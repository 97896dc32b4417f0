"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def mult_file(tmp_path):
    path = tmp_path / "mult.aag"
    assert main(["gen", str(path), "--width", "4"]) == 0
    return path


class TestGenStats:
    def test_gen_writes_readable_netlist(self, tmp_path, capsys):
        path = tmp_path / "fresh.aag"
        assert main(["gen", str(path), "--width", "4"]) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_gen_binary_format(self, tmp_path):
        path = tmp_path / "m.aig"
        assert main(["gen", str(path), "--width", "3", "--kind", "booth"]) == 0
        assert path.read_bytes().startswith(b"aig")

    def test_stats(self, mult_file, capsys):
        assert main(["stats", str(mult_file)]) == 0
        out = capsys.readouterr().out
        assert "ands" in out and "depth" in out

    def test_gen_with_style(self, tmp_path):
        path = tmp_path / "w.aag"
        assert main(["gen", str(path), "--width", "4", "--style", "wallace"]) == 0


class TestExtract:
    def test_extract_reports_adders(self, mult_file, capsys):
        assert main(["extract", str(mult_file)]) == 0
        out = capsys.readouterr().out
        assert "FA" in out and "HA" in out


class TestTrainReason:
    def test_train_then_reason(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert main(["train", str(model), "--width", "6", "--epochs", "60"]) == 0
        assert model.exists()
        netlist = tmp_path / "target.aag"
        assert main(["gen", str(netlist), "--width", "8"]) == 0
        assert main(["reason", str(model), str(netlist)]) == 0
        out = capsys.readouterr().out
        assert "adder tree" in out


    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_train_rejects_non_positive_window_budget(self, tmp_path, capsys,
                                                      budget):
        model = tmp_path / "model.npz"
        assert main(["train", str(model), "--width", "4", "--epochs", "1",
                     "--max-window-bytes", budget]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "train: --max-window-bytes must be a positive byte count, "
            f"got {budget}"
        )
        assert captured.out == ""  # refused before training started
        assert not model.exists()


    @pytest.mark.parametrize("argv, message", [
        (["train", "{out}", "--epochs", "0"],
         "train: --epochs must be at least 1, got 0"),
        (["train", "{out}", "--epochs", "-3"],
         "train: --epochs must be at least 1, got -3"),
        (["train", "{out}", "--width", "0"],
         "train: --width must be at least 1 for a csa multiplier, got 0"),
        (["gen", "{out}", "--width", "0"],
         "gen: --width must be at least 1 for a csa multiplier, got 0"),
        (["gen", "{out}", "--width", "1", "--kind", "booth"],
         "gen: --width must be at least 2 for a booth multiplier, got 1"),
        (["verify", "--width", "0"],
         "verify: --width must be at least 1 for a csa multiplier, got 0"),
    ], ids=["train-epochs-0", "train-epochs-neg", "train-width-0",
            "gen-width-0", "gen-booth-width-1", "verify-width-0"])
    def test_out_of_range_numbers_are_clean_errors(self, tmp_path, capsys,
                                                   argv, message):
        out = tmp_path / "written.npz"
        code = main([arg.format(out=out) for arg in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""  # refused before any work
        assert list(tmp_path.iterdir()) == []


class TestBatchReason:
    @pytest.fixture(scope="class")
    def trained_model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("batch") / "model.npz"
        assert main(["train", str(path), "--width", "6", "--epochs", "40"]) == 0
        return path

    def test_batch_reason_stream_with_repeats(self, trained_model, tmp_path,
                                              capsys):
        small = tmp_path / "small.aag"
        large = tmp_path / "large.aag"
        assert main(["gen", str(small), "--width", "4"]) == 0
        assert main(["gen", str(large), "--width", "6"]) == 0
        capsys.readouterr()
        assert main([
            "batch-reason", str(trained_model),
            str(small), str(large), str(small),  # repeated design in stream
            "--compare-sequential",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("FA") == 3  # one summary line per netlist
        assert "batch=3 unique=2" in out  # dedup of the repeated design
        assert "graph cache" in out and "result cache" in out
        assert "speedup" in out

    def test_batch_reason_sharded_and_streamed(self, trained_model, tmp_path,
                                               capsys):
        """The scaling knob: a tiny memory budget shards and streams."""
        paths = []
        for width in (4, 5):
            path = tmp_path / f"m{width}.aag"
            assert main(["gen", str(path), "--width", str(width)]) == 0
            paths.append(str(path))
        capsys.readouterr()
        assert main([
            "batch-reason", str(trained_model), *paths,
            "--max-window-bytes", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("FA") == 2
        assert "shards=2" in out  # 1-byte budget: every circuit its own shard
        assert "streamed=2" in out  # ... streamed under that same budget

    def test_batch_reason_cache_dir_round_trip(self, trained_model, tmp_path,
                                               capsys):
        """--cache-dir: a fresh service restart keeps its steady-state hits."""
        netlist = tmp_path / "m4.aag"
        assert main(["gen", str(netlist), "--width", "4"]) == 0
        cache_dir = tmp_path / "result-cache"
        capsys.readouterr()
        assert main([
            "batch-reason", str(trained_model), str(netlist),
            "--cache-dir", str(cache_dir),
        ]) == 0
        first = capsys.readouterr().out
        assert "loaded 0 entries" in first
        assert "saved 1 new entries" in first
        assert "graph cache: loaded 0 entries" in first
        assert "graph cache: saved 1 new entries" in first
        assert list(cache_dir.glob("*.npz"))
        assert list((cache_dir / "graphs").glob("*.npz"))
        # Second run = new process in real life: everything served from disk.
        assert main([
            "batch-reason", str(trained_model), str(netlist),
            "--cache-dir", str(cache_dir),
        ]) == 0
        second = capsys.readouterr().out
        assert "loaded 1 entries" in second
        assert "result_hits=1" in second
        assert "saved 0 new entries" in second
        assert "graph cache: loaded 1 entries" in second
        assert "graph cache: saved 0 new entries" in second

    def test_batch_reason_unusable_cache_dir_is_clean_error(self, trained_model,
                                                            tmp_path, capsys):
        netlist = tmp_path / "m4.aag"
        assert main(["gen", str(netlist), "--width", "4"]) == 0
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        capsys.readouterr()
        assert main([
            "batch-reason", str(trained_model), str(netlist),
            "--cache-dir", str(blocker / "sub"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("batch-reason: cannot use cache dir")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback
        # A dir with foreign npz data (no stamp) fails before the batch runs.
        foreign = tmp_path / "datasets"
        foreign.mkdir()
        (foreign / "data.npz").write_bytes(b"user data")
        assert main([
            "batch-reason", str(trained_model), str(netlist),
            "--cache-dir", str(foreign),
        ]) == 2
        captured = capsys.readouterr()
        assert "no result-cache stamp" in captured.err
        assert "FA" not in captured.out  # refused before reasoning anything
        assert (foreign / "data.npz").read_bytes() == b"user data"

    def test_batch_reason_no_netlists_is_clean_error(self, trained_model,
                                                     capsys):
        assert main(["batch-reason", str(trained_model)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "batch-reason: no netlists given"

    def test_batch_reason_unreadable_file_is_clean_error(self, trained_model,
                                                         tmp_path, capsys):
        good = tmp_path / "good.aag"
        assert main(["gen", str(good), "--width", "4"]) == 0
        missing = tmp_path / "missing.aag"
        garbage = tmp_path / "garbage.aag"
        garbage.write_text("this is not an AIGER file\n")
        capsys.readouterr()
        for bad in (missing, garbage):
            assert main(["batch-reason", str(trained_model),
                         str(good), str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"batch-reason: cannot read {bad}")
            assert len(err.strip().splitlines()) == 1  # one line, no traceback

    @pytest.mark.parametrize("command", ["batch-reason", "serve"])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_is_clean_error(self, trained_model,
                                                tmp_path, capsys, command,
                                                budget):
        """A budget of zero or less is refused, never read as "no budget"."""
        netlist = tmp_path / "m4.aag"
        assert main(["gen", str(netlist), "--width", "4"]) == 0
        capsys.readouterr()
        argv = {
            "batch-reason": ["batch-reason", str(trained_model),
                             str(netlist)],
            "serve": ["serve", str(trained_model),
                      "--socket", str(tmp_path / "gamora.sock")],
        }[command]
        assert main([*argv, "--max-window-bytes", budget]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            f"{command}: max_window_bytes must be a positive byte count, "
            f"got {budget}"
        )
        assert captured.out == ""  # refused before any batch ran
        assert not (tmp_path / "gamora.sock").exists()


class TestMapCec:
    def test_map_reports_cells(self, mult_file, tmp_path, capsys):
        out_path = tmp_path / "mapped.aag"
        assert main(["map", str(mult_file), "--library", "asap7",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "FAx1" in out
        assert out_path.exists()

    def test_cec_equivalent(self, mult_file, tmp_path, capsys):
        mapped = tmp_path / "mapped.aag"
        main(["map", str(mult_file), "--out", str(mapped)])
        capsys.readouterr()
        assert main(["cec", str(mult_file), str(mapped)]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_cec_different_exit_code(self, mult_file, tmp_path, capsys):
        other = tmp_path / "other.aag"
        main(["gen", str(other), "--width", "4", "--kind", "booth"])
        capsys.readouterr()
        # Same interface (4-bit multipliers) but CSA vs Booth are
        # functionally identical... so corrupt by using width 4 vs 4 booth:
        # both compute a*b — they ARE equivalent. Use a different width
        # reduction: build a squarer-like mismatch instead.
        from repro.aig import AIG, write_aag

        wrong = AIG(name="wrong")
        lits = wrong.add_inputs(8)
        for k in range(8):
            wrong.add_output(wrong.add_and(lits[k], lits[(k + 1) % 8]))
        path = tmp_path / "wrong.aag"
        write_aag(wrong, path)
        code = main(["cec", str(mult_file), str(path)])
        assert code == 2


class TestVerify:
    def test_verify_ok(self, capsys):
        assert main(["verify", "--width", "4"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_naive_small(self, capsys):
        assert main(["verify", "--width", "3", "--mode", "naive"]) == 0


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["synthesize"])

    @pytest.mark.parametrize("command", ["batch-reason", "serve"])
    def test_old_budget_flag_spells_the_one_budget(self, command):
        """The old flag name is an alternate spelling of the one budget."""
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [command, "model.npz", "--max-shard-bytes", "4096"])
        assert args.max_window_bytes == 4096
        assert not any("shard" in name for name in vars(args))

    def test_serve_no_report_flag_is_gone(self, tmp_path, capsys):
        """Every served result carries its report; there is no opt-out."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(tmp_path / "model.npz"), "--no-report"])
        assert exit_info.value.code == 2
        assert "--no-report" in capsys.readouterr().err
