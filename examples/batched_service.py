"""Batched reasoning service: serve many netlists through one forward pass.

Demonstrates the serving layer added on top of :class:`repro.core.Gamora`:

* ``Gamora.reason_many`` — block-diagonal batching: N circuits, one
  vectorized GNN inference, per-circuit adder trees fanned back out;
* structural-hash deduplication — repeated designs in a request stream are
  reasoned once per batch;
* the structural-hash LRU caches — a re-submitted design is served straight
  from the result cache on later batches (the steady state under real
  traffic, where popular designs repeat);
* one planner, one executor — ``ReasoningService.plan`` turns a batch into
  steps, each a block-diagonal merge plus the window plan that runs it;
  ``max_window_bytes`` splits the mega-batch so every forward pass fits an
  explicit inference-memory budget (a circuit larger than the budget
  streams window by window under it).

Run with::

    PYTHONPATH=src python examples/batched_service.py
"""

from repro.core import Gamora
from repro.generators import csa_multiplier
from repro.learn import TrainConfig
from repro.serve import ReasoningService
from repro.utils.timing import Timer, format_seconds


def main() -> None:
    print("training a shallow Gamora on an 8-bit CSA multiplier ...")
    gamora = Gamora(model="shallow", train_config=TrainConfig(epochs=150))
    gamora.fit([csa_multiplier(8)])

    # A request stream at batch size 8: mixed widths, popular designs repeat.
    widths = [8, 12, 16, 8, 12, 16, 8, 12]
    stream = [csa_multiplier(w) for w in widths]
    print(f"\nrequest stream: {[c.name for c in stream]}")

    with Timer() as sequential_timer:
        sequential = [gamora.reason(circuit) for circuit in stream]
    print(f"sequential reason() loop: {format_seconds(sequential_timer.elapsed)}")

    service = ReasoningService(gamora)
    cold = service.reason_many(stream)
    print(f"batched (cold caches):    {format_seconds(cold.stats.total_seconds)}"
          f"  [{cold.stats.summary()}]")

    warm = service.reason_many(stream)
    print(f"batched (warm caches):    {format_seconds(warm.stats.total_seconds)}"
          f"  [{warm.stats.summary()}]")

    print("\nper-circuit results (batched == sequential):")
    for circuit, left, right in zip(stream, sequential, cold):
        assert left.tree.num_full_adders == right.tree.num_full_adders
        print(f"  {circuit.name}: {right.tree.num_full_adders} FA, "
              f"{right.tree.num_half_adders} HA, "
              f"{right.num_mismatches} mismatches")

    print("\ncache counters:")
    for name, counters in service.cache_stats().items():
        print(f"  {name}: {counters}")

    speedup = sequential_timer.elapsed / cold.stats.total_seconds
    print(f"\ncold batched speedup over sequential: {speedup:.2f}x "
          f"(structural-hash dedup: {cold.stats.batch_size} requests -> "
          f"{cold.stats.unique_circuits} unique designs)")

    # Scaling knob: bound each forward pass's memory to half the full
    # mega-batch.  Results are bit-identical to the paths above.
    budget = service.plan(stream).peak_shard_bytes // 2
    scaled = ReasoningService(gamora, max_window_bytes=budget)
    plan = scaled.plan(stream)
    print(f"\nsharded serving (budget {budget / 1024 ** 2:.1f}MiB): "
          f"{plan.summary()}")
    for index, step in enumerate(plan):
        print(f"  step {index}: unique designs {step.indices}, "
              f"{step.window_plan.summary()}")
    bounded = scaled.reason_many(stream)
    print(f"sharded:                  "
          f"{format_seconds(bounded.stats.total_seconds)}"
          f"  [{bounded.stats.summary()}]")
    for left, right in zip(cold, bounded):
        assert left.tree.num_full_adders == right.tree.num_full_adders


if __name__ == "__main__":
    main()
