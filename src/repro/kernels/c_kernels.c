/*
 * Scalar C implementations of the merge_level, shash_sweep,
 * kahn_propagate and halo_prefix_counts kernels.
 *
 * Built once by repro/kernels/c_backend.py (``cc -O2 -shared -fPIC``) and
 * called through ctypes, which releases the GIL around every call.  The
 * outputs are bit-identical to the numpy reference in numpy_backend.py
 * (tests/test_kernels.py pins that).
 *
 * The two bottom-up sweeps (merge_level, shash_sweep) run once per graph
 * in ascending variable-id order: an AIG's fan-ins always precede their
 * node, so id order is topological and no level batches are needed.
 *
 * Every entry point validates each index before dereferencing it and
 * returns a status code instead of touching memory out of range;
 * merge_level, shash_sweep and kahn_propagate validate before writing
 * anything.  Scratch is allocated per call: no global state, so
 * concurrent calls on different arrays are safe.
 */

#include <stdint.h>
#include <stdlib.h>

#define REPRO_OK 0
#define REPRO_EINDEX (-1) /* an index or count is out of range */
#define REPRO_ENOMEM (-2)
#define REPRO_EORDER (-3) /* nodes not ascending, or a fan-in after its node */

/* ------------------------------------------------------------------------
 * merge_level
 * ---------------------------------------------------------------------- */

/* Candidate a ranks after b under the (size, leaves) key. */
static int cand_greater(const int64_t *cand_size, const int32_t *cand_leaves,
                        int64_t a, int64_t b)
{
    if (cand_size[a] != cand_size[b])
        return cand_size[a] > cand_size[b];
    for (int t = 0; t < 3; t++) {
        if (cand_leaves[3 * a + t] != cand_leaves[3 * b + t])
            return cand_leaves[3 * a + t] > cand_leaves[3 * b + t];
    }
    return 0;
}

static int has_leaf(const int32_t *triple, int32_t leaf)
{
    return triple[0] == leaf || triple[1] == leaf || triple[2] == leaf;
}

/* Every fan-in variable, count and cut size the merge will read.  The
 * fan-in must precede its node, so the sweep has already finished it. */
static int check_fanin_cuts(int64_t lit, int64_t node, int64_t slots,
                            const int8_t *sizes, const int32_t *counts)
{
    if (lit < 0)
        return REPRO_EINDEX;
    int64_t var = lit >> 1;
    if (var >= node)
        return REPRO_EORDER;
    int32_t count = counts[var];
    if (count < 0 || count > slots)
        return REPRO_EINDEX;
    for (int32_t s = 0; s < count; s++) {
        int8_t size = sizes[var * slots + s];
        if (size < 0 || size > 3)
            return REPRO_EINDEX;
    }
    return REPRO_OK;
}

/* Merge, rank and store the priority cuts of every node in ``nodes``
 * (strictly ascending AND ids), each after its fan-ins. */
int repro_merge_level(const int64_t *nodes, int64_t num_nodes,
                      const int64_t *fanin0, const int64_t *fanin1,
                      int64_t num_vars, int64_t slots,
                      int32_t *leaves, uint8_t *truths, int8_t *sizes,
                      int32_t *counts, int64_t k, int64_t max_cuts,
                      int include_trivial, int32_t pad,
                      uint8_t trivial_truth, const uint8_t *expand_lut,
                      const uint8_t *width_mask)
{
    if (k < 1 || k > 3 || max_cuts < 0
            || max_cuts + (include_trivial ? 1 : 0) > slots)
        return REPRO_EINDEX;
    for (int64_t b = 0; b < num_nodes; b++) {
        int64_t node = nodes[b];
        if (node < 0 || node >= num_vars)
            return REPRO_EINDEX;
        if (b > 0 && node <= nodes[b - 1])
            return REPRO_EORDER;
        int status = check_fanin_cuts(fanin0[node], node, slots, sizes,
                                      counts);
        if (status == REPRO_OK)
            status = check_fanin_cuts(fanin1[node], node, slots, sizes,
                                      counts);
        if (status != REPRO_OK)
            return status;
    }

    int64_t grid = slots * slots;
    size_t cells = (size_t)grid + 1;
    int32_t *cand_leaves = malloc(cells * 3 * sizeof(int32_t));
    int64_t *cand_size = malloc(cells * sizeof(int64_t));
    int64_t *order = malloc(cells * sizeof(int64_t));
    uint8_t *cand_truth = malloc(cells);
    uint8_t *keep = malloc(cells);
    if (!cand_leaves || !cand_size || !order || !cand_truth || !keep) {
        free(cand_leaves);
        free(cand_size);
        free(order);
        free(cand_truth);
        free(keep);
        return REPRO_ENOMEM;
    }
    int32_t uni[3];

    for (int64_t b = 0; b < num_nodes; b++) {
        int64_t node = nodes[b];
        int64_t lit0 = fanin0[node];
        int64_t lit1 = fanin1[node];
        int64_t v0 = lit0 >> 1;
        int64_t v1 = lit1 >> 1;
        uint8_t flip0 = (lit0 & 1) ? 255 : 0;
        uint8_t flip1 = (lit1 & 1) ? 255 : 0;
        int32_t c0 = counts[v0];
        int32_t c1 = counts[v1];
        int64_t n_cand = 0;
        for (int32_t s0 = 0; s0 < c0; s0++) {
            int8_t sz0 = sizes[v0 * slots + s0];
            const int32_t *la = leaves + (v0 * slots + s0) * 3;
            for (int32_t s1 = 0; s1 < c1; s1++) {
                int8_t sz1 = sizes[v1 * slots + s1];
                const int32_t *lb = leaves + (v1 * slots + s1) * 3;
                /* Sorted-list union of the two leaf sets, tracking which
                 * fan-in contributed each union position (the EXPAND_LUT
                 * masks) and bailing out past k distinct leaves. */
                int i = 0, j = 0, out = 0, mask0 = 0, mask1 = 0;
                int feasible = 1;
                while (i < sz0 || j < sz1) {
                    int32_t a = i < sz0 ? la[i] : INT32_MAX;
                    int32_t c = j < sz1 ? lb[j] : INT32_MAX;
                    if (out >= k) {
                        feasible = 0;
                        break;
                    }
                    if (a < c) {
                        uni[out] = a;
                        mask0 |= 1 << out;
                        i++;
                    } else if (c < a) {
                        uni[out] = c;
                        mask1 |= 1 << out;
                        j++;
                    } else {
                        uni[out] = a;
                        mask0 |= 1 << out;
                        mask1 |= 1 << out;
                        i++;
                        j++;
                    }
                    out++;
                }
                if (!feasible)
                    continue;
                uint8_t t0 = expand_lut[mask0 * 256 + truths[v0 * slots + s0]]
                             ^ flip0;
                uint8_t t1 = expand_lut[mask1 * 256 + truths[v1 * slots + s1]]
                             ^ flip1;
                cand_truth[n_cand] = (uint8_t)((t0 & t1) & width_mask[out]);
                cand_size[n_cand] = out;
                for (int t = 0; t < 3; t++)
                    cand_leaves[3 * n_cand + t] = t < out ? uni[t] : pad;
                n_cand++;
            }
        }

        /* Stable insertion sort by (size, leaves); candidate counts are
         * tiny (<= slots**2, typically ~121). */
        for (int64_t x = 0; x < n_cand; x++)
            order[x] = x;
        for (int64_t x = 1; x < n_cand; x++) {
            int64_t current = order[x];
            int64_t y = x - 1;
            while (y >= 0 && cand_greater(cand_size, cand_leaves, order[y],
                                          current)) {
                order[y + 1] = order[y];
                y--;
            }
            order[y + 1] = current;
        }

        /* Dedup: equal leaf sets are adjacent after the sort; keep the
         * first occurrence. */
        for (int64_t x = 0; x < n_cand; x++) {
            int64_t ci = order[x];
            int duplicate = 0;
            if (x > 0) {
                int64_t pi = order[x - 1];
                duplicate = cand_leaves[3 * ci] == cand_leaves[3 * pi]
                            && cand_leaves[3 * ci + 1] == cand_leaves[3 * pi + 1]
                            && cand_leaves[3 * ci + 2] == cand_leaves[3 * pi + 2];
            }
            keep[ci] = !duplicate;
        }

        /* Dominance: singletons dominate any superset, pairs dominate
         * covering triples. */
        for (int64_t x = 0; x < n_cand; x++) {
            int64_t ci = order[x];
            if (!keep[ci])
                continue;
            int64_t size_c = cand_size[ci];
            if (size_c < 2)
                continue;
            const int32_t *victim = cand_leaves + 3 * ci;
            for (int64_t y = 0; y < n_cand; y++) {
                int64_t cj = order[y];
                if (cand_size[cj] >= size_c)
                    break; /* sorted by size: no smaller cuts remain */
                if (!keep[cj])
                    continue;
                const int32_t *dom = cand_leaves + 3 * cj;
                if (cand_size[cj] == 1) {
                    if (has_leaf(victim, dom[0])) {
                        keep[ci] = 0;
                        break;
                    }
                } else if (cand_size[cj] == 2 && size_c == 3) {
                    if (has_leaf(victim, dom[0]) && has_leaf(victim, dom[1])) {
                        keep[ci] = 0;
                        break;
                    }
                }
            }
        }

        int64_t kept = 0;
        for (int64_t x = 0; x < n_cand; x++) {
            int64_t ci = order[x];
            if (!keep[ci])
                continue;
            if (kept >= max_cuts)
                break;
            int64_t slot = node * slots + kept;
            for (int t = 0; t < 3; t++)
                leaves[slot * 3 + t] = cand_leaves[3 * ci + t];
            truths[slot] = cand_truth[ci];
            sizes[slot] = (int8_t)cand_size[ci];
            kept++;
        }
        if (include_trivial) {
            int64_t slot = node * slots + kept;
            leaves[slot * 3] = (int32_t)node;
            truths[slot] = trivial_truth;
            sizes[slot] = 1;
            counts[node] = (int32_t)(kept + 1);
        } else {
            counts[node] = (int32_t)kept;
        }
    }

    free(cand_leaves);
    free(cand_size);
    free(order);
    free(cand_truth);
    free(keep);
    return REPRO_OK;
}

/* ------------------------------------------------------------------------
 * shash_sweep
 * ---------------------------------------------------------------------- */

/* splitmix64 finalizer, wrapping in uint64 like the numpy reference. */
static uint64_t splitmix(uint64_t x)
{
    uint64_t z = x + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

#define SHASH_FLIP 0xA5A5A5A5A5A5A5A5ULL /* complement-edge marker */

/* Fill node[first:] with each AND's structural mixing value, in id order:
 * a commutative combination of its fan-ins' values with complement bits
 * folded in. */
int repro_shash_sweep(const int64_t *fanin0, const int64_t *fanin1,
                      int64_t first, int64_t num_vars, uint64_t *node)
{
    if (first < 0 || first > num_vars)
        return REPRO_EINDEX;
    for (int64_t v = first; v < num_vars; v++) {
        if (fanin0[v] < 0 || (fanin0[v] >> 1) >= v
                || fanin1[v] < 0 || (fanin1[v] >> 1) >= v)
            return REPRO_EORDER;
    }
    for (int64_t v = first; v < num_vars; v++) {
        int64_t f0 = fanin0[v], f1 = fanin1[v];
        uint64_t a = node[f0 >> 1] ^ ((f0 & 1) ? SHASH_FLIP : 0);
        uint64_t b = node[f1 >> 1] ^ ((f1 & 1) ? SHASH_FLIP : 0);
        uint64_t hi = a > b ? a : b;
        uint64_t lo = a > b ? b : a;
        node[v] = splitmix(splitmix(hi) ^ lo);
    }
    return REPRO_OK;
}

/* ------------------------------------------------------------------------
 * kahn_propagate
 * ---------------------------------------------------------------------- */

int repro_kahn_propagate(const int64_t *indptr, const int64_t *consumers,
                         int64_t num_edges, int64_t *indegree,
                         int64_t *values, int64_t n)
{
    if (indptr[0] < 0 || indptr[n] > num_edges)
        return REPRO_EINDEX;
    for (int64_t node = 0; node < n; node++) {
        if (indptr[node + 1] < indptr[node])
            return REPRO_EINDEX;
    }
    for (int64_t e = indptr[0]; e < indptr[n]; e++) {
        if (consumers[e] < 0 || consumers[e] >= n)
            return REPRO_EINDEX;
    }
    if (n == 0)
        return REPRO_OK;

    /* A node is pushed when it starts at indegree 0 or when a decrement
     * brings it to exactly 0 — at most once each, so n slots suffice. */
    int64_t *stack = malloc((size_t)n * sizeof(int64_t));
    if (!stack)
        return REPRO_ENOMEM;
    int64_t top = 0;
    for (int64_t node = 0; node < n; node++) {
        if (indegree[node] == 0)
            stack[top++] = node;
    }
    while (top > 0) {
        int64_t node = stack[--top];
        int64_t relaxed = values[node] + 1;
        for (int64_t e = indptr[node]; e < indptr[node + 1]; e++) {
            int64_t child = consumers[e];
            if (values[child] < relaxed)
                values[child] = relaxed;
            if (--indegree[child] == 0)
                stack[top++] = child;
        }
    }
    free(stack);
    return REPRO_OK;
}

/* ------------------------------------------------------------------------
 * halo_prefix_counts
 * ---------------------------------------------------------------------- */

#define REPRO_MAX_HOPS 254 /* depths 0..K+1 must fit one byte */

/* Raise node v to depth d (> its current depth), counting it into every
 * block it newly joins: B_j for depth[v] <= j < d. */
static int join_blocks(int64_t v, uint8_t d, uint8_t *depth,
                       const int64_t *indptr, int64_t num_indices,
                       int64_t *count, int64_t *degree_sum)
{
    int64_t start = indptr[v], end = indptr[v + 1];
    if (start < 0 || end < start || end > num_indices)
        return REPRO_EINDEX;
    for (int j = depth[v]; j < d; j++) {
        count[j]++;
        degree_sum[j] += end - start;
    }
    depth[v] = d;
    return REPRO_OK;
}

/* Grow the window one target at a time.  Blocks nest (B_0 ⊇ ... ⊇ B_K),
 * so one byte per node suffices: depth[v] is one more than the deepest
 * block v has joined (0: none), and v is in B_j exactly when
 * j < depth[v].  A new target enters at depth K+1; a breadth-first sweep
 * then lifts each column of a row at depth d to d-1.  Breadth-first order
 * lifts every node straight to its final depth, so each node is queued
 * at most once per target and the queue only ever holds the nodes that
 * target touched. */
int repro_halo_prefix_counts(const int64_t *indptr, int64_t num_nodes,
                             const int64_t *indices, int64_t num_indices,
                             const int64_t *targets, int64_t num_targets,
                             int64_t num_hops, int64_t *sizes,
                             int64_t *edges)
{
    if (num_nodes < 0 || num_hops < 0 || num_hops > REPRO_MAX_HOPS)
        return REPRO_EINDEX;
    int64_t width = num_hops + 1;
    uint8_t top = (uint8_t)width;
    int64_t capacity = 64;
    uint8_t *depth = calloc((size_t)num_nodes + 1, 1);
    int64_t *count = calloc((size_t)width, sizeof(int64_t));
    int64_t *degree_sum = calloc((size_t)width, sizeof(int64_t));
    int64_t *queue = malloc((size_t)capacity * sizeof(int64_t));
    int status = REPRO_OK;
    if (!depth || !count || !degree_sum || !queue) {
        status = REPRO_ENOMEM;
        goto done;
    }

    for (int64_t p = 0; p < num_targets; p++) {
        int64_t target = targets[p];
        if (target < 0 || target >= num_nodes) {
            status = REPRO_EINDEX;
            goto done;
        }
        int64_t head = 0, tail = 0;
        if (depth[target] < top) {
            status = join_blocks(target, top, depth, indptr, num_indices,
                                 count, degree_sum);
            if (status != REPRO_OK)
                goto done;
            queue[tail++] = target;
        }
        while (head < tail) {
            int64_t row = queue[head++];
            uint8_t lifted = depth[row] - 1;
            if (lifted == 0)
                continue; /* row is in B_0 only: nothing reads further */
            for (int64_t e = indptr[row]; e < indptr[row + 1]; e++) {
                int64_t col = indices[e];
                if (col < 0 || col >= num_nodes) {
                    status = REPRO_EINDEX;
                    goto done;
                }
                if (depth[col] >= lifted)
                    continue;
                status = join_blocks(col, lifted, depth, indptr,
                                     num_indices, count, degree_sum);
                if (status != REPRO_OK)
                    goto done;
                if (tail == capacity) {
                    int64_t *grown = realloc(
                        queue, (size_t)capacity * 2 * sizeof(int64_t));
                    if (!grown) {
                        status = REPRO_ENOMEM;
                        goto done;
                    }
                    queue = grown;
                    capacity *= 2;
                }
                queue[tail++] = col;
            }
        }
        for (int64_t j = 0; j < width; j++)
            sizes[p * width + j] = count[j];
        for (int64_t j = 0; j < num_hops; j++)
            edges[p * num_hops + j] = degree_sum[j + 1];
    }

done:
    free(depth);
    free(count);
    free(degree_sum);
    free(queue);
    return status;
}
