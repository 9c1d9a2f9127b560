/* Compiled kernels for the `engine="compiled"` evaluation tier.
 *
 * Built on demand by repro/core/engine/compiled.py with the system C
 * toolchain (cc/gcc/clang) into a cached shared library, then bound via
 * ctypes.  Every kernel reimplements one of the numpy engines' hottest
 * stacked paths with the *same float64 arithmetic in the same order*
 * (subtract, square, add, compare against a precomputed squared
 * threshold), so the boolean predicates — and therefore every integer
 * metric derived from them — are bit-identical to the dense/sparse
 * numpy paths.  The build deliberately passes -ffp-contract=off: a
 * fused multiply-add in `dx*dx + dy*dy` could round differently from
 * numpy's two-instruction sequence and break that contract.
 *
 * Component labels are canonical smallest-member ids, produced directly
 * by a union-find whose union keeps the smaller root: the root of every
 * set is always its minimum member, so the final find() pass *is* the
 * canonical labeling shared by the scalar, batch and sparse engines.
 *
 * Besides measurement, the kernels run the per-move work of a search
 * in one call each: a phase's proposals for every chain
 * (repro_propose_rows), a new Swap incumbent's window pick table
 * (repro_swap_window_table), the validation of a phase's move rows
 * (repro_collect_phase), the in-place commit of an accepted move
 * to a dense chain cache (repro_commit_dense), free-cell picks
 * (repro_distinct_cells), a GA generation (repro_ga_generation) and
 * the GA population's diversity (repro_stack_diversity).
 * Each keeps its Python twin's results exactly; the Python code stays
 * the reference.
 *
 * Candidate-stack kernels parallelize over candidates (the dense phase
 * kernel over its (chain, mover set) groups) with OpenMP when the
 * toolchain supports it (each candidate writes disjoint output rows, so
 * the results are deterministic regardless of thread count); without
 * OpenMP they degrade to plain serial loops.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

typedef int64_t i64;
typedef int32_t i32;
typedef uint8_t u8;

/* Below this many candidate pairs a filter pass runs on one thread: the
 * sparse delta paths filter a few dozen mover pairs per call, where a
 * thread team costs more than the work and stalls whenever a sibling
 * core is busy. */
#define PARALLEL_MIN_PAIRS 16384

/* Below this many candidates x routers a stack measurement, or a dense
 * phase, runs on one thread.  A GA generation measures a few dozen
 * paper-frame rows per call: there two threads lose wall time whenever
 * the sibling core is busy (up to 128 rows of 64 routers; from 4 rows
 * of 1024 routers the sparse form wins), and on an idle host they save
 * at most a third of the wall time for twice the CPU time.  A
 * paper-frame phase is alike: two threads tie or lose below 64
 * candidates on an idle host, save 8-10% at 128, and lose at every
 * size while the sibling core is busy. */
#define STACK_PARALLEL_MIN_WORK 8192

/* Below this many clients x routers a client-major CSR fill runs on one
 * thread.  Timed alone in separate processes on a 2-CPU host: with the
 * sibling core busy, two threads lose 26% at the paper frame (192 x 64)
 * and 7% at 384 x 64, and tie or win from 512 x 64 up; on an idle host
 * they halve the fill from there on. */
#define CSR_PARALLEL_MIN_WORK 32768

/* ------------------------------------------------------------------ */
/* Runtime introspection                                               */
/* ------------------------------------------------------------------ */

i64 repro_has_openmp(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

void repro_set_threads(i64 n) {
#ifdef _OPENMP
    if (n > 0) {
        omp_set_num_threads((int)n);
    }
#else
    (void)n;
#endif
}

i64 repro_get_max_threads(void) {
#ifdef _OPENMP
    return (i64)omp_get_max_threads();
#else
    return 1;
#endif
}

/* ------------------------------------------------------------------ */
/* Union-find with smallest-member roots                               */
/* ------------------------------------------------------------------ */

static i64 uf_find(i64 *parent, i64 x) {
    i64 root = x;
    while (parent[root] != root) {
        root = parent[root];
    }
    while (parent[x] != root) {
        i64 next = parent[x];
        parent[x] = root;
        x = next;
    }
    return root;
}

/* The smaller root wins, so every root is the minimum of its set and
 * find() yields canonical smallest-member labels without a remap. */
static void uf_union(i64 *parent, i64 a, i64 b) {
    i64 ra = uf_find(parent, a);
    i64 rb = uf_find(parent, b);
    if (ra == rb) {
        return;
    }
    if (ra < rb) {
        parent[rb] = ra;
    } else {
        parent[ra] = rb;
    }
}

/* Canonical component labels from parallel edge-endpoint arrays.  One
 * kernel for every graph size, replacing the numpy engines'
 * scipy-vs-propagation split in labels_from_edge_stack. */
void repro_label_components(
    i64 n_nodes, i64 n_edges, const i64 *rows, const i64 *cols, i64 *labels
) {
    for (i64 i = 0; i < n_nodes; i++) {
        labels[i] = i;
    }
    for (i64 e = 0; e < n_edges; e++) {
        uf_union(labels, rows[e], cols[e]);
    }
    for (i64 i = 0; i < n_nodes; i++) {
        labels[i] = uf_find(labels, i);
    }
}

/* ------------------------------------------------------------------ */
/* Shared per-candidate metric assembly                                */
/* ------------------------------------------------------------------ */

/* counts/giant/components/mask from a finished union-find; counts is
 * caller scratch of size N.  Tie-break: first maximum over canonical
 * label index == smallest canonical label among the largest components,
 * the rule every numpy path shares. */
static void finish_components(
    i64 *parent, i64 *counts, i64 n,
    i64 *giant_size, i64 *n_components, u8 *giant_mask
) {
    for (i64 i = 0; i < n; i++) {
        counts[i] = 0;
    }
    for (i64 i = 0; i < n; i++) {
        counts[uf_find(parent, i)]++;
    }
    i64 best = 0;
    i64 giant = 0;
    i64 comps = 0;
    for (i64 i = 0; i < n; i++) {
        if (counts[i] > 0) {
            comps++;
            if (counts[i] > best) {
                best = counts[i];
                giant = i;
            }
        }
    }
    for (i64 i = 0; i < n; i++) {
        giant_mask[i] = (u8)(parent[i] == giant);
    }
    *giant_size = best;
    *n_components = comps;
}

/* ------------------------------------------------------------------ */
/* Dense-form stacked measurement                                      */
/* ------------------------------------------------------------------ */

/* Fused pairwise-distance + link-range test, component labeling and
 * covered-client counting for a (K, N, 2) candidate stack.  No (K,N,N)
 * adjacency or (K,M,N) coverage tensor is ever materialized; the
 * coverage scan early-exits on the first covering router per client. */
void repro_measure_stack_dense(
    const double *positions,  /* K*N*2 */
    i64 n_candidates, i64 n_routers,
    const double *range2,     /* N*N squared link ranges */
    const double *clients,    /* M*2 */
    i64 n_clients,
    const double *radii2,     /* N squared coverage radii */
    i64 giant_only,
    i64 *giant_sizes,         /* K */
    i64 *covered,             /* K */
    i64 *n_components,        /* K */
    i64 *n_links,             /* K */
    u8 *giant_masks           /* K*N */
) {
    const i64 n = n_routers;
    const i64 m = n_clients;
#ifdef _OPENMP
#pragma omp parallel if(n_candidates * n_routers >= STACK_PARALLEL_MIN_WORK)
#endif
    {
        i64 *parent = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
        i64 *counts = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
        for (i64 k = 0; k < n_candidates; k++) {
            const double *pos = positions + k * n * 2;
            u8 *gmask = giant_masks + k * n;
            for (i64 i = 0; i < n; i++) {
                parent[i] = i;
            }
            i64 links = 0;
            for (i64 i = 0; i < n; i++) {
                const double xi = pos[2 * i];
                const double yi = pos[2 * i + 1];
                const double *row2 = range2 + i * n;
                for (i64 j = i + 1; j < n; j++) {
                    const double dx = xi - pos[2 * j];
                    const double dy = yi - pos[2 * j + 1];
                    if (dx * dx + dy * dy <= row2[j]) {
                        links++;
                        uf_union(parent, i, j);
                    }
                }
            }
            finish_components(
                parent, counts, n,
                &giant_sizes[k], &n_components[k], gmask
            );
            n_links[k] = links;
            i64 cov = 0;
            for (i64 c = 0; c < m; c++) {
                const double cx = clients[2 * c];
                const double cy = clients[2 * c + 1];
                for (i64 j = 0; j < n; j++) {
                    if (giant_only && !gmask[j]) {
                        continue;
                    }
                    const double dx = cx - pos[2 * j];
                    const double dy = cy - pos[2 * j + 1];
                    if (dx * dx + dy * dy <= radii2[j]) {
                        cov++;
                        break;
                    }
                }
            }
            covered[k] = cov;
        }
        free(parent);
        free(counts);
    }
}

/* ------------------------------------------------------------------ */
/* Sparse-form (spatial grid) stacked measurement                      */
/* ------------------------------------------------------------------ */

/* Link range under the rule codes matching repro.core.radio.LinkRule:
 * 0 = OVERLAP (a+b), 1 = BIDIRECTIONAL (min), 2 = UNIDIRECTIONAL (max).
 * Identical float64 arithmetic to LinkRule.range_pairs. */
static inline double link_reach(i64 rule, double ra, double rb) {
    if (rule == 0) {
        return ra + rb;
    }
    if (rule == 1) {
        return ra < rb ? ra : rb;
    }
    return ra > rb ? ra : rb;
}

/* Counting-sort `count` points into (nbx, nby) bins of width `cell`.
 * Coordinates are grid cells (non-negative), so the bin of a point is
 * floor(coord / cell) exactly like the numpy SpatialGridIndex; points
 * past the precomputed grid extent clamp to the last bin, which only
 * widens the candidate set a prune is allowed to keep.  Fills bin_of
 * (count), start (nbins+1 slice offsets) and order (count point ids
 * grouped by bin, ascending within each bin). */
static void bin_points(
    const double *pts, i64 count, double cell, i64 nbx, i64 nby,
    i64 *bin_of, i64 *start, i64 *cursor, i64 *order
) {
    const i64 nbins = nbx * nby;
    for (i64 b = 0; b <= nbins; b++) {
        start[b] = 0;
    }
    for (i64 i = 0; i < count; i++) {
        i64 bx = (i64)floor(pts[2 * i] / cell);
        i64 by = (i64)floor(pts[2 * i + 1] / cell);
        if (bx >= nbx) bx = nbx - 1;
        if (by >= nby) by = nby - 1;
        if (bx < 0) bx = 0;
        if (by < 0) by = 0;
        const i64 b = bx * nby + by;
        bin_of[i] = b;
        start[b + 1]++;
    }
    for (i64 b = 0; b < nbins; b++) {
        start[b + 1] += start[b];
    }
    for (i64 b = 0; b <= nbins; b++) {
        cursor[b] = start[b];
    }
    for (i64 i = 0; i < count; i++) {
        order[cursor[bin_of[i]]++] = i;
    }
}

/* Grid-pruned fused measurement for city-scale stacks: per candidate,
 * routers are binned twice (link-range cells for edges, coverage-radius
 * cells for client queries) and only same-or-adjacent-bin pairs are
 * tested with the exact predicates.  Binning is a conservative prune —
 * bins two apart along an axis are separated by more than one cell
 * width, which is at least the relevant reach — so the surviving edge
 * set and coverage counts equal the dense form's bit for bit. */
void repro_measure_stack_sparse(
    const double *positions,  /* K*N*2 */
    i64 n_candidates, i64 n_routers,
    const double *radii,      /* N */
    i64 link_rule,
    double link_cell, i64 link_nbx, i64 link_nby,
    const double *clients,    /* M*2 */
    i64 n_clients,
    const double *radii2,     /* N */
    double cover_cell, i64 cov_nbx, i64 cov_nby,
    i64 giant_only,
    i64 *giant_sizes,
    i64 *covered,
    i64 *n_components,
    i64 *n_links,
    u8 *giant_masks
) {
    const i64 n = n_routers;
    const i64 m = n_clients;
    const i64 link_bins = link_nbx * link_nby;
    const i64 cov_bins = cov_nbx * cov_nby;
    const i64 scratch_bins = (link_bins > cov_bins ? link_bins : cov_bins) + 1;
#ifdef _OPENMP
#pragma omp parallel if(n_candidates * n_routers >= STACK_PARALLEL_MIN_WORK)
#endif
    {
        i64 *parent = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
        i64 *counts = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
        i64 *bin_of = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
        i64 *order = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
        i64 *start = (i64 *)malloc((size_t)(scratch_bins + 1) * sizeof(i64));
        i64 *cursor = (i64 *)malloc((size_t)(scratch_bins + 1) * sizeof(i64));
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
        for (i64 k = 0; k < n_candidates; k++) {
            const double *pos = positions + k * n * 2;
            u8 *gmask = giant_masks + k * n;
            for (i64 i = 0; i < n; i++) {
                parent[i] = i;
            }
            /* Edges from the link-cell grid. */
            bin_points(pos, n, link_cell, link_nbx, link_nby,
                        bin_of, start, cursor, order);
            i64 links = 0;
            for (i64 i = 0; i < n; i++) {
                const double xi = pos[2 * i];
                const double yi = pos[2 * i + 1];
                const double ri = radii[i];
                const i64 bx = bin_of[i] / link_nby;
                const i64 by = bin_of[i] % link_nby;
                for (i64 ox = -1; ox <= 1; ox++) {
                    const i64 tx = bx + ox;
                    if (tx < 0 || tx >= link_nbx) {
                        continue;
                    }
                    for (i64 oy = -1; oy <= 1; oy++) {
                        const i64 ty = by + oy;
                        if (ty < 0 || ty >= link_nby) {
                            continue;
                        }
                        const i64 b = tx * link_nby + ty;
                        for (i64 s = start[b]; s < start[b + 1]; s++) {
                            const i64 j = order[s];
                            if (j <= i) {
                                continue;
                            }
                            const double dx = xi - pos[2 * j];
                            const double dy = yi - pos[2 * j + 1];
                            const double reach =
                                link_reach(link_rule, ri, radii[j]);
                            if (dx * dx + dy * dy <= reach * reach) {
                                links++;
                                uf_union(parent, i, j);
                            }
                        }
                    }
                }
            }
            finish_components(
                parent, counts, n,
                &giant_sizes[k], &n_components[k], gmask
            );
            n_links[k] = links;
            /* Coverage from the coverage-cell grid of the routers. */
            i64 cov = 0;
            if (m > 0 && n > 0) {
                bin_points(pos, n, cover_cell, cov_nbx, cov_nby,
                            bin_of, start, cursor, order);
                for (i64 c = 0; c < m; c++) {
                    const double cx = clients[2 * c];
                    const double cy = clients[2 * c + 1];
                    i64 cbx = (i64)floor(cx / cover_cell);
                    i64 cby = (i64)floor(cy / cover_cell);
                    if (cbx >= cov_nbx) cbx = cov_nbx - 1;
                    if (cby >= cov_nby) cby = cov_nby - 1;
                    int hit = 0;
                    for (i64 ox = -1; ox <= 1 && !hit; ox++) {
                        const i64 tx = cbx + ox;
                        if (tx < 0 || tx >= cov_nbx) {
                            continue;
                        }
                        for (i64 oy = -1; oy <= 1 && !hit; oy++) {
                            const i64 ty = cby + oy;
                            if (ty < 0 || ty >= cov_nby) {
                                continue;
                            }
                            const i64 b = tx * cov_nby + ty;
                            for (i64 s = start[b]; s < start[b + 1]; s++) {
                                const i64 j = order[s];
                                if (giant_only && !gmask[j]) {
                                    continue;
                                }
                                const double dx = cx - pos[2 * j];
                                const double dy = cy - pos[2 * j + 1];
                                if (dx * dx + dy * dy <= radii2[j]) {
                                    hit = 1;
                                    break;
                                }
                            }
                        }
                    }
                    cov += hit;
                }
            }
            covered[k] = cov;
        }
        free(parent);
        free(counts);
        free(bin_of);
        free(order);
        free(start);
        free(cursor);
    }
}

/* ------------------------------------------------------------------ */
/* Incremental (delta) kernels                                         */
/* ------------------------------------------------------------------ */

/* One dense chain incumbent as the phase kernel reads it.  The Python
 * side packs one row of eight 64-bit words per chain (addresses, plus
 * the edge count); the aid the coverage rule does not use is NULL. */
typedef struct {
    const double *positions;         /* N*2 */
    const u8 *coverage;              /* M*N */
    const i64 *edge_rows;            /* E, one-way (i < j) edges */
    const i64 *edge_cols;            /* E */
    i64 n_edges;
    const i64 *client_ptr;           /* M+1 client-major CSR (GIANT_ONLY) */
    const i64 *client_hit;           /* covering router ids */
    const int32_t *coverage_counts;  /* M covering routers (ANY_ROUTER) */
} chain_state;

/* One candidate of a phase as the grouping pass sorts it: its chain
 * segment, its movers in ascending order, and its index. */
typedef struct {
    i64 segment;
    i64 n_movers;
    const i64 *movers;
    i64 candidate;
} phase_key;

/* Segment, then mover count, then movers: zero for one (chain, mover
 * set) group. */
static int compare_mover_sets(const phase_key *x, const phase_key *y) {
    if (x->segment != y->segment) {
        return x->segment < y->segment ? -1 : 1;
    }
    if (x->n_movers != y->n_movers) {
        return x->n_movers < y->n_movers ? -1 : 1;
    }
    for (i64 i = 0; i < x->n_movers; i++) {
        if (x->movers[i] != y->movers[i]) {
            return x->movers[i] < y->movers[i] ? -1 : 1;
        }
    }
    return 0;
}

/* Groups in order, each in candidate order. */
static int compare_phase_keys(const void *a, const void *b) {
    const phase_key *x = (const phase_key *)a;
    const phase_key *y = (const phase_key *)b;
    const int order = compare_mover_sets(x, y);
    if (order) {
        return order;
    }
    return (x->candidate > y->candidate) - (x->candidate < y->candidate);
}

/* A chain incumbent without one mover set: the base every candidate of
 * a (chain, mover set) group is measured from.  Scratch of one thread,
 * rebuilt per group. */
typedef struct {
    u8 *moved;             /* N */
    i64 *label;            /* N smallest-member labels; a mover keeps its id */
    i64 *size;             /* N component size by label (unmoved routers) */
    i64 *slot;             /* N a component's index, by label */
    i64 n_components;
    i64 n_links;           /* kept incumbent edges */
    /* The largest component, the smallest label on a tie (-1: none).
     * It is the only one that can be an untouched giant: a candidate
     * that touches it merges it into a larger group. */
    i64 largest;
    /* GIANT_ONLY: a W-word client bitmask per component, by slot, and
     * the largest component's popcount once read (-1 before). */
    uint64_t *masks;
    i64 largest_covered;
    /* ANY_ROUTER: the clients no unmoved router covers. */
    i64 covered;
    i64 *uncovered;
    i64 n_uncovered;
} phase_base;

/* Bits set in x; the builtin would be a library call without -mpopcnt. */
static inline i64 popcount64(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (i64)((x * 0x0101010101010101ULL) >> 56);
}

static i64 popcount_words(const uint64_t *words, i64 count) {
    i64 total = 0;
    for (i64 w = 0; w < count; w++) {
        total += popcount64(words[w]);
    }
    return total;
}

static void *phase_alloc(i64 count, size_t item) {
    return malloc((size_t)(count > 0 ? count : 1) * item);
}

/* Router i's W-word bitmask of the clients it covers in the incumbent
 * (GIANT_ONLY), from the client CSR. */
static void fill_router_masks(
    const chain_state *st, i64 n, i64 m, i64 words, uint64_t *router_masks
) {
    memset(router_masks, 0, (size_t)(n * words) * sizeof(uint64_t));
    for (i64 c = 0; c < m; c++) {
        const uint64_t bit = (uint64_t)1 << (c & 63);
        for (i64 h = st->client_ptr[c]; h < st->client_ptr[c + 1]; h++) {
            router_masks[st->client_hit[h] * words + (c >> 6)] |= bit;
        }
    }
}

static void build_phase_base(
    const chain_state *st, const uint64_t *router_masks,
    const i64 *movers, i64 n_movers,
    i64 n, i64 m, i64 words, i64 giant_only, phase_base *b
) {
    for (i64 i = 0; i < n; i++) {
        b->moved[i] = 0;
        b->label[i] = i;
        b->size[i] = 0;
    }
    for (i64 v = 0; v < n_movers; v++) {
        b->moved[movers[v]] = 1;
    }
    i64 links = 0;
    for (i64 e = 0; e < st->n_edges; e++) {
        const i64 x = st->edge_rows[e];
        const i64 y = st->edge_cols[e];
        if (!b->moved[x] && !b->moved[y]) {
            links++;
            uf_union(b->label, x, y);
        }
    }
    b->n_links = links;
    /* A root is its component's smallest member, so it is met first. */
    i64 n_components = 0;
    for (i64 i = 0; i < n; i++) {
        if (!b->moved[i]) {
            const i64 root = uf_find(b->label, i);
            b->label[i] = root;
            if (root == i) {
                b->slot[i] = n_components++;
            }
            b->size[root]++;
        }
    }
    b->n_components = n_components;
    b->largest = -1;
    i64 best = 0;
    for (i64 i = 0; i < n; i++) {
        if (b->size[i] > best) {
            best = b->size[i];
            b->largest = i;
        }
    }
    b->largest_covered = -1;
    if (m == 0) {
        b->covered = 0;
        b->n_uncovered = 0;
        return;
    }
    if (giant_only) {
        memset(b->masks, 0, (size_t)(n_components * words) * sizeof(uint64_t));
        for (i64 i = 0; i < n; i++) {
            if (!b->moved[i]) {
                uint64_t *row = b->masks + b->slot[b->label[i]] * words;
                const uint64_t *own = router_masks + i * words;
                for (i64 w = 0; w < words; w++) {
                    row[w] |= own[w];
                }
            }
        }
    } else {
        i64 covered = 0;
        i64 n_uncovered = 0;
        for (i64 c = 0; c < m; c++) {
            int32_t hits = st->coverage_counts[c];
            for (i64 v = 0; v < n_movers; v++) {
                hits -= (int32_t)st->coverage[c * n + movers[v]];
            }
            if (hits > 0) {
                covered++;
            } else {
                b->uncovered[n_uncovered++] = c;
            }
        }
        b->covered = covered;
        b->n_uncovered = n_uncovered;
    }
}

/* Whether any of the movers of pairs first..last-1 covers client c from
 * its new cell; with only_root >= 0, only the movers whose flattened
 * group (group[r]) is only_root count. */
static int movers_cover(
    i64 c, const double *clients, const i64 *pair_router,
    const double *pair_xy, i64 first, i64 last, const double *radii2,
    const i64 *group, i64 only_root
) {
    const double cx = clients[2 * c];
    const double cy = clients[2 * c + 1];
    for (i64 p = first; p < last; p++) {
        const i64 r = pair_router[p];
        if (only_root >= 0 && group[r] != only_root) {
            continue;
        }
        const double dx = pair_xy[2 * p] - cx;
        const double dy = pair_xy[2 * p + 1] - cy;
        if (dx * dx + dy * dy <= radii2[r]) {
            return 1;
        }
    }
    return 0;
}

/* Join the groups of touched labels a and b; the smaller root wins and
 * carries the summed size. */
static void join_groups(i64 *parent, i64 *total, i64 a, i64 b) {
    const i64 ra = uf_find(parent, a);
    const i64 rb = uf_find(parent, b);
    if (ra == rb) {
        return;
    }
    if (ra < rb) {
        parent[rb] = ra;
        total[ra] += total[rb];
    } else {
        parent[ra] = rb;
        total[rb] += total[ra];
    }
}

/* A whole dense-layout phase in one call: every candidate is its
 * chain's incumbent with the routers of its pairs moved.  A grouping
 * pass sorts each chain segment's candidates by mover set, and each
 * (chain, mover set) group builds one base: the incumbent without its
 * movers, as smallest-member labels over the kept edges, the count of
 * those edges, its largest component, and the coverage aid
 * (GIANT_ONLY: a client bitmask per component, ORed from per-router
 * masks of the client CSR; ANY_ROUTER: the clients no unmoved router
 * covers).  Per candidate there is no edge pass and no pass over every
 * client: only each mover's links to the unmoved routers and the
 * co-mover links are tested, and a smallest-root union-find over the
 * touched base labels merges them.  The giant is the largest merged
 * group or the base's largest component if untouched, the smaller
 * label on a tie.  Its covered clients are its components' bitmasks
 * ORed (an untouched giant's popcount is cached), plus the clients
 * left out that its movers cover from their new cells; under
 * ANY_ROUTER, the base count plus the uncovered clients any mover
 * covers.  The predicates are the numpy dense delta path's, operand
 * for operand, so every output equals a full measurement of the
 * candidate.  Groups run in parallel; a candidate's outputs depend on
 * nothing else, so thread count never changes them. */
void repro_measure_phase_dense(
    const chain_state *states,   /* S, one per chain segment */
    i64 n_segments,
    const i64 *segment_starts,   /* S+1 candidate offsets */
    const i64 *pair_candidate,   /* P, sorted */
    const i64 *pair_router,      /* P */
    const double *pair_xy,       /* P*2 new cells */
    i64 n_pairs,
    i64 n_routers,
    const double *range2,        /* N*N squared link ranges */
    i64 n_clients,
    const double *clients,       /* M*2 */
    const double *radii2,        /* N squared coverage radii */
    i64 giant_only,
    i64 *out,                    /* 4*K: giants, covered, components, links */
    u8 *giant_masks              /* K*N */
) {
    const i64 n = n_routers;
    const i64 m = n_clients;
    const i64 words = (m + 63) >> 6;
    const i64 k_total = segment_starts[n_segments];
    i64 *giant_sizes = out;
    i64 *covered = out + k_total;
    i64 *n_components = out + 2 * k_total;
    i64 *n_links = out + 3 * k_total;
    /* Candidate k's pairs are pair_first[k]..pair_first[k + 1] - 1. */
    i64 *pair_first = (i64 *)phase_alloc(k_total + 1, sizeof(i64));
    i64 *sorted_movers = (i64 *)phase_alloc(n_pairs, sizeof(i64));
    phase_key *keys = (phase_key *)phase_alloc(k_total, sizeof(phase_key));
    i64 *group_first = (i64 *)phase_alloc(k_total + 1, sizeof(i64));
    for (i64 k = 0; k <= k_total; k++) {
        pair_first[k] = 0;
    }
    for (i64 p = 0; p < n_pairs; p++) {
        pair_first[pair_candidate[p] + 1]++;
    }
    for (i64 k = 0; k < k_total; k++) {
        pair_first[k + 1] += pair_first[k];
    }
    for (i64 p = 0; p < n_pairs; p++) {
        /* Insertion sort of each candidate's movers. */
        const i64 r = pair_router[p];
        i64 q = p;
        while (q > pair_first[pair_candidate[p]] && sorted_movers[q - 1] > r) {
            sorted_movers[q] = sorted_movers[q - 1];
            q--;
        }
        sorted_movers[q] = r;
    }
    for (i64 s = 0; s < n_segments; s++) {
        for (i64 k = segment_starts[s]; k < segment_starts[s + 1]; k++) {
            keys[k].segment = s;
            keys[k].n_movers = pair_first[k + 1] - pair_first[k];
            keys[k].movers = sorted_movers + pair_first[k];
            keys[k].candidate = k;
        }
    }
    qsort(keys, (size_t)k_total, sizeof(phase_key), compare_phase_keys);
    i64 n_groups = 0;
    for (i64 g = 0; g < k_total; g++) {
        if (g == 0 || compare_mover_sets(&keys[g - 1], &keys[g])) {
            group_first[n_groups++] = g;
        }
    }
    group_first[n_groups] = k_total;
#ifdef _OPENMP
#pragma omp parallel if(k_total * n_routers >= STACK_PARALLEL_MIN_WORK)
#endif
    {
        phase_base base;
        base.moved = (u8 *)phase_alloc(n, 1);
        base.label = (i64 *)phase_alloc(n, sizeof(i64));
        base.size = (i64 *)phase_alloc(n, sizeof(i64));
        base.slot = (i64 *)phase_alloc(n, sizeof(i64));
        base.masks = NULL;
        /* GIANT_ONLY: the router masks of the last segment this thread
         * measured; groups come segment by segment. */
        uint64_t *router_masks = NULL;
        i64 masked_segment = -1;
        base.uncovered = NULL;
        base.covered = 0;
        base.n_uncovered = 0;
        if (giant_only) {
            base.masks = (uint64_t *)phase_alloc(n * words, sizeof(uint64_t));
            router_masks = (uint64_t *)phase_alloc(n * words, sizeof(uint64_t));
        } else {
            base.uncovered = (i64 *)phase_alloc(m, sizeof(i64));
        }
        /* Per candidate: the touched labels' union-find (indexed by
         * label; a mover is its own label), their group sizes, and a
         * stamp marking which labels this candidate touched. */
        i64 *group = (i64 *)phase_alloc(n, sizeof(i64));
        i64 *total = (i64 *)phase_alloc(n, sizeof(i64));
        i64 *stamp = (i64 *)phase_alloc(n, sizeof(i64));
        i64 *touched = (i64 *)phase_alloc(n, sizeof(i64));
        uint64_t *acc = (uint64_t *)phase_alloc(words, sizeof(uint64_t));
        for (i64 i = 0; i < n; i++) {
            stamp[i] = -1;
        }
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
        for (i64 g = 0; g < n_groups; g++) {
            const phase_key *head = &keys[group_first[g]];
            const chain_state *st = &states[head->segment];
            const double *pos = st->positions;
            if (giant_only && m > 0 && masked_segment != head->segment) {
                fill_router_masks(st, n, m, words, router_masks);
                masked_segment = head->segment;
            }
            build_phase_base(
                st, router_masks, head->movers, head->n_movers,
                n, m, words, giant_only, &base
            );
            for (i64 t = group_first[g]; t < group_first[g + 1]; t++) {
                const i64 k = keys[t].candidate;
                const i64 first = pair_first[k];
                const i64 last = pair_first[k + 1];
                /* The movers come first in touched; a router listed
                 * twice is entered once, so touched holds at most N. */
                i64 n_touched = 0;
                for (i64 p = first; p < last; p++) {
                    const i64 r = pair_router[p];
                    if (stamp[r] != k) {
                        stamp[r] = k;
                        group[r] = r;
                        total[r] = 1;
                        touched[n_touched++] = r;
                    }
                }
                const i64 n_movers = n_touched;
                i64 links = base.n_links;
                for (i64 p = first; p < last; p++) {
                    const i64 r = pair_router[p];
                    const double nx = pair_xy[2 * p];
                    const double ny = pair_xy[2 * p + 1];
                    const double *row2 = range2 + r * n;
                    for (i64 j = 0; j < n; j++) {
                        if (base.moved[j]) {
                            continue;
                        }
                        const double dx = nx - pos[2 * j];
                        const double dy = ny - pos[2 * j + 1];
                        if (dx * dx + dy * dy <= row2[j]) {
                            links++;
                            const i64 label = base.label[j];
                            if (stamp[label] != k) {
                                stamp[label] = k;
                                group[label] = label;
                                total[label] = base.size[label];
                                touched[n_touched++] = label;
                            }
                            join_groups(group, total, r, label);
                        }
                    }
                    for (i64 q = p + 1; q < last; q++) {
                        const double dx = nx - pair_xy[2 * q];
                        const double dy = ny - pair_xy[2 * q + 1];
                        if (dx * dx + dy * dy <= row2[pair_router[q]]) {
                            links++;
                            join_groups(group, total, r, pair_router[q]);
                        }
                    }
                }
                n_links[k] = links;
                /* Flatten, then the giant: the base's largest component
                 * if untouched against every merged group, the larger
                 * size winning and the smaller label on a tie. */
                i64 giant = -1;
                i64 best = 0;
                if (base.largest >= 0 && stamp[base.largest] != k) {
                    giant = base.largest;
                    best = base.size[giant];
                }
                i64 n_groups_k = 0;
                for (i64 u = 0; u < n_touched; u++) {
                    const i64 label = touched[u];
                    group[label] = uf_find(group, label);
                    if (group[label] == label) {
                        n_groups_k++;
                        if (total[label] > best
                            || (total[label] == best && label < giant)) {
                            giant = label;
                            best = total[label];
                        }
                    }
                }
                giant_sizes[k] = best;
                n_components[k] =
                    base.n_components - (n_touched - n_movers) + n_groups_k;
                const int merged = giant >= 0 && stamp[giant] == k;
                u8 *gmask = giant_masks + k * n;
                for (i64 i = 0; i < n; i++) {
                    i64 label = base.label[i];
                    if (stamp[label] == k) {
                        label = group[label];
                    }
                    gmask[i] = (u8)(label == giant);
                }
                i64 cov = 0;
                if (m > 0 && giant_only && giant >= 0) {
                    if (!merged) {
                        if (base.largest_covered < 0) {
                            base.largest_covered = popcount_words(
                                base.masks + base.slot[giant] * words, words
                            );
                        }
                        cov = base.largest_covered;
                    } else {
                        for (i64 w = 0; w < words; w++) {
                            acc[w] = 0;
                        }
                        for (i64 u = n_movers; u < n_touched; u++) {
                            const i64 label = touched[u];
                            if (group[label] == giant) {
                                const uint64_t *row =
                                    base.masks + base.slot[label] * words;
                                for (i64 w = 0; w < words; w++) {
                                    acc[w] |= row[w];
                                }
                            }
                        }
                        for (i64 w = 0; w < words; w++) {
                            cov += popcount64(acc[w]);
                            uint64_t rest = ~acc[w];
                            if (w == words - 1 && (m & 63)) {
                                rest &= ((uint64_t)1 << (m & 63)) - 1;
                            }
                            while (rest) {
                                const i64 c = (w << 6) + __builtin_ctzll(rest);
                                cov += movers_cover(
                                    c, clients, pair_router, pair_xy,
                                    first, last, radii2, group, giant
                                );
                                rest &= rest - 1;
                            }
                        }
                    }
                } else if (m > 0 && !giant_only) {
                    cov = base.covered;
                    for (i64 u = 0; u < base.n_uncovered; u++) {
                        cov += movers_cover(
                            base.uncovered[u], clients, pair_router, pair_xy,
                            first, last, radii2, group, -1
                        );
                    }
                }
                covered[k] = cov;
            }
        }
        free(base.moved);
        free(base.label);
        free(base.size);
        free(base.slot);
        free(base.masks);
        free(router_masks);
        free(base.uncovered);
        free(group);
        free(total);
        free(stamp);
        free(touched);
        free(acc);
    }
    free(pair_first);
    free(sorted_movers);
    free(keys);
    free(group_first);
}

/* Bin-pair candidate form of the fused link test: filter explicit
 * candidate pairs with the exact predicate (the sparse delta path's
 * link_hits).  Writes a keep mask instead of compacting so the caller's
 * numpy-side indexing semantics stay unchanged. */
void repro_filter_pairs(
    const double *positions,  /* N*2 */
    const i64 *rows, const i64 *cols, i64 n_pairs,
    const double *radii, i64 link_rule,
    u8 *keep
) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if(n_pairs >= PARALLEL_MIN_PAIRS)
#endif
    for (i64 p = 0; p < n_pairs; p++) {
        const i64 i = rows[p];
        const i64 j = cols[p];
        const double dx = positions[2 * i] - positions[2 * j];
        const double dy = positions[2 * i + 1] - positions[2 * j + 1];
        const double reach = link_reach(link_rule, radii[i], radii[j]);
        keep[p] = (u8)(dx * dx + dy * dy <= reach * reach);
    }
}

/* Upper-triangle one-way edge extraction from a dense u8 adjacency
 * matrix — the edge arrays of a fresh dense chain cache.  The caller sizes rows/cols from the matrix popcount (each
 * undirected link appears twice), so the fill is a single serial
 * byte scan in the same (row-major, i < j) order np.nonzero emits. */
void repro_dense_edges(
    const u8 *adjacency,  /* N*N */
    i64 n_routers,
    i64 *rows, i64 *cols  /* n_links each */
) {
    i64 w = 0;
    for (i64 i = 0; i < n_routers; i++) {
        const u8 *row = adjacency + i * n_routers;
        for (i64 j = i + 1; j < n_routers; j++) {
            if (row[j]) {
                rows[w] = i;
                cols[w] = j;
                w++;
            }
        }
    }
}

/* Advance one dense chain incumbent to an accepted placement, in place
 * (the numpy dense tier's StackedDeltaEngine._commit_dense is the
 * reference).  The movers are the routers whose cell differs from the
 * cached position.  Each mover, in ascending id order, takes its new
 * position, then rewrites its adjacency row and column against every
 * router's final position (a later mover's column write wins on a
 * mover-mover cell, as in the reference) and its coverage column, with
 * the per-client counts (ANY_ROUTER) following the column.  Then the
 * client-major CSR (GIANT_ONLY) is rebuilt in one pass over a copy of
 * its lists, each client's list being its kept routers merged with the
 * movers that now cover it, in ascending order (what
 * repro_client_csr_fill emits for the patched matrix); and the one-way
 * edge arrays keep, in order, every edge without a mover and then
 * append each mover's links from its final adjacency row, a mover-mover
 * link once.  The edge count in the state row follows.
 *
 * The edge and CSR arrays are buffers with room for edge_capacity and
 * hit_capacity entries.  Before anything is written the commit checks
 * the worst case (each mover linking every other router, covering every
 * client) against them and returns -2 when it could overflow, so the
 * caller grows the buffers and calls again.  Returns the number of
 * movers, or -1 when the scratch cannot be allocated (nothing written). */
i64 repro_commit_dense(
    i64 *state,              /* one chain_state row; its edge count is updated */
    u8 *adjacency,           /* N*N */
    i64 n_routers,
    const double *range2,    /* N*N squared link ranges */
    i64 n_clients,
    const double *clients,   /* M*2 */
    const double *radii2,    /* N squared coverage radii */
    i64 edge_capacity,
    i64 hit_capacity,
    const i32 *cells         /* N*2 accepted placement cells */
) {
    chain_state *st = (chain_state *)state;
    /* The state row's buffers are the caller's writable arrays. */
    double *pos = (double *)st->positions;
    u8 *coverage = (u8 *)st->coverage;
    i64 *edge_rows = (i64 *)st->edge_rows;
    i64 *edge_cols = (i64 *)st->edge_cols;
    i64 *client_ptr = (i64 *)st->client_ptr;
    i64 *client_hit = (i64 *)st->client_hit;
    int32_t *counts = (int32_t *)st->coverage_counts;
    const i64 n = n_routers;
    const i64 m = n_clients;
    i64 *movers = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    u8 *moved = (u8 *)calloc((size_t)(n > 0 ? n : 1), 1);
    if (movers == NULL || moved == NULL) {
        free(movers);
        free(moved);
        return -1;
    }
    i64 k = 0;
    for (i64 i = 0; i < n; i++) {
        if ((double)cells[2 * i] != pos[2 * i]
            || (double)cells[2 * i + 1] != pos[2 * i + 1]) {
            movers[k++] = i;
            moved[i] = 1;
        }
    }
    const int rebuild_csr = client_ptr != NULL && m > 0;
    i64 *old_ptr = NULL;
    i64 *old_hit = NULL;
    i64 status = k;
    if (k == 0) {
        goto done;
    }
    if (st->n_edges + k * (n - 1) > edge_capacity
        || (rebuild_csr && client_ptr[m] + k * m > hit_capacity)) {
        status = -2;
        goto done;
    }
    if (rebuild_csr) {
        old_ptr = (i64 *)malloc((size_t)(m + 1) * sizeof(i64));
        old_hit = (i64 *)malloc((size_t)(client_ptr[m] > 0 ? client_ptr[m] : 1) * sizeof(i64));
        if (old_ptr == NULL || old_hit == NULL) {
            status = -1;
            goto done;
        }
        memcpy(old_ptr, client_ptr, (size_t)(m + 1) * sizeof(i64));
        memcpy(old_hit, client_hit, (size_t)client_ptr[m] * sizeof(i64));
    }
    for (i64 t = 0; t < k; t++) {
        const i64 r = movers[t];
        pos[2 * r] = (double)cells[2 * r];
        pos[2 * r + 1] = (double)cells[2 * r + 1];
    }
    for (i64 t = 0; t < k; t++) {
        const i64 r = movers[t];
        const double x = pos[2 * r];
        const double y = pos[2 * r + 1];
        const double *row2 = range2 + r * n;
        for (i64 j = 0; j < n; j++) {
            const double dx = x - pos[2 * j];
            const double dy = y - pos[2 * j + 1];
            const u8 linked = (u8)(j != r && dx * dx + dy * dy <= row2[j]);
            adjacency[r * n + j] = linked;
            adjacency[j * n + r] = linked;
        }
        for (i64 i = 0; i < m; i++) {
            const double dx = clients[2 * i] - x;
            const double dy = clients[2 * i + 1] - y;
            const u8 hit = (u8)(dx * dx + dy * dy <= radii2[r]);
            if (counts != NULL) {
                counts[i] += (int32_t)hit - (int32_t)coverage[i * n + r];
            }
            coverage[i * n + r] = hit;
        }
    }
    if (rebuild_csr) {
        i64 w = 0;
        for (i64 c = 0; c < m; c++) {
            const u8 *row = coverage + c * n;
            i64 t = 0;
            client_ptr[c] = w;
            for (i64 s = old_ptr[c]; s < old_ptr[c + 1]; s++) {
                const i64 j = old_hit[s];
                if (moved[j]) {
                    continue;
                }
                for (; t < k && movers[t] < j; t++) {
                    if (row[movers[t]]) {
                        client_hit[w++] = movers[t];
                    }
                }
                client_hit[w++] = j;
            }
            for (; t < k; t++) {
                if (row[movers[t]]) {
                    client_hit[w++] = movers[t];
                }
            }
        }
        client_ptr[m] = w;
    }
    i64 e = 0;
    for (i64 s = 0; s < st->n_edges; s++) {
        if (!moved[edge_rows[s]] && !moved[edge_cols[s]]) {
            edge_rows[e] = edge_rows[s];
            edge_cols[e] = edge_cols[s];
            e++;
        }
    }
    for (i64 t = 0; t < k; t++) {
        const i64 r = movers[t];
        const u8 *row = adjacency + r * n;
        for (i64 j = 0; j < n; j++) {
            if (row[j] && (!moved[j] || j > r)) {
                edge_rows[e] = j < r ? j : r;
                edge_cols[e] = j < r ? r : j;
                e++;
            }
        }
    }
    st->n_edges = e;
done:
    free(old_ptr);
    free(old_hit);
    free(movers);
    free(moved);
    return status;
}

/* Client-major CSR fill from a dense u8 coverage matrix.  ptr already
 * holds the exclusive row offsets (cumsum of per-client hit counts),
 * so every client writes its own disjoint slice — ascending router
 * order, matching np.nonzero's row-major emission bit for bit. */
void repro_client_csr_fill(
    const u8 *coverage,  /* M*N */
    i64 n_clients, i64 n_routers,
    const i64 *ptr,      /* M+1 */
    i64 *hit             /* ptr[M] */
) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if(n_clients * n_routers >= CSR_PARALLEL_MIN_WORK)
#endif
    for (i64 c = 0; c < n_clients; c++) {
        i64 w = ptr[c];
        const u8 *row = coverage + c * n_routers;
        for (i64 j = 0; j < n_routers; j++) {
            if (row[j]) {
                hit[w++] = j;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Swap window pick table                                              */
/* ------------------------------------------------------------------ */

/* One pool's working copy of the window counts, blocked anchors set to
 * its sentinel (-1 densest, INT32_MAX sparsest: no count reaches it),
 * with the row-major first extreme of each row: its value (the
 * sentinel when the whole row is blocked) and column. */
typedef struct {
    int densest;
    int32_t sentinel;
    int32_t *work;     /* n_rows * n_cols */
    int32_t *value;    /* n_rows */
    i64 *column;       /* n_rows */
} window_pool;

static void rescan_row(const window_pool *pool, i64 n_cols, i64 r) {
    const int32_t *row = pool->work + r * n_cols;
    int32_t best = pool->sentinel;
    /* Branch-free reductions, then the first column holding the
     * extreme. */
    if (pool->densest) {
        for (i64 c = 0; c < n_cols; c++) {
            best = row[c] > best ? row[c] : best;
        }
    } else {
        for (i64 c = 0; c < n_cols; c++) {
            best = row[c] < best ? row[c] : best;
        }
    }
    i64 at = 0;
    while (row[at] != best) {
        at++;
    }
    pool->value[r] = best;
    pool->column[r] = at;
}

/* DensityMap.ranked_windows(pool, densest): greedy non-maximum
 * suppression over the pool's copy of the window counts.  Each pass
 * takes the row-major first extreme, then sets every anchor whose
 * window would overlap the pick to the sentinel, and the passes stop
 * early when the extreme is the sentinel (every anchor blocked).
 * Blocking only worsens a row, so a pass rescans only the rows whose
 * extreme it blocked.  Writes the (x0, y0) anchors and returns their
 * count. */
static i64 suppressed_pool(
    const window_pool *pool, i64 n_rows, i64 n_cols,
    i64 window_width, i64 window_height, i64 count, i64 *anchors
) {
    const int32_t *value = pool->value;
    i64 taken = 0;
    while (taken < count) {
        i64 y0 = 0;
        for (i64 r = 1; r < n_rows; r++) {
            if (pool->densest ? value[r] > value[y0] : value[r] < value[y0]) {
                y0 = r;
            }
        }
        if (value[y0] == pool->sentinel) {
            break;
        }
        const i64 x0 = pool->column[y0];
        anchors[2 * taken] = x0;
        anchors[2 * taken + 1] = y0;
        taken++;
        const i64 r0 = y0 - window_height + 1 > 0 ? y0 - window_height + 1 : 0;
        const i64 r1 = y0 + window_height < n_rows ? y0 + window_height : n_rows;
        const i64 c0 = x0 - window_width + 1 > 0 ? x0 - window_width + 1 : 0;
        const i64 c1 = x0 + window_width < n_cols ? x0 + window_width : n_cols;
        for (i64 r = r0; r < r1; r++) {
            int32_t *row = pool->work + r * n_cols;
            for (i64 c = c0; c < c1; c++) {
                row[c] = pool->sentinel;
            }
            if (pool->column[r] >= c0 && pool->column[r] < c1) {
                rescan_row(pool, n_cols, r);
            }
        }
    }
    return taken;
}

/* The strongest (max radius, then lowest id) or weakest (min radius,
 * then lowest id) router inside or outside the window; -1 for none. */
static i64 window_pick(
    const i32 *cells, i64 n_routers, const double *radii,
    const i64 *window, int inside, int strongest
) {
    i64 pick = -1;
    for (i64 i = 0; i < n_routers; i++) {
        const i64 x = cells[2 * i];
        const i64 y = cells[2 * i + 1];
        const int in = x >= window[0] && x < window[1] && y >= window[2] && y < window[3];
        if (in != inside) {
            continue;
        }
        if (pick < 0 || (strongest ? radii[i] > radii[pick] : radii[i] < radii[pick])) {
            pick = i;
        }
    }
    return pick;
}

/* One Swap incumbent's whole pick table (movements._SwapWindowState
 * .prepare on the DensityMap pools is the reference), the layout
 * repro_propose_rows reads.  The histogram of the density points
 * (`points`, then the router cells when `routers_dense`) becomes the
 * window counts by two sliding sums, down the columns and then along
 * each row (integer sums: the integral image's counts exactly), and the
 * dense and sparse pools are suppressed_pool passes over them.  Then,
 * per sparse window, its strongest router, and per dense window the
 * strongest router outside it (`relocate`) or its weakest router
 * (literal).  The table is n_dense, n_sparse, those picks and each
 * dense window's x0, x1, y0, y1: at most 2 + 6 * pool entries.  The
 * caller keeps the point count below INT32_MAX.  Returns the table's
 * length, -1 when the scratch cannot be allocated, or -(2 + i) when
 * density point i (the router cells counting after `points`) lies
 * outside the grid; nothing is written then. */
i64 repro_swap_window_table(
    i64 width, i64 height,
    i64 window_width, i64 window_height,
    const i64 *points, i64 n_points,   /* extra density points (x, y) */
    const i32 *cells, i64 n_routers,   /* incumbent router cells */
    i64 routers_dense,
    const double *radii,               /* N */
    i64 pool, i64 relocate,
    i64 *table                         /* 2 + 6 * pool */
) {
    const i64 n_cols = width - window_width + 1;
    const i64 n_rows = height - window_height + 1;
    const i64 n_anchors = n_rows * n_cols;
    for (i64 p = 0; p < n_points + (routers_dense ? n_routers : 0); p++) {
        const i64 x = p < n_points ? points[2 * p] : cells[2 * (p - n_points)];
        const i64 y = p < n_points ? points[2 * p + 1] : cells[2 * (p - n_points) + 1];
        if (x < 0 || x >= width || y < 0 || y >= height) {
            return -(2 + p);
        }
    }
    int32_t *histogram = (int32_t *)calloc((size_t)(width * height), sizeof(int32_t));
    int32_t *column_sums = (int32_t *)malloc((size_t)width * sizeof(int32_t));
    int32_t *work = (int32_t *)malloc((size_t)(2 * n_anchors) * sizeof(int32_t));
    int32_t *values = (int32_t *)malloc((size_t)(2 * n_rows) * sizeof(int32_t));
    i64 *columns = (i64 *)malloc((size_t)(2 * n_rows) * sizeof(i64));
    i64 *anchors = (i64 *)malloc((size_t)(4 * pool) * sizeof(i64));
    i64 status = 0;
    if (histogram == NULL || column_sums == NULL || work == NULL
        || values == NULL || columns == NULL || anchors == NULL) {
        status = -1;
        goto done;
    }
    for (i64 p = 0; p < n_points; p++) {
        histogram[points[2 * p + 1] * width + points[2 * p]]++;
    }
    for (i64 i = 0; routers_dense && i < n_routers; i++) {
        histogram[(i64)cells[2 * i + 1] * width + cells[2 * i]]++;
    }
    const window_pool pools[2] = {
        {1, -1, work, values, columns},
        {0, INT32_MAX, work + n_anchors, values + n_rows, columns + n_rows},
    };
    memset(column_sums, 0, (size_t)width * sizeof(int32_t));
    for (i64 y = 0; y < window_height; y++) {
        const int32_t *row = histogram + y * width;
        for (i64 x = 0; x < width; x++) {
            column_sums[x] += row[x];
        }
    }
    for (i64 r = 0; r < n_rows; r++) {
        if (r > 0) {
            const int32_t *leaving = histogram + (r - 1) * width;
            const int32_t *entering = histogram + (r - 1 + window_height) * width;
            for (i64 x = 0; x < width; x++) {
                column_sums[x] += entering[x] - leaving[x];
            }
        }
        int32_t *row = work + r * n_cols;
        int32_t sum = 0;
        for (i64 x = 0; x < window_width; x++) {
            sum += column_sums[x];
        }
        row[0] = sum;
        for (i64 c = 1; c < n_cols; c++) {
            sum += column_sums[c - 1 + window_width] - column_sums[c - 1];
            row[c] = sum;
        }
        memcpy(pools[1].work + r * n_cols, row, (size_t)n_cols * sizeof(int32_t));
        rescan_row(&pools[0], n_cols, r);
        rescan_row(&pools[1], n_cols, r);
    }
    i64 n_pool[2];
    for (int s = 0; s < 2; s++) {
        n_pool[s] = suppressed_pool(
            &pools[s], n_rows, n_cols, window_width, window_height,
            pool, anchors + 2 * pool * s
        );
    }
    const i64 n_dense = n_pool[0];
    const i64 n_sparse = n_pool[1];
    table[0] = n_dense;
    table[1] = n_sparse;
    i64 *strong_sparse = table + 2;
    i64 *dense_picks = strong_sparse + n_sparse;
    i64 *bounds = dense_picks + n_dense;
    for (i64 w = 0; w < n_dense + n_sparse; w++) {
        const i64 *anchor = w < n_dense ? anchors + 2 * w : anchors + 2 * (pool + w - n_dense);
        const i64 window[4] = {
            anchor[0], anchor[0] + window_width, anchor[1], anchor[1] + window_height,
        };
        if (w < n_dense) {
            memcpy(bounds + 4 * w, window, sizeof(window));
            dense_picks[w] = window_pick(
                cells, n_routers, radii, window, !relocate, (int)relocate
            );
        } else {
            strong_sparse[w - n_dense] = window_pick(
                cells, n_routers, radii, window, 1, 1
            );
        }
    }
    status = 2 + n_sparse + 5 * n_dense;
done:
    free(histogram);
    free(column_sums);
    free(work);
    free(values);
    free(columns);
    free(anchors);
    return status;
}

/* ------------------------------------------------------------------ */
/* Movement proposals on numpy's own bit generators                    */
/* ------------------------------------------------------------------ */

/* numpy's bitgen_t (numpy/random/bitgen.h), as
 * Generator.bit_generator.ctypes.bit_generator points at it: the bit
 * generator's state and its draw functions.  Drawing through them
 * advances the Python generator itself, whatever its algorithm, so no
 * state is read or written back. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Generator.integers(0, span) for 1 <= span <= 2**32: numpy's 32-bit
 * bounded path (buffered_bounded_lemire_uint32), Lemire's
 * multiply-shift rejecting while the low word is below
 * (2**32 - span) % span (arXiv:1805.10941).  A span of 1 draws
 * nothing; a span of 2**32 takes the raw word. */
static i64 bounded(bitgen_t *bitgen, i64 span) {
    if (span <= 1) {
        return 0;
    }
    if (span == ((i64)1 << 32)) {
        return (i64)bitgen->next_uint32(bitgen->state);
    }
    const uint32_t range = (uint32_t)span;
    uint64_t product = (uint64_t)bitgen->next_uint32(bitgen->state) * range;
    uint32_t leftover = (uint32_t)product;
    if (leftover < range) {
        const uint32_t threshold = (uint32_t)(UINT32_MAX - (range - 1)) % range;
        while (leftover < threshold) {
            product = (uint64_t)bitgen->next_uint32(bitgen->state) * range;
            leftover = (uint32_t)product;
        }
    }
    return (i64)(product >> 32);
}

/* Rejection attempts before free_index enumerates the free cells. */
#define FREE_CELL_ATTEMPTS 64

/* GridArea.random_free_index: a uniformly random free cell of the
 * row-major occupancy bitmap in [x0, x1) x [y0, y1) clipped to the
 * grid, as a flat index.  Up to 64 attempts of an x then a y draw,
 * then one pick among the window's free cells in row-major order.
 * -1 when the window is empty (no draw) or full. */
static i64 free_index(
    bitgen_t *bitgen, const u8 *bitmap, i64 width, i64 height,
    i64 x0, i64 y0, i64 x1, i64 y1
) {
    x0 = x0 > 0 ? x0 : 0;
    y0 = y0 > 0 ? y0 : 0;
    x1 = x1 < width ? x1 : width;
    y1 = y1 < height ? y1 : height;
    if (x1 <= x0 || y1 <= y0) {
        return -1;
    }
    for (int attempt = 0; attempt < FREE_CELL_ATTEMPTS; attempt++) {
        const i64 x = x0 + bounded(bitgen, x1 - x0);
        const i64 index = (y0 + bounded(bitgen, y1 - y0)) * width + x;
        if (!bitmap[index]) {
            return index;
        }
    }
    i64 n_free = 0;
    for (i64 y = y0; y < y1; y++) {
        for (i64 x = x0; x < x1; x++) {
            n_free += !bitmap[y * width + x];
        }
    }
    if (!n_free) {
        return -1;
    }
    i64 pick = bounded(bitgen, n_free);
    for (i64 y = y0; y < y1; y++) {
        for (i64 x = x0; x < x1; x++) {
            if (!bitmap[y * width + x] && pick-- == 0) {
                return y * width + x;
            }
        }
    }
    return -1;
}

/* Movement codes of repro_propose_rows (compiled.py PROPOSE_*). */
#define PROPOSE_RANDOM 0
#define PROPOSE_SWAP_RELOCATE 1
#define PROPOSE_SWAP_LITERAL 2

/* MoveBatch kinds. */
#define MOVE_NONE 0
#define MOVE_RELOCATE 1
#define MOVE_SWAP 2

static void move_row(i64 *row, i64 kind, i64 router, i64 partner, i64 x, i64 y) {
    row[0] = kind;
    row[1] = router;
    row[2] = partner;
    row[3] = x;
    row[4] = y;
}

/* `count` proposals per chain off its incumbent, in MoveBatch rows
 * (kind, router, partner, x, y), each chain drawing on its own
 * generator in row order exactly as the Python row samplers of
 * movements.py draw them.  Random: a router, then a free cell of the
 * grid.  Swap: a dense and a sparse window; literally, the dense
 * window's weakest router swaps with the sparse window's strongest
 * (both present and distinct); relocating, the sparse window's
 * strongest router (or, when it holds none, the strongest outside the
 * dense window) moves to a free cell of the dense window.
 *
 * A chain's Swap pick table (at picks + pick_starts[r]) holds n_dense,
 * n_sparse, the strongest router of each sparse window, per dense
 * window the strongest router outside it (relocating) or its weakest
 * router (literal), then each dense window's x0, x1, y0, y1; -1 marks
 * no router.  The occupancy bitmap of each incumbent is set and
 * cleared in one calloc scratch buffer.  Serial: the chains share the
 * scratch, and may share a generator.  Returns -2 when an incumbent
 * cell lies outside the grid and -1 when the scratch cannot be
 * allocated; nothing is drawn then. */
i64 repro_propose_rows(
    bitgen_t *const *bitgens,  /* R */
    i64 n_chains,
    i64 movement,
    i64 count,
    const i64 *cells,          /* R*N*2 incumbent cells (not literal) */
    i64 n_routers,
    const i64 *picks,          /* Swap pick tables, concatenated */
    const i64 *pick_starts,    /* R (Swap) */
    i64 width, i64 height,
    i64 *rows                  /* R*count*5 */
) {
    u8 *bitmap = NULL;
    if (movement != PROPOSE_SWAP_LITERAL) {
        for (i64 i = 0; i < n_chains * n_routers; i++) {
            const i64 x = cells[2 * i];
            const i64 y = cells[2 * i + 1];
            if (x < 0 || x >= width || y < 0 || y >= height) {
                return -2;
            }
        }
        bitmap = calloc((size_t)(width * height), 1);
        if (bitmap == NULL) {
            return -1;
        }
    }
    for (i64 r = 0; r < n_chains; r++) {
        bitgen_t *bitgen = bitgens[r];
        const i64 *chain_cells = bitmap != NULL ? cells + r * n_routers * 2 : NULL;
        i64 *out = rows + r * count * 5;
        for (i64 i = 0; chain_cells != NULL && i < n_routers; i++) {
            bitmap[chain_cells[2 * i + 1] * width + chain_cells[2 * i]] = 1;
        }
        if (movement == PROPOSE_RANDOM) {
            for (i64 k = 0; k < count; k++, out += 5) {
                const i64 router = bounded(bitgen, n_routers);
                const i64 index = free_index(
                    bitgen, bitmap, width, height, 0, 0, width, height
                );
                if (index < 0) {
                    move_row(out, MOVE_NONE, -1, -1, -1, -1);
                } else {
                    move_row(out, MOVE_RELOCATE, router, -1,
                             index % width, index / width);
                }
            }
        } else {
            const i64 *table = picks + pick_starts[r];
            const i64 n_dense = table[0];
            const i64 n_sparse = table[1];
            const i64 *strong_sparse = table + 2;
            const i64 *dense_picks = strong_sparse + n_sparse;
            const i64 *bounds = dense_picks + n_dense;
            for (i64 k = 0; k < count; k++, out += 5) {
                const i64 dense = bounded(bitgen, n_dense);
                const i64 strong = strong_sparse[bounded(bitgen, n_sparse)];
                if (movement == PROPOSE_SWAP_LITERAL) {
                    const i64 weak = dense_picks[dense];
                    if (weak < 0 || strong < 0 || weak == strong) {
                        move_row(out, MOVE_NONE, -1, -1, -1, -1);
                    } else {
                        move_row(out, MOVE_SWAP, weak, strong, -1, -1);
                    }
                    continue;
                }
                const i64 mover = strong >= 0 ? strong : dense_picks[dense];
                if (mover < 0) {
                    move_row(out, MOVE_NONE, -1, -1, -1, -1);
                    continue;
                }
                const i64 *box = bounds + 4 * dense;
                const i64 index = free_index(
                    bitgen, bitmap, width, height, box[0], box[2], box[1], box[3]
                );
                if (index < 0) {
                    move_row(out, MOVE_NONE, -1, -1, -1, -1);
                } else {
                    move_row(out, MOVE_RELOCATE, mover, -1,
                             index % width, index / width);
                }
            }
        }
        for (i64 i = 0; chain_cells != NULL && i < n_routers; i++) {
            bitmap[chain_cells[2 * i + 1] * width + chain_cells[2 * i]] = 0;
        }
    }
    free(bitmap);
    return 0;
}

/* GridArea.sample_distinct_cells: `count` free cells of the bitmap in
 * [x0, x1) x [y0, y1), each drawn as free_index draws it from the cells
 * still free and then marked taken.  The caller has checked that the
 * region holds `count` free cells. */
void repro_distinct_cells(
    bitgen_t *bitgen,
    u8 *bitmap,  /* width*height, updated */
    i64 width, i64 height,
    i64 x0, i64 y0, i64 x1, i64 y1,
    i64 count,
    i64 *picks   /* count flat indices */
) {
    for (i64 k = 0; k < count; k++) {
        const i64 index = free_index(bitgen, bitmap, width, height, x0, y0, x1, y1);
        picks[k] = index;
        if (index >= 0) {
            bitmap[index] = 1;
        }
    }
}

/* ------------------------------------------------------------------ */
/* A lockstep phase's move rows, validated                             */
/* ------------------------------------------------------------------ */

/* One slot of the open-addressing cell lookup: router `router` stands
 * on flat cell `key` of the chain whose stamp is `stamp` (0: empty). */
typedef struct {
    i64 stamp;
    i64 key;
    i64 router;
} cell_slot;

static inline i64 cell_slot_of(i64 key, int shift) {
    return (i64)(((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> shift);
}

/* _Phase.collect of multichain.py on a phase's concatenated MoveBatch
 * rows (kind, router, partner, x, y), chain-major: the first
 * row_counts[0] rows are chain slot 0's, off the incumbent cells
 * cells[0], and so on.  A row is kept when it applies to its chain's
 * incumbent: a relocation of a router id in [0, N) to a cell of the
 * grid that is free (1 mover) or the router's own (0 movers, the
 * incumbent), or a swap of two router ids in [0, N) (2 movers; 0 for a
 * self-swap).  Every other row is dropped: an unknown kind, an id or a
 * target out of range (each compared before any arithmetic, so any
 * int64 value is safe), or a relocation onto another router's cell
 * (stale).  The owner of a target cell comes from a per-chain
 * open-addressing table of the incumbent's flat cells, built the first
 * time the chain needs one and told apart from the previous chain's by
 * a stamp, so a phase costs O(K + R N) whatever the grid.
 *
 * Per kept row, in row order: the row itself, its mover count and its
 * chain id; per mover, the kept row's position, the router and its new
 * cell (a swap pair's routers take each other's cells, router first).
 * span_ends[s] is the kept count after slot s, and *n_pairs the pair
 * count.  Returns the kept count, -1 when the table cannot be
 * allocated, or -2 when an incumbent cell lies outside the grid.
 * Serial: the work is linear in the rows and the looked-up chains. */
i64 repro_collect_phase(
    const i64 *rows,           /* K*5, chain-major */
    const i64 *row_counts,     /* R */
    const i64 *chain_ids,      /* R */
    i64 n_chains,
    const i32 *cells,          /* R*N*2 incumbent cells */
    i64 n_routers,
    i64 width, i64 height,
    i64 *kept,                 /* K*5 kept rows */
    i64 *movers,               /* K */
    i64 *candidate_chain,      /* K */
    i64 *pair_candidate,       /* 2K */
    i64 *pair_router,          /* 2K */
    double *pair_xy,           /* 2K*2 */
    i64 *span_ends,            /* R */
    i64 *n_pairs
) {
    i64 capacity = 2;
    int shift = 63;
    while (capacity < 2 * n_routers) {
        capacity <<= 1;
        shift--;
    }
    const i64 probe_mask = capacity - 1;
    cell_slot *table = NULL;
    i64 n_kept = 0;
    i64 n_out = 0;
    i64 row = 0;
    i64 status = 0;
    for (i64 s = 0; s < n_chains; s++) {
        const i32 *chain_cells = cells + 2 * s * n_routers;
        const i64 stamp = s + 1;
        int indexed = 0;
        for (const i64 end = row + row_counts[s]; row < end; row++) {
            const i64 *move = rows + 5 * row;
            const i64 kind = move[0];
            const i64 router = move[1];
            const i64 partner = move[2];
            const i64 x = move[3];
            const i64 y = move[4];
            if (router < 0 || router >= n_routers) {
                continue;
            }
            i64 count;
            if (kind == MOVE_RELOCATE) {
                if (x < 0 || x >= width || y < 0 || y >= height) {
                    continue;
                }
                if (!indexed) {
                    if (table == NULL) {
                        table = (cell_slot *)calloc((size_t)capacity, sizeof(cell_slot));
                        if (table == NULL) {
                            status = -1;
                            goto done;
                        }
                    }
                    for (i64 i = 0; i < n_routers; i++) {
                        const i64 cx = chain_cells[2 * i];
                        const i64 cy = chain_cells[2 * i + 1];
                        if (cx < 0 || cx >= width || cy < 0 || cy >= height) {
                            status = -2;
                            goto done;
                        }
                        const i64 key = cy * width + cx;
                        i64 h = cell_slot_of(key, shift);
                        while (table[h].stamp == stamp && table[h].key != key) {
                            h = (h + 1) & probe_mask;
                        }
                        if (table[h].stamp != stamp) {
                            table[h].stamp = stamp;
                            table[h].key = key;
                            table[h].router = i;
                        }
                    }
                    indexed = 1;
                }
                const i64 key = y * width + x;
                i64 h = cell_slot_of(key, shift);
                i64 owner = -1;
                while (table[h].stamp == stamp) {
                    if (table[h].key == key) {
                        owner = table[h].router;
                        break;
                    }
                    h = (h + 1) & probe_mask;
                }
                if (owner >= 0 && owner != router) {
                    continue;  /* stale: another router holds the cell */
                }
                count = owner == router ? 0 : 1;
            } else if (kind == MOVE_SWAP) {
                if (partner < 0 || partner >= n_routers) {
                    continue;
                }
                count = router == partner ? 0 : 2;
            } else {
                continue;
            }
            memcpy(kept + 5 * n_kept, move, 5 * sizeof(i64));
            movers[n_kept] = count;
            candidate_chain[n_kept] = chain_ids[s];
            if (count == 1) {
                pair_candidate[n_out] = n_kept;
                pair_router[n_out] = router;
                pair_xy[2 * n_out] = (double)x;
                pair_xy[2 * n_out + 1] = (double)y;
                n_out++;
            } else if (count == 2) {
                const i32 *a = chain_cells + 2 * router;
                const i32 *b = chain_cells + 2 * partner;
                pair_candidate[n_out] = n_kept;
                pair_router[n_out] = router;
                pair_xy[2 * n_out] = (double)b[0];
                pair_xy[2 * n_out + 1] = (double)b[1];
                pair_candidate[n_out + 1] = n_kept;
                pair_router[n_out + 1] = partner;
                pair_xy[2 * n_out + 2] = (double)a[0];
                pair_xy[2 * n_out + 3] = (double)a[1];
                n_out += 2;
            }
            n_kept++;
        }
        span_ends[s] = n_kept;
    }
    *n_pairs = n_out;
    status = n_kept;
done:
    free(table);
    return status;
}

/* ------------------------------------------------------------------ */
/* One GA generation on the run's generator                            */
/* ------------------------------------------------------------------ */

/* Mutation operator codes of repro_ga_generation (compiled.py MUTATE_*). */
#define MUTATE_JIGGLE 0
#define MUTATE_TOWARD_CENTROID 1
#define MUTATE_RESET 2

/* Generator.uniform(low, high): low + (high - low) * next_double.
 * Generator.uniform() and Generator.random() are next_double itself. */
static double uniform(bitgen_t *bitgen, double low, double high) {
    return low + (high - low) * bitgen->next_double(bitgen->state);
}

/* Scratch of one generation.  The bitmap is all clear between
 * operators: each operator marks the row it works on and clears the
 * row it leaves, so no call pays for a width*height reset. */
typedef struct {
    bitgen_t *bitgen;
    i64 width, height, n_routers;
    u8 *bitmap;     /* width*height occupancy */
    i64 *ring;      /* 8*max(width, height) nudge candidates */
    u8 *chosen;     /* n_routers, Floyd's set of ResetMutation */
    i64 *victims;   /* n_routers, ResetMutation's picks */
} ga_scratch;

static void mark_row(ga_scratch *s, const i32 *row, u8 value) {
    for (i64 i = 0; i < s->n_routers; i++) {
        s->bitmap[(i64)row[2 * i + 1] * s->width + row[2 * i]] = value;
    }
}

static void set_cell(i32 *row, i64 router, i64 index, i64 width) {
    row[2 * router] = (i32)(index % width);
    row[2 * router + 1] = (i32)(index / width);
}

/* TournamentSelection.select: `size` bounded picks, the first of the
 * fittest winning ties. */
static i64 tournament(bitgen_t *bitgen, const double *fitness, i64 n_parents, i64 size) {
    i64 best = bounded(bitgen, n_parents);
    for (i64 k = 1; k < size; k++) {
        const i64 index = bounded(bitgen, n_parents);
        if (fitness[index] > fitness[best]) {
            best = index;
        }
    }
    return best;
}

/* resolve_collisions: the row's cells placed in order, each through
 * nudge_to_free.  A free cell stays and draws nothing; a taken one moves
 * to a uniform pick among the free in-grid cells of the nearest
 * Chebyshev ring holding one, listed as nudge_to_free lists them (per
 * dx the bottom then the top edge, then per dy the left then the right
 * edge).  -1 when the grid has no free cell left. */
static int resolve_row(ga_scratch *s, i32 *row) {
    const i64 width = s->width, height = s->height;
    const i64 limit = width > height ? width : height;
    for (i64 i = 0; i < s->n_routers; i++) {
        const i64 x = row[2 * i], y = row[2 * i + 1];
        i64 index = y * width + x;
        if (s->bitmap[index]) {
            index = -1;
            for (i64 r = 1; r <= limit && index < 0; r++) {
                i64 count = 0;
#define RING_CELL(cx, cy)                                                   \
    do {                                                                    \
        const i64 rx = (cx), ry = (cy);                                     \
        if (rx >= 0 && rx < width && ry >= 0 && ry < height                 \
            && !s->bitmap[ry * width + rx]) {                               \
            s->ring[count++] = ry * width + rx;                             \
        }                                                                   \
    } while (0)
                for (i64 dx = -r; dx <= r; dx++) {
                    RING_CELL(x + dx, y - r);
                    RING_CELL(x + dx, y + r);
                }
                for (i64 dy = -r + 1; dy < r; dy++) {
                    RING_CELL(x - r, y + dy);
                    RING_CELL(x + r, y + dy);
                }
#undef RING_CELL
                if (count) {
                    index = s->ring[bounded(s->bitgen, count)];
                }
            }
            if (index < 0) {
                return -1;
            }
            set_cell(row, i, index, width);
        }
        s->bitmap[index] = 1;
    }
    return 0;
}

/* JiggleMutation: per router a coin against the per-gene rate, then a
 * free cell within `radius` (or staying put when the window is full).
 * The bitmap is marked at the first moving router. */
static void jiggle(ga_scratch *s, i32 *row, i64 radius, double rate) {
    const i64 width = s->width;
    int marked = 0;
    for (i64 i = 0; i < s->n_routers; i++) {
        if (s->bitgen->next_double(s->bitgen->state) >= rate) {
            continue;
        }
        if (!marked) {
            mark_row(s, row, 1);
            marked = 1;
        }
        const i64 x = row[2 * i], y = row[2 * i + 1];
        const i64 current = y * width + x;
        s->bitmap[current] = 0;
        i64 target = free_index(
            s->bitgen, s->bitmap, width, s->height,
            x - radius, y - radius, x + radius + 1, y + radius + 1
        );
        if (target < 0) {
            target = current;
        }
        s->bitmap[target] = 1;
        set_cell(row, i, target, width);
    }
    if (marked) {
        mark_row(s, row, 0);
    }
}

/* TowardCentroidMutation: a router, a step fraction and the x then y
 * jitter; the rounded (half to even, as Python's round) and clamped
 * target, or a free cell of the 5x5 window around it when another
 * router holds it.  The integer coordinate sums are exact in float64,
 * so the centroid is numpy's mean. */
static void toward_centroid(ga_scratch *s, i32 *row, i64 jitter, double max_step) {
    const i64 n = s->n_routers, width = s->width, height = s->height;
    double sum_x = 0.0, sum_y = 0.0;
    for (i64 i = 0; i < n; i++) {
        sum_x += row[2 * i];
        sum_y += row[2 * i + 1];
    }
    const double centroid_x = sum_x / (double)n;
    const double centroid_y = sum_y / (double)n;
    const i64 router = bounded(s->bitgen, n);
    const i64 current_x = row[2 * router], current_y = row[2 * router + 1];
    const double fraction = uniform(s->bitgen, 0.0, max_step);
    double target_x = current_x + fraction * (centroid_x - current_x);
    double target_y = current_y + fraction * (centroid_y - current_y);
    if (jitter) {
        target_x += (double)(bounded(s->bitgen, 2 * jitter + 1) - jitter);
        target_y += (double)(bounded(s->bitgen, 2 * jitter + 1) - jitter);
    }
    target_x = rint(target_x);
    target_y = rint(target_y);
    i64 x = target_x < 0.0 ? 0 : target_x > (double)(width - 1) ? width - 1 : (i64)target_x;
    i64 y = target_y < 0.0 ? 0 : target_y > (double)(height - 1) ? height - 1 : (i64)target_y;
    if (x == current_x && y == current_y) {
        return;
    }
    int taken = 0;
    for (i64 i = 0; i < n && !taken; i++) {
        taken = row[2 * i] == x && row[2 * i + 1] == y;
    }
    if (taken) {
        mark_row(s, row, 1);
        s->bitmap[current_y * width + current_x] = 0;
        const i64 target = free_index(
            s->bitgen, s->bitmap, width, height, x - 2, y - 2, x + 3, y + 3
        );
        mark_row(s, row, 0);
        if (target < 0) {
            return;
        }
        x = target % width;
        y = target / width;
    }
    row[2 * router] = (i32)x;
    row[2 * router + 1] = (i32)y;
}

/* ResetMutation: Generator.choice(n, min(count, n), replace=False) by
 * numpy's Floyd algorithm and Fisher-Yates shuffle of the picks (the
 * caller keeps numpy's tail-shuffle case on the Python path), then per
 * victim a free cell of the whole grid. */
static void reset(ga_scratch *s, i32 *row, i64 count) {
    const i64 n = s->n_routers, width = s->width;
    const i64 k = count < n ? count : n;
    for (i64 j = n - k; j < n; j++) {
        i64 pick = bounded(s->bitgen, j + 1);
        if (s->chosen[pick]) {
            pick = j;
        }
        s->chosen[pick] = 1;
        s->victims[j - (n - k)] = pick;
    }
    for (i64 i = k - 1; i > 0; i--) {
        const i64 j = bounded(s->bitgen, i + 1);
        const i64 swap = s->victims[i];
        s->victims[i] = s->victims[j];
        s->victims[j] = swap;
    }
    for (i64 i = 0; i < k; i++) {
        s->chosen[s->victims[i]] = 0;
    }
    mark_row(s, row, 1);
    for (i64 i = 0; i < k; i++) {
        const i64 victim = s->victims[i];
        const i64 current = (i64)row[2 * victim + 1] * width + row[2 * victim];
        s->bitmap[current] = 0;
        i64 target = free_index(
            s->bitgen, s->bitmap, width, s->height, 0, 0, width, s->height
        );
        if (target < 0) {
            target = current;  /* unreachable: the victim's cell is free */
        }
        s->bitmap[target] = 1;
        set_cell(row, victim, target, width);
    }
    mark_row(s, row, 0);
}

/* GeneticAlgorithm._next_generation from the parents' cells and
 * fitness, for the operators TournamentSelection,
 * RegionExchangeCrossover and Jiggle, TowardCentroid or Reset alone
 * (op_cdf NULL) or mixed by a CompositeMutation (op_cdf its cumulative
 * table).  Fills slots n_elites..P-1: source[slot] is the parent copied
 * unchanged there (its row copied too), or -1 for a new row.  The draws
 * are the Python operators' draws, in their order, on the run's one
 * generator:
 *
 *   per pair of slots
 *     select_pair: `tournament_size` bounded picks for parent a, then b
 *     the crossover coin (one double against crossover_rate)
 *     on crossover: _random_region's width and height uniforms, then
 *       its x0 and y0 bounded draws; resolve_collisions' nudges for
 *       child 1, then for child 2 (both, even when only one slot is
 *       left)
 *     per child placed: the mutation coin (one double against
 *       mutation_rate); on mutation the CompositeMutation pick (one
 *       double bisected in op_cdf), then the operator's draws:
 *         Jiggle: per router a coin, per moving router free_index
 *         TowardCentroid: a router, the step fraction, the x and y
 *           jitter (none when jitter is 0), free_index on a collision
 *         Reset: Floyd's picks and their shuffle, then per victim
 *           free_index
 *
 * Returns -2 when a parent cell lies outside the grid (nothing drawn),
 * -3 when a nudge finds the grid full and -1 when the scratch cannot be
 * allocated. */
i64 repro_ga_generation(
    bitgen_t *bitgen,
    const i32 *parents,        /* P*N*2 */
    const double *fitness,     /* P */
    i64 n_parents, i64 n_routers,
    i64 width, i64 height,
    i64 n_elites, i64 tournament_size,
    double crossover_rate, double mutation_rate,
    double min_fraction, double max_fraction,
    i64 n_ops,
    const i64 *op_kinds,       /* n_ops MUTATE_* */
    const i64 *op_ints,        /* radius, jitter or count */
    const double *op_reals,    /* per-gene rate or max step fraction */
    const double *op_cdf,      /* n_ops, or NULL */
    i64 *source,               /* P */
    i32 *children              /* P*N*2 */
) {
    const i64 row_size = 2 * n_routers;
    for (i64 i = 0; i < n_parents * n_routers; i++) {
        const i64 x = parents[2 * i], y = parents[2 * i + 1];
        if (x < 0 || x >= width || y < 0 || y >= height) {
            return -2;
        }
    }
    const i64 limit = width > height ? width : height;
    ga_scratch s = {bitgen, width, height, n_routers, NULL, NULL, NULL, NULL};
    s.bitmap = calloc((size_t)(width * height), 1);
    s.ring = malloc(sizeof(i64) * (size_t)(8 * limit));
    s.chosen = calloc((size_t)n_routers, 1);
    s.victims = malloc(sizeof(i64) * (size_t)n_routers);
    i32 *pair = malloc(sizeof(i32) * (size_t)(2 * row_size));
    i64 status = 0;
    if (!s.bitmap || !s.ring || !s.chosen || !s.victims || !pair) {
        status = -1;
        goto done;
    }
    for (i64 slot = n_elites; slot < n_parents;) {
        const i64 parent_a = tournament(bitgen, fitness, n_parents, tournament_size);
        const i64 parent_b = tournament(bitgen, fitness, n_parents, tournament_size);
        const i32 *row_a = parents + parent_a * row_size;
        const i32 *row_b = parents + parent_b * row_size;
        const int crossed = bitgen->next_double(bitgen->state) < crossover_rate;
        if (crossed) {
            i64 w = (i64)(uniform(bitgen, min_fraction, max_fraction) * (double)width);
            i64 h = (i64)(uniform(bitgen, min_fraction, max_fraction) * (double)height);
            w = w > 1 ? w : 1;
            h = h > 1 ? h : 1;
            const i64 x0 = bounded(bitgen, width - w + 1);
            const i64 y0 = bounded(bitgen, height - h + 1);
            /* Child 1 keeps a's routers inside the region, child 2 b's. */
            for (int c = 0; c < 2; c++) {
                const i32 *keep = c ? row_b : row_a;
                const i32 *other = c ? row_a : row_b;
                i32 *child = pair + c * row_size;
                for (i64 i = 0; i < n_routers; i++) {
                    const i64 x = keep[2 * i], y = keep[2 * i + 1];
                    const int inside = x >= x0 && x < x0 + w && y >= y0 && y < y0 + h;
                    const i32 *from = inside ? keep : other;
                    child[2 * i] = from[2 * i];
                    child[2 * i + 1] = from[2 * i + 1];
                }
            }
            for (int c = 0; c < 2; c++) {
                i32 *child = pair + c * row_size;
                const int full = resolve_row(&s, child);
                mark_row(&s, child, 0);
                if (full) {
                    status = -3;
                    goto done;
                }
            }
        }
        for (int c = 0; c < 2 && slot < n_parents; c++, slot++) {
            const i64 parent = c ? parent_b : parent_a;
            i32 *row = children + slot * row_size;
            memcpy(row, crossed ? pair + c * row_size : parents + parent * row_size,
                   sizeof(i32) * (size_t)row_size);
            source[slot] = crossed ? -1 : parent;
            if (bitgen->next_double(bitgen->state) >= mutation_rate) {
                continue;
            }
            source[slot] = -1;
            i64 op = 0;
            if (op_cdf != NULL) {
                const double u = bitgen->next_double(bitgen->state);
                while (op < n_ops - 1 && op_cdf[op] <= u) {
                    op++;
                }
            }
            if (op_kinds[op] == MUTATE_JIGGLE) {
                jiggle(&s, row, op_ints[op], op_reals[op]);
            } else if (op_kinds[op] == MUTATE_TOWARD_CENTROID) {
                toward_centroid(&s, row, op_ints[op], op_reals[op]);
            } else {
                reset(&s, row, op_ints[op]);
            }
        }
    }
done:
    free(s.bitmap);
    free(s.ring);
    free(s.chosen);
    free(s.victims);
    free(pair);
    return status;
}

/* ------------------------------------------------------------------ */
/* GA population diversity                                             */
/* ------------------------------------------------------------------ */

/* numpy's pairwise float64 sum (what add.reduce runs along a contiguous
 * axis): a plain loop below 8 items, eight interleaved accumulators up
 * to 128, and above that two halves split at a multiple of 8. */
static double pairwise_sum(const double *a, i64 n) {
    if (n < 8) {
        double res = -0.0;
        for (i64 i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) {
            r[j] = a[j];
        }
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                r[j] += a[i + j];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    i64 half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* stack_diversity of repro/genetic/population.py for a (P, N, 2) cell
 * stack, in its summation order: per pair (i, j > i) the pairwise sum
 * of the N router distances divided by N, per first index i the
 * pairwise sum of its pairs' means, those row sums added in order, and
 * the total divided by the pair count.  Squared distances are int32
 * while no coordinate exceeds 32767 and int64 above, wrapping as
 * numpy's do, then converted to float64.  Returns -1 when the scratch
 * cannot be allocated. */
double repro_stack_diversity(const i32 *cells, i64 n_members, i64 n_routers) {
    if (n_members < 2) {
        return 0.0;
    }
    const i64 row_size = 2 * n_routers;
    i32 top = cells[0];
    for (i64 i = 1; i < n_members * row_size; i++) {
        top = cells[i] > top ? cells[i] : top;
    }
    const int wide = top > 32767;
    double *distances = malloc(sizeof(double) * (size_t)(n_routers + n_members));
    if (!distances) {
        return -1.0;
    }
    double *means = distances + n_routers;
    double total = 0.0;
    for (i64 i = 0; i < n_members - 1; i++) {
        const i32 *a = cells + i * row_size;
        for (i64 j = i + 1; j < n_members; j++) {
            const i32 *b = cells + j * row_size;
            for (i64 r = 0; r < n_routers; r++) {
                double squared;
                if (wide) {
                    const uint64_t dx = (uint64_t)(i64)b[2 * r] - (uint64_t)(i64)a[2 * r];
                    const uint64_t dy = (uint64_t)(i64)b[2 * r + 1] - (uint64_t)(i64)a[2 * r + 1];
                    squared = (double)(i64)(dx * dx + dy * dy);
                } else {
                    const uint32_t dx = (uint32_t)b[2 * r] - (uint32_t)a[2 * r];
                    const uint32_t dy = (uint32_t)b[2 * r + 1] - (uint32_t)a[2 * r + 1];
                    squared = (double)(i32)(dx * dx + dy * dy);
                }
                distances[r] = sqrt(squared);
            }
            means[j - i - 1] = pairwise_sum(distances, n_routers) / (double)n_routers;
        }
        total += pairwise_sum(means, n_members - 1 - i);
    }
    free(distances);
    return total / (double)(n_members * (n_members - 1) / 2);
}
