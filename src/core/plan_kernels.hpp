#pragma once

/// \file plan_kernels.hpp
/// Batched structure-of-arrays kernels for the merge-plan hot path
/// (DESIGN.md §11).
///
/// After the selection, service and sharding layers went sub-quadratic,
/// the per-pair `plan()` solve and the nearest-neighbour distance scans
/// dominate the profile — and both are already *dispatched in batches*
/// (speculative top-k fan-out, multi-merge round planning, grid ring
/// expansion), which is exactly the shape data-parallel kernels want.
/// This layer solves 4-8 independent merge plans per call from one
/// instruction stream:
///
///  1. **Distance lower bounds** (`batch_arc_nearest`,
///     `batch_arc_for_each`): the tilted-space L-infinity gap of many
///     candidate arc boxes against one query box, over a cache-dense
///     `packed_arc` mirror (32 bytes per arc vs the ~200-byte `tree_node`
///     stride) — the grid backend's ring expansion and post-commit
///     fold-in.
///  2. **Skew-feasibility / window checks**: the per-group delay windows
///     of each lane intersected by an allocation-free two-pointer walk
///     over both sorted delay maps (same ascending order, same
///     intersection sequence as the scalar `shared_with` +
///     `compute_window` pair).
///  3. **Arc-box merges**: the TRR expand + intersect of every lane's
///     merging segment as plain SoA interval arithmetic.
///
/// The split search between (2) and (3) — closed-form `split_for_target`
/// bracketing plus the 80-iteration ternary search of the balance
/// heuristic — runs masked: every lane computes each iteration, updates
/// are gated on that lane's own `(te - ts) > eps` condition, so a
/// converged lane freezes exactly where the scalar early-exit would have
/// left it.
///
/// **Bit-identity contract.**  For every lane the fast path evaluates the
/// *same* floating-point expressions, in the same order, as
/// `merge_solver::plan` (the interval/tilted_rect/delay_model primitives
/// are inline header functions, and the solver constants live in
/// solver_detail.hpp, so both paths compile the same arithmetic).  The
/// fast path engages only when the lane's first window intersection is
/// non-empty in `windowed` mode — precisely the case where the scalar
/// solver breaks out of its conflict loop without touching the working
/// state, so reading the node delay maps in place (no copies) is exact.
/// Every other lane — unsatisfiable windows (interior-snake repair or
/// rejection), ledger-backed modes — falls back to the scalar `plan()`
/// verbatim.  The engine dispatches every ledger-free solve through this
/// layer and every ledger-backed one straight to `plan()`; the counters
/// `engine_stats::batch_planned` and `kernel_fallbacks` book which path
/// solved each lane.  `plan()` stays the oracle the kernel tests compare
/// against (tests/test_plan_kernels.cpp).
///
/// The loops are plain portable SoA code — no intrinsics; the
/// autovectorizer does what the target allows (see the `ASTCLK_NATIVE`
/// CMake option for `-march=native` builds).

#include "core/merge_solver.hpp"
#include "core/nn_index.hpp"
#include "topo/tree.hpp"

#include <cstddef>
#include <optional>
#include <utility>

namespace astclk::core {

/// The dispatch grain of the batch layer: callers (the engine's
/// speculative drain, the shard planner) hand work to the executor in
/// chunks of this many plans.  Eight double lanes fill two AVX2 (or one
/// AVX-512) vector registers; the remainder loop handles short batches
/// exactly.
inline constexpr std::size_t kplan_lanes = 8;

/// How many plans one solve chunk carries internally — four dispatch
/// grains fused through the masked ternary search.  Once the ternary's
/// conditional updates are branch-free selects the loop is bound by the
/// latency of each lane's serial iteration chain (the division in the
/// two probe points), not by mispredicts, and eight chains leave most
/// of the pipeline idle; 32 independent chains cover the chain latency.
/// Purely a throughput knob: lane math never reads across lanes, so any
/// grouping of the same pairs yields bit-identical plans.
inline constexpr std::size_t kplan_width = 4 * kplan_lanes;

/// Cache-dense mirror of one arc box: the four tilted-space endpoints and
/// nothing else.  An array of these indexed by node id gives the distance
/// kernel a 32-byte gather stride instead of pulling whole tree_nodes
/// (delay maps included) through the cache per candidate.
struct packed_arc {
    double u_lo = 0.0, u_hi = 0.0, v_lo = 0.0, v_hi = 0.0;

    static packed_arc of(const geom::tilted_rect& r) {
        return {r.u().lo, r.u().hi, r.v().lo, r.v().hi};
    }
};

/// Kernel 1 for the ring expansion's argmin: the tilted-space gap of `n`
/// candidate arcs (gathered from `arcs` by id) against the query box `q`,
/// folded straight into the running lexicographic-min `(best_d, best)`.
///
/// The per-axis gap is computed branchlessly as
/// `max(0, max(o.lo - hi, lo - o.hi))`, which is bit-identical to the
/// branchy `interval::gap` for every pair of non-empty intervals: when
/// the intervals overlap both differences are <= 0 and the result is
/// +0.0 (max(+0.0, -x) picks the first operand), and when they are
/// disjoint exactly one difference is positive and equals the branchy
/// result.  The gap is symmetric in the same way (the two branches swap),
/// so query-vs-candidate and candidate-vs-query orientations agree
/// bitwise.
///
/// `center` is skipped (a query never partners itself) and `banned` is
/// consulted only for candidates that would improve the running best — a
/// banned candidate never updates the best either way, so this computes
/// exactly the min of a check-every-candidate scan.  The min over a
/// candidate multiset is visit-order independent, so callers may present
/// candidates in any order (the slab cells do).
template <class Banned>
inline void batch_arc_nearest(const packed_arc* arcs,
                              const topo::node_id* ids, std::size_t n,
                              const packed_arc& q, topo::node_id center,
                              Banned banned, topo::node_id& best,
                              double& best_d) {
    const double qul = q.u_lo, quh = q.u_hi;
    const double qvl = q.v_lo, qvh = q.v_hi;
    for (std::size_t k = 0; k < n; ++k) {
        const topo::node_id other = ids[k];
        if (other == center) continue;
        const packed_arc& a = arcs[static_cast<std::size_t>(other)];
        const double gu =
            std::max(0.0, std::max(a.u_lo - quh, qul - a.u_hi));
        const double gv =
            std::max(0.0, std::max(a.v_lo - qvh, qvl - a.v_hi));
        const double d = std::max(gu, gv);
        if (d < best_d || (d == best_d && other < best)) {
            if (banned(pair_key(center, other))) continue;
            best_d = d;
            best = other;
        }
    }
}

/// Kernel 1 for the post-commit fold-in: the same gap per candidate,
/// handed to `fn(id, d)` in candidate order.
template <class Fn>
inline void batch_arc_for_each(const packed_arc* arcs,
                               const topo::node_id* ids, std::size_t n,
                               const packed_arc& q, Fn fn) {
    const double qul = q.u_lo, quh = q.u_hi;
    const double qvl = q.v_lo, qvh = q.v_hi;
    for (std::size_t k = 0; k < n; ++k) {
        const packed_arc& a = arcs[static_cast<std::size_t>(ids[k])];
        const double gu =
            std::max(0.0, std::max(a.u_lo - quh, qul - a.u_hi));
        const double gv =
            std::max(0.0, std::max(a.v_lo - qvh, qvl - a.v_hi));
        fn(ids[k], std::max(gu, gv));
    }
}

/// Kernels 2+3: solve the `n` merge plans `pairs[i] = (a, b)` (alpha
/// oriented to `a`, exactly like `solver.plan(t, a, b)`) in chunks of
/// `kplan_lanes`, writing each result — possibly nullopt for a rejected
/// pair — into `out[i]`.  Lanes whose merge needs the general machinery
/// (non-`windowed` solver modes, or a first window intersection that is
/// empty and so needs interior-snake repair / rejection) are bounced to
/// the scalar `solver.plan` verbatim; the return value is the number of
/// such fallback lanes (engine_stats::kernel_fallbacks).
///
/// Lane math is fully per-plan independent — no cross-lane reads — so a
/// batch of n is bit-identical to n scalar solves regardless of how the
/// caller groups the pairs into batches.
int solve_plan_batch(const merge_solver& solver, const topo::clock_tree& t,
                     const std::pair<topo::node_id, topo::node_id>* pairs,
                     std::size_t n, std::optional<merge_plan>* out);

}  // namespace astclk::core
