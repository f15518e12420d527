#pragma once

/// \file engine.hpp
/// The bottom-up merging engine shared by every router (Fig. 6 skeleton):
///
///     1. initialise the active set with the given roots
///     2. while more than one root remains:
///          pick the cheapest pair, solve its merge, commit it
///     3. return the last root
///
/// Pair selection follows the paper's minimum-merging-cost scheme with two
/// optional enhancements from Ch. V-F:
///   * lazy true-cost re-keying — pairs popped by the distance lower bound
///     are re-inserted with their full plan cost (snake wire included) when
///     it exceeds the next candidate's key;
///   * Edahiro-style multi-merge rounds — all *mutually* nearest pairs are
///     merged per round, cutting nearest-neighbour recomputations.
///
/// The hot path is sub-quadratic by construction:
///   * nearest-neighbour queries go through a uniform spatial grid over the
///     arc boxes (grid_index; ring expansion with the arc-distance lower
///     bound over the packed-arc SoA kernels), with the exact linear scan
///     (nn_index) selectable as a verification backend via
///     `engine_options::backend`; a root that takes part in no banned pair
///     queries with no ban probe at all;
///   * ledger-free plan solves go through the SoA batch kernels
///     (plan_kernels.hpp, DESIGN.md §11), which bounce the rare
///     general-path lane to `merge_solver::plan`; ledger-backed solvers
///     call `plan()` directly;
///   * the cheapest pair is popped from a global lazy-deletion min-heap
///     keyed by the distance lower bound (re-keyed with cached true plan
///     cost); per-node generation counters invalidate stale entries instead
///     of rescanning the active set; both the selection and radius heaps
///     are 4-ary implicit heaps over reusable scratch vectors
///     (dary_heap.hpp) — same pop order as the former binary heaps, half
///     the sift depth;
///   * after each commit only the affected neighbourhoods are touched:
///     roots whose nearest neighbour was one of the merged pair (tracked by
///     reverse-NN lists) are recomputed, and the new root is folded into
///     roots within the current nearest-neighbour influence radius — no
///     global recompute, in the forced-merge path included.
///
/// The nearest-pair reduction additionally supports a *speculative
/// pipeline* (DESIGN.md §3): each selection step drains the top-k live
/// heap candidates, fans their plan() calls out over the executor before
/// the pop, and memoises the results in a generation-stamped plan cache
/// (merge_solver.hpp) so the subsequent pops commit from cached plans.
/// Results are bit-identical to the sequential engine by construction —
/// speculation only ever pre-computes plans the inline path would compute
/// itself, and a stale stamp falls back to an inline solve.
///
/// Pairs whose merge is infeasible (irreconcilable multi-group conflicts,
/// Ch. V-E) are banned and re-proposed only if nothing else remains, in
/// which case a forced minimax merge keeps the algorithm total.

#include "core/executor.hpp"
#include "core/grid_index.hpp"
#include "core/merge_solver.hpp"
#include "core/nn_index.hpp"
#include "core/plan_kernels.hpp"
#include "topo/tree.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace astclk::core {

/// Pair-selection strategy (Ch. V-A and V-F).
enum class merge_order {
    nearest_pair,     ///< one minimum-key pair per step (greedy-DME style)
    multi_merge,      ///< all mutually nearest pairs per round (V-F.1)
};

/// Nearest-neighbour backend.  Both return bit-identical answers (same
/// deterministic id tie-breaks); `linear` is the exact-by-construction
/// reference kept for verification and ablation.
enum class nn_backend {
    grid,    ///< uniform spatial grid, ring expansion (sub-quadratic)
    linear,  ///< tuned linear scan (the seed implementation)
};

struct engine_options {
    merge_order order = merge_order::nearest_pair;
    /// Re-key popped pairs with their true plan cost before committing;
    /// disabling reverts to pure arc-distance ordering (ablation knob).
    bool true_cost_ordering = true;
    nn_backend backend = nn_backend::grid;
    /// Optional worker pool for multi-merge rounds (non-owning; null runs
    /// sequentially).  Each round's nearest-neighbour queries fan out, and
    /// so do the plan() calls when the solver carries no offset ledger
    /// (ledger modes serialise planning because plans read offsets that
    /// earlier commits of the same round bind).  The commit step is always
    /// sequential, so trees are bit-identical to single-threaded runs.
    task_executor* executor = nullptr;
    /// Speculative top-k planning for the nearest-pair order: each
    /// selection step peeks the k cheapest live heap candidates and fans
    /// their plan() calls out over `executor` before the pop, keyed by
    /// (pair, gen[a], gen[b]) in the plan cache; pops then commit from the
    /// memoised plans, falling back to an inline solve on a stale stamp.
    /// 0 disables speculation.  Only active with an executor of
    /// concurrency > 1, a ledger-free solver (ledger-backed plans read
    /// offsets that commits bind) and `plan_cache` on; trees and the
    /// merge/rejection/forced statistics are bit-identical either way —
    /// the knob moves wall-clock plus the cache/speculation counters
    /// below, nothing else.
    int speculate_k = 0;
    /// Cross-step plan cache: memoise solved plans stamped with both
    /// roots' selection generations, so re-keyed survivors commit from the
    /// memo instead of being re-solved (and speculative results have a
    /// place to land).  Entries are dropped at their pair's commit or ban,
    /// so the memo tracks in-flight work, not total merges.  Disabled
    /// internally for ledger-backed solvers.  Trees and merge statistics
    /// are bit-identical on or off; hit/miss counters land in
    /// engine_stats.
    bool plan_cache = true;
    /// Sharded reduction (DESIGN.md §4): split the initial roots into
    /// spatial shards, sub-reduce each independently (fanned over
    /// `executor` when present), then stitch the shard roots with the
    /// phase-2 associative machinery.  1 (the default) keeps the
    /// monolithic single-front reduce bit-identical to previous releases;
    /// K >= 2 forces exactly K shards; 0 picks an automatic count from the
    /// population and the executor concurrency (auto_shard_count,
    /// shard.hpp).  Only the strategy-level drivers honour this knob —
    /// `bottom_up_engine::reduce` itself always runs one front — and it is
    /// ignored (monolithic) for ledger-backed solvers, whose offset state
    /// cannot be split across independent sub-reductions.
    int shards = 1;
    /// Cooperative cancellation (deadline and/or cancel flag): polled at
    /// merge-round granularity — once per nearest-pair selection step and
    /// once per multi-merge round — so a fired token interrupts the reduce
    /// within one round (a route_interrupt carrying the status unwinds to
    /// the strategy dispatch).  The default token never fires; an unarmed
    /// run does no clock reads.  Checkpoints are *named* fault sites
    /// (executor.hpp fault_site): a fault_plan attached to the token can
    /// fire typed faults at deterministic checkpoint indexes.
    cancel_token cancel;
    /// Partial-result salvage (DESIGN.md §10): when a deadline or fault
    /// interrupts the sharded reduction mid-fan-out, recover the completed
    /// shard sub-trees, complete the unfinished shards with a cheap greedy
    /// configuration, and stitch — returning a valid tree tagged
    /// route_status::degraded instead of discarding all work.  Only the
    /// sharded driver honors it; an explicit cancel() always discards.
    bool salvage = false;
};

struct engine_stats {
    int merges = 0;
    int disjoint_merges = 0;      ///< case 2: no shared group
    int shared_merges = 0;        ///< cases 1 and 3: >= 1 shared group
    int multi_shared_merges = 0;  ///< case 4: >= 2 shared groups
    int root_snakes = 0;          ///< merges embedded with root-edge snaking
    int interior_snakes = 0;      ///< Eq. 5.2-style interior repairs
    double snake_wire = 0.0;      ///< total wire spent beyond arc distances
    int rejected_pairs = 0;       ///< plans refused as infeasible
    int forced_merges = 0;        ///< minimax fallbacks (should stay 0)
    double worst_violation = 0.0; ///< residual skew excess of forced merges
    int rounds = 0;               ///< multi-merge rounds (if enabled)
    // Plan-cache / speculation accounting (nearest-pair order only; all
    // zero when the cache is off or the solver carries a ledger).
    int plan_cache_hits = 0;      ///< selections served from the memo
    int plan_cache_misses = 0;    ///< selections that solved inline
    int speculated_plans = 0;     ///< plans dispatched ahead of selection
    int speculative_hits = 0;     ///< speculated plans later consumed
    int wasted_speculation = 0;   ///< speculated plans never consumed
    // Plan-kernel accounting (DESIGN.md §11; ledger-free solvers only, all
    // zero for ledger-backed ones, which plan() directly).  They describe
    // *how* plans were solved, not what was solved.
    int batch_planned = 0;     ///< plans solved by the SoA fast path
    int kernel_fallbacks = 0;  ///< lanes bounced to the scalar solver
    /// Sub-reductions of the sharded path (0 = monolithic reduce).  Set by
    /// the shard driver, which folds every shard's counters into one stats
    /// block with `accumulate` — each shard writes its own block, so the
    /// sums are exact even when a cancellation unwinds mid-shard.
    int shards = 0;

    /// Fold another stats block into this one (per-shard bookkeeping of
    /// the sharded reduction; every additive counter sums, the violation
    /// maximum maximises).  `shards` sums too: sub-shard counts nest.
    void accumulate(const engine_stats& o) {
        merges += o.merges;
        disjoint_merges += o.disjoint_merges;
        shared_merges += o.shared_merges;
        multi_shared_merges += o.multi_shared_merges;
        root_snakes += o.root_snakes;
        interior_snakes += o.interior_snakes;
        snake_wire += o.snake_wire;
        rejected_pairs += o.rejected_pairs;
        forced_merges += o.forced_merges;
        worst_violation = std::max(worst_violation, o.worst_violation);
        rounds += o.rounds;
        plan_cache_hits += o.plan_cache_hits;
        plan_cache_misses += o.plan_cache_misses;
        speculated_plans += o.speculated_plans;
        speculative_hits += o.speculative_hits;
        wasted_speculation += o.wasted_speculation;
        batch_planned += o.batch_planned;
        kernel_fallbacks += o.kernel_fallbacks;
        shards += o.shards;
    }
};

/// Size lock for the accumulate() fold (the C++ half of the tools/lint.py
/// stats-fold rule): adding an engine_stats field changes sizeof and trips
/// this assert, which stays tripped until the new field is folded into
/// accumulate() above — lint.py cross-checks the field list against the
/// fold — and the expected size here is updated.  Counters must never be
/// able to dodge the shard/service accounting silently.
static_assert(sizeof(engine_stats) == 88,
              "engine_stats changed: fold the new field in accumulate(), "
              "add it to the tools/lint.py field list check, then update "
              "this size lock");

/// Thrown by an engine checkpoint that observes a fired cancel token; the
/// strategy dispatch (strategy.cpp route()) converts it into a
/// route_result with the carried status.  The partial tree dies with the
/// unwind, but the stats accumulated so far ride along — a cancelled
/// request still reports how much work it burned.  Deriving from
/// std::runtime_error keeps legacy engine users safe if it ever escapes
/// uncaught.
class route_interrupt : public std::runtime_error {
  public:
    route_interrupt(route_status s, const engine_stats& st)
        : std::runtime_error(status_message_for(s)), status_(s), stats_(st) {}
    [[nodiscard]] route_status status() const noexcept { return status_; }
    [[nodiscard]] const engine_stats& stats() const noexcept {
        return stats_;
    }

  private:
    route_status status_;
    engine_stats stats_;
};

/// Reusable buffers for the engine's selection state (NN records, reverse
/// lists, heaps).  One reduce run fully reinitialises whatever it borrows,
/// so reuse never changes results — it only skips the per-run allocations.
/// Not thread-safe: one scratch serves one engine run at a time (the
/// routing_context hands out one per concurrent request).
class engine_scratch {
  public:
    engine_scratch();
    ~engine_scratch();
    engine_scratch(engine_scratch&&) noexcept;
    engine_scratch& operator=(engine_scratch&&) noexcept;

    struct impl;
    [[nodiscard]] impl& state() { return *p_; }

  private:
    std::unique_ptr<impl> p_;
};

/// Merges a set of existing roots down to a single root.
class bottom_up_engine {
  public:
    bottom_up_engine(merge_solver solver, engine_options opt = {})
        : solver_(std::move(solver)), opt_(opt) {}

    [[nodiscard]] const merge_solver& solver() const { return solver_; }

    /// Repeatedly merge until one root remains; returns it.  `roots` must
    /// be non-empty and refer to live roots of `t`.  `scratch`, when given,
    /// lends its buffers to the run (identical results, fewer allocations).
    topo::node_id reduce(topo::clock_tree& t, std::vector<topo::node_id> roots,
                         engine_stats* stats = nullptr,
                         engine_scratch* scratch = nullptr) const;

  private:
    merge_solver solver_;
    engine_options opt_;
};

}  // namespace astclk::core
