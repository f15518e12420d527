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
///   * lazy true-cost re-keying — pairs selected by the distance lower
///     bound are re-keyed with their full plan cost (snake wire included)
///     when it exceeds the bound;
///   * Edahiro-style multi-merge rounds — all *mutually* nearest pairs are
///     merged per round, cutting nearest-neighbour recomputations.
///
/// The hot path is sub-quadratic by construction:
///   * nearest-neighbour queries go through a uniform spatial grid over the
///     arc boxes (grid_index; ring expansion with the arc-distance lower
///     bound over the packed-arc distance kernels, DESIGN.md §11), with the
///     exact linear scan (nn_index) selectable as a verification backend
///     via `engine_options::backend`; a root that takes part in no banned
///     pair queries with no ban probe at all;
///   * every selected pair is solved by `merge_solver::plan`, the one
///     merge-plan solver;
///   * every root with a partner keeps one nearest-neighbour record (its
///     nearest unbanned partner) and one entry in each of two addressable
///     4-ary heaps (dary_heap.hpp) that a record change updates or erases
///     in place: the selection heap, keyed by the distance lower bound
///     (or the pair's cached true plan cost) with (key, a, b) order, whose
///     top is the cheapest pair, and the influence-radius heap, whose top
///     is the largest record distance.  Neither heap ever holds a stale
///     entry, so selection reads the top and the radius is one load;
///   * a rejected pair is exact to repair: the selected pair (a, b) was
///     a's record, the lexicographic minimum (distance, id) over a's
///     unbanned candidates, so after banning it every candidate at or
///     below that record is banned and a's new partner lies strictly
///     above it.  a's query takes the record as a floor and skips those
///     candidates without a ban probe; b's record is recomputed the same
///     way only if it named a, and otherwise stays, because the ban
///     removed a candidate that was not b's minimum;
///   * after each commit only the affected neighbourhoods are touched:
///     roots whose nearest neighbour was one of the merged pair (tracked by
///     reverse-NN lists) are recomputed, and the new root is folded into
///     roots within the current nearest-neighbour influence radius — no
///     global recompute, in the forced-merge path included.
///
/// The nearest-pair reduction is one sequential loop — select, solve, then
/// commit, ban or re-key — because the greedy merge order makes every
/// selection depend on the previous commit.  A re-keyed pair keeps only its
/// true cost (pair_cost_cache) and is solved again if it is selected a
/// second time (DESIGN.md §3).
///
/// Pairs whose merge is infeasible (irreconcilable multi-group conflicts,
/// Ch. V-E) are banned and re-proposed only if nothing else remains, in
/// which case a forced minimax merge keeps the algorithm total.

#include "core/executor.hpp"
#include "core/grid_index.hpp"
#include "core/merge_solver.hpp"
#include "core/nn_index.hpp"
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
    /// Optional worker pool (non-owning; null runs sequentially).  It
    /// drives three things: multi-merge rounds, whose nearest-neighbour
    /// queries fan out, and so do the plan() calls when the solver carries
    /// no offset ledger (ledger modes serialise planning because plans
    /// read offsets that earlier commits of the same round bind); the
    /// sharded reduction's sub-reduce fan-out (`shards`); and the automatic
    /// shard count (`shards == 0`), which grows with its concurrency.
    /// Commits are always sequential, so for a fixed shard count trees are
    /// bit-identical to single-threaded runs.
    task_executor* executor = nullptr;
    /// Ignored: nothing reads it.  Kept only because
    /// benchmark/astbench.cpp still assigns it.
    int speculate_k = 0;
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
    // Nothing writes these two; they are kept only because
    // benchmark/astbench.cpp:860 reads them.
    int batch_planned = 0;
    int kernel_fallbacks = 0;
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
static_assert(sizeof(engine_stats) == 64,
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
