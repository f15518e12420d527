#pragma once

/// \file router.hpp
/// Shared result type and options for the four routers built on the merge
/// engine:
///
///  * `route_zst_dme`       — classic zero-skew DME over all sinks
///                            (greedy-DME flavour; groups ignored);
///  * `route_ext_bst`       — greedy bounded-skew tree with a *global*
///                            bound over all sinks: the paper's EXT-BST
///                            baseline (10 ps in the tables);
///  * `route_ast_dme`       — the paper's contribution: per-group skew
///                            constraints only (zero by default, bounded
///                            via skew_spec), full cross-group freedom;
///  * `route_separate_stitch` — the prior work's strategy [12]: a separate
///                            zero-skew tree per group, stitched together
///                            afterwards (the strawman of Fig. 2).
///
/// All four are thin wrappers over the routing-service layer (strategy.hpp:
/// `routing_request` → `route()`, which switches on the strategy id);
/// batch execution and state sharing live in route_service.hpp /
/// route_context.hpp (DESIGN.md §6-§7).

#include "core/embedder.hpp"
#include "core/engine.hpp"
#include "core/merge_solver.hpp"
#include "topo/instance.hpp"
#include "topo/tree.hpp"

#include <string>

namespace astclk::core {

/// Rung of the graceful-degradation ladder (DESIGN.md §10) a degraded
/// result was produced under.  The numbered rungs trade fidelity for
/// wall-clock in order; `salvaged` marks partial-result recovery of an
/// interrupted sharded reduce rather than a ladder rerun.
enum class degrade_rung : int {
    none = 0,
    coarse_shards = 1,    ///< rung 1: finer auto-shard partition (coarser
                          ///< solution: more stitch seams, less fidelity)
    greedy_fallback = 2,  ///< rung 2: greedy BST under the spec's tightest
                          ///< bound (collapse-groups EXT-BST route)
    salvaged = 3,         ///< completed shard sub-trees recovered, the rest
                          ///< greedily completed, then stitched
};

[[nodiscard]] constexpr const char* to_string(degrade_rung r) noexcept {
    switch (r) {
        case degrade_rung::none: return "none";
        case degrade_rung::coarse_shards: return "coarse_shards";
        case degrade_rung::greedy_fallback: return "greedy_fallback";
        case degrade_rung::salvaged: return "salvaged";
    }
    return "?";
}

/// Why and how a degraded result was produced (route_result.degradation;
/// rung == none on full-fidelity results).
struct degradation_report {
    degrade_rung rung = degrade_rung::none;
    std::string reason;       ///< what pushed the run down the ladder
    int salvaged_shards = 0;  ///< completed sub-trees recovered (salvage)
    int greedy_shards = 0;    ///< unfinished shards completed greedily
    bool verified = false;    ///< independent Elmore re-verification passed
};

struct route_result {
    /// Terminal disposition (executor.hpp): `ok` and `degraded` carry a
    /// valid tree (`degraded` under a stepped-down configuration — see
    /// `degradation`); any other status means the tree below is
    /// empty/partial and must not be consumed.  Replaces the former bare
    /// error-string signaling — callers branch on the kind instead of
    /// string-matching.
    route_status status = route_status::ok;
    /// Human detail for non-ok statuses ("cancelled", "deadline exceeded",
    /// or the exception message of an errored request); empty when ok.
    std::string status_message;
    topo::clock_tree tree;
    engine_stats stats;
    embed_report embed;
    double wirelength = 0.0;   ///< total electrical wirelength (paper metric)
    /// Wall time of the strategy body, measured uniformly by the service
    /// dispatch (strategy.hpp route()) for direct and batched calls alike.
    double cpu_seconds = 0.0;
    /// Executor concurrency available to the run (1 = sequential).
    int threads_used = 1;
    /// Service attempt that produced this result (1 = first try; >1 means
    /// earlier attempts hit retryable faults and were re-enqueued).
    int attempts = 1;
    /// Shard count the run actually resolved to (1 = monolithic), recording
    /// the automatic choice (`engine.shards == 0`) so any run can be
    /// reproduced by pinning `engine.shards` to this value.
    int resolved_shards = 0;
    /// Degradation ladder bookkeeping; `degradation.rung == none` unless
    /// `status == degraded`.
    degradation_report degradation;

    [[nodiscard]] bool ok() const { return status == route_status::ok; }
    /// True when the tree is valid and consumable: full-fidelity `ok` or a
    /// verified `degraded` result (see `degradation`).
    [[nodiscard]] bool usable() const {
        return status == route_status::ok || status == route_status::degraded;
    }
};

/// Strategy for AST-DME (see DESIGN.md §5):
///  * `windowed` — the paper's literal algorithm (Fig. 6 cases): per-merge
///    feasibility windows, interior snaking for conflicts (Eqs. 5.1-5.3),
///    infeasible pairs rejected.  Exploits inter-group freedom merge by
///    merge; rare irreparable endgame conflicts surface as violations.
///  * `soft_ledger` — windows plus the offset ledger as *intent*: merges
///    follow the globally consistent offset when it is free and drift only
///    in lieu of snake wire, which concentrates (and mostly eliminates)
///    conflicts.
///  * `exact_ledger` — globally consistent inter-group offsets throughout:
///    zero intra-group skew guaranteed, conflicts impossible, but free
///    offsets commit early (conservative wirelength).
///  * `automatic` — one run: `exact_ledger` when every bound is zero,
///    `soft_ledger` otherwise (the exact ledger needs degenerate delay
///    intervals).  There is no rerun.
enum class ast_mode {
    automatic,
    windowed,
    soft_ledger,
    exact_ledger,
};

struct router_options {
    /// The delay model of the route: every strategy plans with it, and the
    /// service re-verifies degraded trees under it.
    rc::delay_model model = rc::delay_model::elmore();
    /// Engine knobs, forwarded to every reduce run of the route: merge
    /// order, true-cost re-keying, sharding (`engine.shards`, DESIGN.md
    /// §4) and the nearest-neighbour backend (`engine.backend` — grid by
    /// default, `nn_backend::linear` for the exact-scan verification
    /// backend).  The backend moves wall-clock only; trees are identical
    /// under either setting.  How plans are solved is not a knob: every
    /// merge is planned by `merge_solver::plan`.
    engine_options engine;
};

/// Zero-skew tree over all sinks, groups ignored.
route_result route_zst_dme(const topo::instance& inst,
                           const router_options& opt = {});

/// Bounded-skew tree over all sinks with a single global bound (seconds);
/// `route_ext_bst(inst, 10e-12)` reproduces the paper's baseline rows.
route_result route_ext_bst(const topo::instance& inst, double global_bound,
                           const router_options& opt = {});

/// AST-DME with per-group bounds (default: zero intra-group skew).
/// `mode` selects the conflict strategy; `exact_ledger` requires an
/// all-zero spec and falls back to `soft_ledger` otherwise.
route_result route_ast_dme(const topo::instance& inst,
                           const skew_spec& spec = skew_spec::zero(),
                           const router_options& opt = {},
                           ast_mode mode = ast_mode::automatic);

/// Separate zero-skew tree per group, then greedy stitching of the group
/// roots (no inter-group constraints during stitching).
route_result route_separate_stitch(const topo::instance& inst,
                                   const router_options& opt = {});

}  // namespace astclk::core
