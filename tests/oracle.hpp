#pragma once

// Definition-level oracles for the engine's nearest-neighbour decisions.
//
// The engine answers every query through one index (grid_index) and keeps
// its merge order incrementally (records, two heaps, bans, rejection
// floors, the post-commit fold-in).  The oracles below restate both by
// their definitions instead: they read arcs straight from the tree,
// compare them with `tilted_rect::distance`, and use nothing of the grid
// walk or of engine.cpp — only the active set (whose slot order *is* the
// engine's tie-break) and the merge solver.  They are quadratic
// (scan_nearest) and cubic (reference_reduce) on purpose, so keep
// reference_reduce to a few hundred sinks.
//
//  * scan_nearest: the lexicographic minimum (distance, id) over every
//    other active root above a floor that the ban set does not hold;
//  * reference_reduce: the nearest-pair merge order of Ch. V-A/V-E as
//    stated — every step rescans every root's nearest unbanned partner,
//    takes the cheapest key (the first root in slot order on a tie), and
//    bans, re-keys or commits that pair; when no root has a partner it
//    force-merges the globally nearest pair.

#include "core/grid_index.hpp"
#include "core/merge_solver.hpp"
#include "core/router_detail.hpp"
#include "core/strategy.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace astclk::core::oracle {

using bans_t = std::unordered_set<std::uint64_t>;

/// Nearest partner of `id` among `active` by arc distance: the
/// lexicographic minimum (distance, id) over every other active root
/// strictly above the floor (spelled out here, not through
/// nn_floor::admits) that the ban set does not hold.  The ban set is
/// probed last, only for a candidate that would become the minimum — a
/// filter evaluated lazily, which keeps the cubic reference_reduce
/// affordable.
inline std::optional<std::pair<topo::node_id, double>> scan_nearest(
    const topo::clock_tree& t, const std::vector<topo::node_id>& active,
    topo::node_id id, const bans_t& bans = {}, nn_floor floor = {}) {
    const geom::tilted_rect& arc = t.node(id).arc;
    std::optional<std::pair<topo::node_id, double>> best;
    for (const topo::node_id j : active) {
        if (j == id) continue;
        const double d = arc.distance(t.node(j).arc);
        if (d < floor.d || (d == floor.d && j <= floor.id)) continue;
        if (best &&
            (d > best->second || (d == best->second && j > best->first)))
            continue;
        if (bans.count(pair_key(id, j)) == 0) best = std::make_pair(j, d);
    }
    return best;
}

/// Route `req` (ZST-DME, EXT-BST or AST-DME, monolithic, nearest-pair
/// order) with the merge order applied literally.  Leaves and the solver
/// are built as the strategy layer builds them, so ledgers evolve
/// identically, and the active set replays the engine's erase a, erase b,
/// insert c, so slots do too.  The result carries the embedded tree, its
/// wirelength and the merges, rejected pairs, forced merges and snake
/// wire the engine reports.
inline route_result reference_reduce(const routing_request& req) {
    const topo::instance& inst = *req.instance;
    // The request -> (spec, consistency mode, leaf collapse) table of the
    // strategy layer (strategy.cpp).
    const bool collapse = req.strategy != strategy_id::ast_dme;
    skew_spec spec = req.spec;
    consistency_mode mode = consistency_mode::windowed;
    if (req.strategy == strategy_id::zst_dme) {
        spec = skew_spec::zero();
    } else if (req.strategy == strategy_id::ext_bst) {
        spec = skew_spec::uniform(req.spec.default_bound);
    } else if (req.mode != ast_mode::windowed) {
        const bool all_zero =
            spec.default_bound == 0.0 &&
            std::all_of(spec.overrides.begin(), spec.overrides.end(),
                        [](const auto& o) { return o.second == 0.0; });
        mode = req.mode == ast_mode::automatic && all_zero
                   ? consistency_mode::exact
                   : consistency_mode::soft;
    }
    offset_ledger ledger(inst.num_groups);
    const merge_solver solver(
        req.options.model, std::move(spec),
        mode == consistency_mode::windowed ? nullptr : &ledger, mode);

    topo::clock_tree t;
    active_set act;
    for (const topo::node_id leaf : detail::make_leaves(inst, t, collapse))
        act.insert(leaf);
    bans_t bans;
    std::unordered_map<std::uint64_t, double> rekeyed;  // pair -> true cost
    route_result res;
    engine_stats& st = res.stats;
    const auto merge = [&](topo::node_id a, topo::node_id b,
                           const merge_plan& p, double dist) {
        ++st.merges;
        st.snake_wire += p.cost - dist;
        if (p.violation > 0.0) ++st.forced_merges;
        const topo::node_id c = solver.commit(t, a, b, p);
        act.erase(a);
        act.erase(b);
        act.insert(c);
    };
    while (act.size() > 1) {
        topo::node_id a = topo::knull_node, b = topo::knull_node;
        double key = std::numeric_limits<double>::infinity(), dist = 0.0;
        bool cached = false;
        for (const topo::node_id i : act.items()) {
            const auto nn = scan_nearest(t, act.items(), i, bans);
            if (!nn) continue;
            const auto it = rekeyed.find(pair_key(i, nn->first));
            const double k = it != rekeyed.end() ? it->second : nn->second;
            if (k < key) {
                a = i;
                b = nn->first;
                key = k;
                dist = nn->second;
                cached = it != rekeyed.end();
            }
        }
        if (a == topo::knull_node) {
            // Every pair is banned: force-merge the nearest pair, slot-major
            // over pairs whose second id is the larger, first strictly
            // smaller distance winning.  A forced merge always counts.
            double best = std::numeric_limits<double>::infinity();
            for (const topo::node_id i : act.items())
                for (const topo::node_id j : act.items()) {
                    if (j <= i) continue;
                    const double d = t.node(i).arc.distance(t.node(j).arc);
                    if (d < best) {
                        best = d;
                        a = i;
                        b = j;
                    }
                }
            const merge_plan p = solver.plan_forced(t, a, b);
            if (p.violation <= 0.0) ++st.forced_merges;
            merge(a, b, p, best);
            continue;
        }
        const std::optional<merge_plan> p = solver.plan(t, a, b);
        if (!p) {
            bans.insert(pair_key(a, b));
            ++st.rejected_pairs;
        } else if (req.options.engine.true_cost_ordering && !cached &&
                   p->cost > key + 1e-9) {
            rekeyed[pair_key(a, b)] = p->cost;
        } else {
            merge(a, b, *p, dist);
        }
    }
    detail::finalize_result(inst, std::move(t), act.items().front(), res);
    return res;
}

}  // namespace astclk::core::oracle
