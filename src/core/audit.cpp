#include "core/audit.hpp"

#include "core/route_context.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <sstream>
#include <unordered_set>

namespace astclk::core::audit {

namespace {

std::atomic<std::uint64_t> g_checkpoints{0};

}  // namespace

std::uint64_t checkpoints_run() noexcept {
    return g_checkpoints.load(std::memory_order_relaxed);
}

void checkpoint(const char* site, const std::string& diagnostic) {
    g_checkpoints.fetch_add(1, std::memory_order_relaxed);
    if (!diagnostic.empty())
        throw violation(std::string("audit[") + site + "]: " + diagnostic);
}

std::string verify_tree_structure(const topo::clock_tree& t,
                                  std::size_t num_sinks) {
    const std::string base = t.check_structure(num_sinks);
    if (!base.empty()) return base;
    std::ostringstream err;
    if (t.source_edge() < 0.0) {
        err << "negative source edge " << t.source_edge();
        return err.str();
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
        const topo::tree_node& n = t.node(static_cast<topo::node_id>(i));
        if (n.is_leaf() &&
            (n.left != topo::knull_node || n.right != topo::knull_node)) {
            err << "leaf " << i << " has children";
            return err.str();
        }
        if (n.edge_left < 0.0 || n.edge_right < 0.0) {
            err << "node " << i << " has a negative electrical edge ("
                << n.edge_left << ", " << n.edge_right << ")";
            return err.str();
        }
        if (n.subtree_cap < 0.0) {
            err << "node " << i << " has negative downstream capacitance "
                << n.subtree_cap;
            return err.str();
        }
        const auto child_ok = [&t](topo::node_id c) {
            return c >= 0 && static_cast<std::size_t>(c) < t.size();
        };
        bool disjoint = false;
        if (!n.is_leaf() && child_ok(n.left) && child_ok(n.right))
            disjoint = t.node(n.left).delays.disjoint_from(
                t.node(n.right).delays);
        if (n.disjoint_children != disjoint) {
            err << "node " << i << " flags its children as "
                << (n.disjoint_children ? "disjoint" : "sharing a group")
                << " but they " << (disjoint ? "are disjoint" : "are not");
            return err.str();
        }
    }
    return {};
}

/// Friend-of-grid_index accessor shim: the auditor reads the private
/// cells without widening the class's public surface.
struct grid_inspector {
    static std::string check(const grid_index& g, const topo::clock_tree& t) {
        std::ostringstream err;
        std::unordered_set<topo::node_id> live(g.active().begin(),
                                               g.active().end());
        if (live.size() != g.active().size()) return "duplicate active id";

        // Active side: each id sits exactly once in every cell of its
        // arc's range.
        for (const topo::node_id id : g.active()) {
            const grid_index::cell_range want = g.range_of(t.node(id).arc);
            for (int cv = want.v0; cv <= want.v1; ++cv) {
                for (int cu = want.u0; cu <= want.u1; ++cu) {
                    const auto& cell = g.cells_[g.cell_at(cu, cv)];
                    const auto hits = static_cast<int>(
                        std::count(cell.begin(), cell.end(), id));
                    if (hits != 1) {
                        err << "id " << id << " appears " << hits
                            << " times in cell (" << cu << "," << cv
                            << ") of its arc's range [" << want.u0 << ","
                            << want.u1 << "]x[" << want.v0 << "," << want.v1
                            << "]";
                        return err.str();
                    }
                }
            }
        }

        // Cell side: only live ids, each inside its arc's range.
        for (std::size_t c = 0; c < g.cells_.size(); ++c) {
            const int cu = static_cast<int>(c % static_cast<std::size_t>(g.nu_));
            const int cv = static_cast<int>(c / static_cast<std::size_t>(g.nu_));
            for (const topo::node_id id : g.cells_[c]) {
                if (live.count(id) == 0) {
                    err << "cell (" << cu << "," << cv
                        << ") holds non-active id " << id;
                    return err.str();
                }
                const grid_index::cell_range sp = g.range_of(t.node(id).arc);
                if (cu < sp.u0 || cu > sp.u1 || cv < sp.v0 || cv > sp.v1) {
                    err << "id " << id << " found outside its arc's range at "
                        << "cell (" << cu << "," << cv << ")";
                    return err.str();
                }
            }
        }
        return {};
    }
};

std::string verify_grid_vs_live_set(const grid_index& g,
                                    const topo::clock_tree& t) {
    return grid_inspector::check(g, t);
}

std::string verify_nn_records(const topo::clock_tree& t,
                              const std::vector<topo::node_id>& active,
                              const std::vector<topo::node_id>& nn_to,
                              const std::vector<double>& nn_dist,
                              const std::unordered_set<std::uint64_t>& banned) {
    // A plain scan over a contiguous copy of the active arcs: shares no
    // code with the grid, and stays cheap enough to run every 64th
    // selection step.
    std::vector<geom::tilted_rect> arcs;
    arcs.reserve(active.size());
    for (const topo::node_id j : active) arcs.push_back(t.node(j).arc);
    for (std::size_t x = 0; x < active.size(); ++x) {
        const topo::node_id i = active[x];
        topo::node_id want = topo::knull_node;
        double want_d = std::numeric_limits<double>::infinity();
        for (std::size_t y = 0; y < active.size(); ++y) {
            const topo::node_id j = active[y];
            if (j == i) continue;
            const double d = arcs[x].distance(arcs[y]);
            if ((d < want_d || (d == want_d && j < want)) &&
                banned.count(pair_key(i, j)) == 0) {
                want_d = d;
                want = j;
            }
        }
        const auto si = static_cast<std::size_t>(i);
        const topo::node_id have =
            si < nn_to.size() ? nn_to[si] : topo::knull_node;
        if (have == want && (want == topo::knull_node || nn_dist[si] == want_d))
            continue;
        std::ostringstream err;
        err << "root " << i << " records partner " << have;
        if (have != topo::knull_node) err << " at " << nn_dist[si];
        err << " but its nearest unbanned partner is ";
        if (want != topo::knull_node)
            err << want << " at " << want_d;
        else
            err << "none";
        return err.str();
    }
    return {};
}

std::string verify_ban_degrees(const std::vector<topo::node_id>& active,
                               const std::unordered_set<std::uint64_t>& banned,
                               const std::vector<std::uint32_t>& live_deg) {
    std::size_t ids = 0;
    for (const topo::node_id i : active)
        ids = std::max(ids, static_cast<std::size_t>(i) + 1);
    std::vector<char> is_active(ids, 0);
    for (const topo::node_id i : active)
        is_active[static_cast<std::size_t>(i)] = 1;
    std::vector<std::uint32_t> want(ids, 0);
    for (const std::uint64_t k : banned) {
        const auto hi = static_cast<std::size_t>(k >> 32);
        const auto lo = static_cast<std::size_t>(k & 0xffffffffu);
        if (hi < ids && lo < ids && is_active[hi] != 0 && is_active[lo] != 0) {
            ++want[hi];
            ++want[lo];
        }
    }
    for (const topo::node_id i : active) {
        const auto si = static_cast<std::size_t>(i);
        const std::uint32_t have = si < live_deg.size() ? live_deg[si] : 0;
        if (have == want[si]) continue;
        std::ostringstream err;
        err << "root " << i << " carries live ban degree " << have
            << " but is banned with " << want[si] << " active roots";
        return err.str();
    }
    return {};
}

std::string verify_scratch_lease_balance(const routing_context& ctx) {
    const std::size_t pooled = ctx.pooled_scratch();
    const std::size_t allocated = ctx.allocated_scratch();
    if (pooled == allocated) return {};
    std::ostringstream err;
    err << "scratch-lease imbalance: " << allocated
        << " scratch buffers allocated but only " << pooled
        << " back in the pool (" << (allocated - pooled)
        << " leaked or still leased)";
    return err.str();
}

std::string verify_stats_books(const engine_stats& s) {
    std::ostringstream err;
    const auto bad = [&err](const char* name, long long v) {
        err << "negative counter " << name << " = " << v;
        return err.str();
    };
    if (s.merges < 0) return bad("merges", s.merges);
    if (s.disjoint_merges < 0) return bad("disjoint_merges", s.disjoint_merges);
    if (s.shared_merges < 0) return bad("shared_merges", s.shared_merges);
    if (s.multi_shared_merges < 0)
        return bad("multi_shared_merges", s.multi_shared_merges);
    if (s.root_snakes < 0) return bad("root_snakes", s.root_snakes);
    if (s.interior_snakes < 0) return bad("interior_snakes", s.interior_snakes);
    if (s.rejected_pairs < 0) return bad("rejected_pairs", s.rejected_pairs);
    if (s.forced_merges < 0) return bad("forced_merges", s.forced_merges);
    if (s.rounds < 0) return bad("rounds", s.rounds);
    if (s.shards < 0) return bad("shards", s.shards);
    if (s.merges != s.disjoint_merges + s.shared_merges) {
        err << "merge taxonomy does not sum: merges " << s.merges
            << " != disjoint " << s.disjoint_merges << " + shared "
            << s.shared_merges;
        return err.str();
    }
    if (s.multi_shared_merges > s.shared_merges) {
        err << "multi_shared_merges " << s.multi_shared_merges
            << " exceeds shared_merges " << s.shared_merges;
        return err.str();
    }
    if (s.worst_violation < 0.0) {
        err << "negative worst_violation " << s.worst_violation;
        return err.str();
    }
    if (s.worst_violation > 0.0 && s.forced_merges == 0) {
        err << "worst_violation " << s.worst_violation
            << " recorded without any forced merge";
        return err.str();
    }
    if (s.snake_wire < -1e-6) {
        err << "negative snake_wire " << s.snake_wire;
        return err.str();
    }
    return {};
}

}  // namespace astclk::core::audit
