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
    }
    return {};
}

/// Friend-of-grid_index accessor shim: the auditor reads the private
/// registration state (spans, cell vectors, slab mirror, packed arcs)
/// without widening the class's public surface.
struct grid_inspector {
    static std::string check(const grid_index& g, const topo::clock_tree& t) {
        std::ostringstream err;
        std::unordered_set<topo::node_id> live(g.active().begin(),
                                               g.active().end());
        if (live.size() != g.active().size()) return "duplicate active id";

        // Active side: span matches the node's current arc, registration
        // covers exactly the span, the packed-arc mirror is current.
        for (const topo::node_id id : g.active()) {
            const auto sid = static_cast<std::size_t>(id);
            if (sid >= g.span_.size() || sid >= g.arcs_.size()) {
                err << "active id " << id << " has no registration record";
                return err.str();
            }
            const geom::tilted_rect& arc = t.node(id).arc;
            const grid_index::cell_range want = g.range_of(arc);
            const grid_index::cell_range& have = g.span_[sid];
            if (want.u0 != have.u0 || want.u1 != have.u1 ||
                want.v0 != have.v0 || want.v1 != have.v1) {
                err << "id " << id << " registered span [" << have.u0 << ","
                    << have.u1 << "]x[" << have.v0 << "," << have.v1
                    << "] does not cover its arc's range [" << want.u0 << ","
                    << want.u1 << "]x[" << want.v0 << "," << want.v1 << "]";
                return err.str();
            }
            const packed_arc mirror = g.arcs_[sid];
            const packed_arc fresh = packed_arc::of(arc);
            if (mirror.u_lo != fresh.u_lo || mirror.u_hi != fresh.u_hi ||
                mirror.v_lo != fresh.v_lo || mirror.v_hi != fresh.v_hi) {
                err << "id " << id << " packed-arc mirror is stale";
                return err.str();
            }
            for (int cv = have.v0; cv <= have.v1; ++cv) {
                for (int cu = have.u0; cu <= have.u1; ++cu) {
                    const auto& cell = g.cells_[g.cell_at(cu, cv)];
                    const auto hits = static_cast<int>(
                        std::count(cell.begin(), cell.end(), id));
                    if (hits != 1) {
                        err << "id " << id << " appears " << hits
                            << " times in covered cell (" << cu << "," << cv
                            << ")";
                        return err.str();
                    }
                }
            }
        }

        // Cell side: only live ids, each within its span; slab occupancy
        // mirror agrees with the authoritative vectors.
        for (std::size_t c = 0; c < g.cells_.size(); ++c) {
            const auto& cell = g.cells_[c];
            const int cu = static_cast<int>(c % static_cast<std::size_t>(g.nu_));
            const int cv = static_cast<int>(c / static_cast<std::size_t>(g.nu_));
            for (const topo::node_id id : cell) {
                if (live.count(id) == 0) {
                    err << "cell (" << cu << "," << cv
                        << ") holds non-active id " << id;
                    return err.str();
                }
                const grid_index::cell_range& sp =
                    g.span_[static_cast<std::size_t>(id)];
                if (cu < sp.u0 || cu > sp.u1 || cv < sp.v0 || cv > sp.v1) {
                    err << "id " << id << " found outside its span at cell ("
                        << cu << "," << cv << ")";
                    return err.str();
                }
            }
            const grid_index::slab_cell& sc = g.slab_[c];
            if (sc.n != cell.size()) {
                err << "slab population " << sc.n << " != cell population "
                    << cell.size() << " at cell (" << cu << "," << cv << ")";
                return err.str();
            }
            if (sc.n <= grid_index::slab_cell::kinline) {
                std::unordered_set<topo::node_id> inline_ids;
                for (std::uint32_t k = 0; k < sc.n; ++k)
                    inline_ids.insert(sc.ids[k]);
                if (inline_ids.size() != cell.size()) {
                    err << "slab inline ids duplicate at cell (" << cu << ","
                        << cv << ")";
                    return err.str();
                }
                for (const topo::node_id id : cell) {
                    if (inline_ids.count(id) == 0) {
                        err << "slab inline ids miss id " << id
                            << " at cell (" << cu << "," << cv << ")";
                        return err.str();
                    }
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
    // code with either NN backend, and stays cheap enough to run every
    // 64th selection step.
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
