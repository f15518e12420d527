#pragma once

/// \file router_detail.hpp
/// Internal plumbing shared by the routing strategies (strategy.cpp) and
/// the sharded reduction (shard.cpp): leaf construction (optionally
/// collapsing all groups into one) and the whole-tree bookkeeping tail
/// (embedding, tree ownership, wirelength).  Not part of the public API.
///
/// Note there is no timing here: `route()` (strategy.hpp) wraps every
/// strategy with the one wall-clock measurement, so direct and batched
/// calls report cpu_seconds identically.

#include "core/audit.hpp"
#include "core/router.hpp"

namespace astclk::core::detail {

/// Create one leaf per listed sink, in the given order.  When
/// `collapse_groups` is set every leaf is booked under synthetic group 0,
/// which turns the associative problem into a conventional single-group
/// one (ZST / EXT-BST baselines).  The one leaf-construction primitive:
/// the monolithic path books every sink, the shard driver books one
/// shard's subset — both through this body, so leaf initialisation can
/// never diverge between the two paths.
inline std::vector<topo::node_id> make_leaves(
    const topo::instance& inst, topo::clock_tree& t,
    const std::vector<std::int32_t>& sinks, bool collapse_groups) {
    std::vector<topo::node_id> roots;
    roots.reserve(sinks.size());
    for (const std::int32_t i : sinks) {
        const topo::node_id id = t.add_leaf(inst, i);
        if (collapse_groups)
            t.node(id).delays = topo::group_delays::single(0);
        roots.push_back(id);
    }
    return roots;
}

/// Create one leaf per sink of the instance (ascending sink order).
inline std::vector<topo::node_id> make_leaves(const topo::instance& inst,
                                              topo::clock_tree& t,
                                              bool collapse_groups) {
    std::vector<std::int32_t> all(inst.sinks.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<std::int32_t>(i);
    return make_leaves(inst, t, all, collapse_groups);
}

/// Fill in the result bookkeeping shared by every whole-tree strategy
/// tail: root, top-down embedding, tree ownership, wirelength.
inline void finalize_result(const topo::instance& inst, topo::clock_tree t,
                            topo::node_id root, route_result& res) {
    t.set_root(root);
#ifdef ASTCLK_AUDIT
    // Every whole-tree strategy tail funnels through here, so audit builds
    // structurally verify every finished tree before it is embedded.
    audit::checkpoint("finalize/tree",
                      audit::verify_tree_structure(t, inst.sinks.size()));
#endif
    res.embed = embed_tree(t, inst.source);
    res.tree = std::move(t);
    res.wirelength = res.tree.total_wirelength();
}

}  // namespace astclk::core::detail
