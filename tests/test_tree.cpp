// Clock-tree arena tests: leaf/internal construction, traversals,
// wirelength accounting, structural validation.

#include "topo/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace astclk::topo {
namespace {

instance three_sink_instance() {
    instance inst;
    inst.name = "tiny";
    inst.num_groups = 2;
    inst.die_width = inst.die_height = 100.0;
    inst.source = {50.0, 50.0};
    inst.sinks = {{{0.0, 0.0}, 1e-15, 0},
                  {{10.0, 0.0}, 2e-15, 1},
                  {{5.0, 8.0}, 3e-15, 0}};
    return inst;
}

TEST(ClockTree, LeafStateFromSink) {
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const tree_node& n = t.node(l0);
    EXPECT_TRUE(n.is_leaf());
    EXPECT_EQ(n.sink_index, 0);
    EXPECT_DOUBLE_EQ(n.subtree_cap, 1e-15);
    EXPECT_TRUE(n.arc.is_point());
    ASSERT_NE(n.delays.find(0), nullptr);
    EXPECT_DOUBLE_EQ(n.delays.find(0)->lo, 0.0);
}

TEST(ClockTree, InternalNodeWiresChildren) {
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const node_id l1 = t.add_leaf(inst, 1);
    const node_id m = t.add_internal(l0, l1, geom::tilted_rect::at(geom::point{5, 0}),
                                     5.0, 5.0, 3e-15, group_delays::single(0));
    EXPECT_EQ(t.node(l0).parent, m);
    EXPECT_EQ(t.node(l1).parent, m);
    EXPECT_EQ(t.node(m).left, l0);
    EXPECT_EQ(t.node(m).right, l1);
    EXPECT_FALSE(t.node(m).is_leaf());
}

TEST(ClockTree, InternalNodeFlagsDisjointChildren) {
    // Sinks 0 and 2 are in group 0, sink 1 in group 1.
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const node_id l1 = t.add_leaf(inst, 1);
    const node_id l2 = t.add_leaf(inst, 2);
    EXPECT_FALSE(t.node(l0).disjoint_children);  // leaves never carry it
    const node_id m = t.add_internal(
        l0, l1, {}, 1, 1, 0,
        group_delays::merged(t.node(l0).delays, 0.0, t.node(l1).delays, 0.0));
    EXPECT_TRUE(t.node(m).disjoint_children);  // {0} and {1}
    const node_id r = t.add_internal(
        m, l2, {}, 1, 1, 0,
        group_delays::merged(t.node(m).delays, 0.0, t.node(l2).delays, 0.0));
    EXPECT_FALSE(t.node(r).disjoint_children);  // {0, 1} and {0}

    // absorb copies the flag with the node.
    clock_tree host;
    host.add_leaf(inst, 1);
    const node_id shift = host.absorb(t);
    EXPECT_TRUE(host.node(shift + m).disjoint_children);
    EXPECT_FALSE(host.node(shift + r).disjoint_children);
    EXPECT_FALSE(host.node(shift + l0).disjoint_children);

    // The flag sits in padding: the node keeps its two cache lines.
    EXPECT_EQ(sizeof(tree_node), 128u);
}

TEST(ClockTree, WirelengthSumsEdgesAndSource) {
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const node_id l1 = t.add_leaf(inst, 1);
    const node_id l2 = t.add_leaf(inst, 2);
    const node_id m = t.add_internal(l0, l1, {}, 5.0, 5.0, 0, {});
    const node_id r = t.add_internal(m, l2, {}, 3.0, 4.0, 0, {});
    t.set_root(r);
    t.set_source_edge(2.0);
    EXPECT_DOUBLE_EQ(t.total_wirelength(), 5 + 5 + 3 + 4 + 2);
}

TEST(ClockTree, TraversalsCoverAllNodes) {
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const node_id l1 = t.add_leaf(inst, 1);
    const node_id l2 = t.add_leaf(inst, 2);
    const node_id m = t.add_internal(l0, l1, {}, 1, 1, 0, {});
    const node_id r = t.add_internal(m, l2, {}, 1, 1, 0, {});
    t.set_root(r);

    auto sinks = t.sinks_under(r);
    std::sort(sinks.begin(), sinks.end());
    EXPECT_EQ(sinks, (std::vector<std::int32_t>{0, 1, 2}));
    EXPECT_EQ(t.sinks_under(m).size(), 2u);

    const auto order = t.postorder();
    ASSERT_EQ(order.size(), 5u);
    // Children precede parents.
    const auto pos = [&](node_id id) {
        return std::find(order.begin(), order.end(), id) - order.begin();
    };
    EXPECT_LT(pos(l0), pos(m));
    EXPECT_LT(pos(l1), pos(m));
    EXPECT_LT(pos(m), pos(r));
    EXPECT_EQ(order.back(), r);
}

TEST(ClockTree, StructureCheckPasses) {
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const node_id l1 = t.add_leaf(inst, 1);
    const node_id l2 = t.add_leaf(inst, 2);
    const node_id m = t.add_internal(l0, l1, {}, 1, 1, 0, {});
    const node_id r = t.add_internal(m, l2, {}, 1, 1, 0, {});
    t.set_root(r);
    EXPECT_EQ(t.check_structure(3), "");
}

TEST(ClockTree, StructureCheckCatchesMissingRoot) {
    clock_tree t;
    EXPECT_NE(t.check_structure(0), "");
}

TEST(ClockTree, StructureCheckCatchesMissingSink) {
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const node_id l1 = t.add_leaf(inst, 1);
    t.add_leaf(inst, 2);  // orphaned: never merged
    const node_id m = t.add_internal(l0, l1, {}, 1, 1, 0, {});
    t.set_root(m);
    EXPECT_NE(t.check_structure(3), "");
}

TEST(ClockTree, StructureCheckCatchesDuplicateSink) {
    const instance inst = three_sink_instance();
    clock_tree t;
    const node_id l0 = t.add_leaf(inst, 0);
    const node_id l0b = t.add_leaf(inst, 0);  // duplicate sink index
    const node_id m = t.add_internal(l0, l0b, {}, 1, 1, 0, {});
    t.set_root(m);
    EXPECT_NE(t.check_structure(3), "");
}

}  // namespace
}  // namespace astclk::topo
