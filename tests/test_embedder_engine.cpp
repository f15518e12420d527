// Tests for the top-down embedder, the nearest-neighbour index's basic
// contract, and the bottom-up engine mechanics that the router-level tests
// exercise only indirectly.

#include "core/embedder.hpp"
#include "core/engine.hpp"
#include "core/grid_index.hpp"
#include "core/router.hpp"
#include "gen/patterns.hpp"

#include <gtest/gtest.h>

namespace astclk::core {
namespace {

using topo::clock_tree;
using topo::instance;
using topo::node_id;

const rc::delay_model kmodel = rc::delay_model::elmore();

TEST(NnIndex, FindsNearestByArcDistance) {
    instance inst;
    inst.num_groups = 1;
    inst.sinks = {{{0, 0}, 1e-15, 0},
                  {{10, 0}, 1e-15, 0},
                  {{3, 1}, 1e-15, 0},
                  {{50, 50}, 1e-15, 0}};
    clock_tree t;
    std::vector<node_id> roots;
    for (int i = 0; i < 4; ++i) roots.push_back(t.add_leaf(inst, i));
    const grid_index idx(&t, roots);
    const auto nn = idx.nearest_if(0, no_bans{});
    ASSERT_TRUE(nn.has_value());
    EXPECT_EQ(nn->first, 2);  // (3,1) at distance 4
    EXPECT_DOUBLE_EQ(nn->second, 4.0);
}

TEST(NnIndex, RespectsBansAndErasure) {
    instance inst;
    inst.num_groups = 1;
    inst.sinks = {{{0, 0}, 1e-15, 0},
                  {{1, 0}, 1e-15, 0},
                  {{5, 0}, 1e-15, 0}};
    clock_tree t;
    std::vector<node_id> roots;
    for (int i = 0; i < 3; ++i) roots.push_back(t.add_leaf(inst, i));
    grid_index idx(&t, roots);
    const auto banned = [](std::uint64_t k) { return k == pair_key(0, 1); };
    const auto nn = idx.nearest_if(0, banned);
    ASSERT_TRUE(nn.has_value());
    EXPECT_EQ(nn->first, 2);  // 1 is banned
    idx.erase(2);
    const auto nn2 = idx.nearest_if(0, banned);
    EXPECT_FALSE(nn2.has_value());  // everyone banned or gone
    EXPECT_EQ(idx.size(), 2u);
}

TEST(NnIndex, PairKeyIsSymmetric) {
    EXPECT_EQ(pair_key(3, 7), pair_key(7, 3));
    EXPECT_NE(pair_key(3, 7), pair_key(3, 8));
}

TEST(Embedder, PlacesEveryNodeOnItsArc) {
    auto inst = gen::ring(20, 2);
    const auto r = route_ast_dme(inst);
    for (std::size_t i = 0; i < r.tree.size(); ++i) {
        const auto& n = r.tree.node(static_cast<node_id>(i));
        ASSERT_TRUE(n.is_placed);
        EXPECT_LE(n.arc.distance(n.placed.to_tilted()), 1e-6)
            << "node " << i << " placed off its merging arc";
    }
}

TEST(Embedder, PhysicalNeverExceedsElectrical) {
    auto inst = gen::depth_ramp(12);  // forces snaking
    const auto r = route_zst_dme(inst);
    EXPECT_LT(r.embed.worst_excess, 1e-5);
    // Snaking means electrical strictly exceeds physical somewhere.
    EXPECT_GT(r.embed.total_snake, 0.0);
    for (std::size_t i = 0; i < r.tree.size(); ++i) {
        const auto& n = r.tree.node(static_cast<node_id>(i));
        if (n.is_leaf()) continue;
        const auto pp = n.placed.to_tilted();
        const double dl =
            geom::chebyshev(pp, r.tree.node(n.left).placed.to_tilted());
        const double dr =
            geom::chebyshev(pp, r.tree.node(n.right).placed.to_tilted());
        EXPECT_LE(dl, n.edge_left + 1e-6);
        EXPECT_LE(dr, n.edge_right + 1e-6);
    }
}

TEST(Embedder, LeafPlacementEqualsSinkLocation) {
    auto inst = gen::ring(16, 2);
    const auto r = route_ast_dme(inst);
    for (std::size_t i = 0; i < r.tree.size(); ++i) {
        const auto& n = r.tree.node(static_cast<node_id>(i));
        if (!n.is_leaf()) continue;
        const auto& s = inst.sinks[static_cast<std::size_t>(n.sink_index)];
        EXPECT_NEAR(geom::manhattan(n.placed, s.loc), 0.0, 1e-9);
    }
}

TEST(Embedder, SourceEdgeIsDistanceToRootArc) {
    auto inst = gen::ring(10, 1);
    const auto r = route_zst_dme(inst);
    const auto& root = r.tree.node(r.tree.root());
    EXPECT_NEAR(r.tree.source_edge(),
                geom::chebyshev(inst.source.to_tilted(),
                                root.placed.to_tilted()),
                1e-9);
}

TEST(Engine, ReducesSingleRootTrivially) {
    instance inst;
    inst.num_groups = 1;
    inst.sinks = {{{5, 5}, 1e-15, 0}};
    clock_tree t;
    const node_id leaf = t.add_leaf(inst, 0);
    bottom_up_engine engine(merge_solver(kmodel, skew_spec::zero()));
    engine_stats st;
    EXPECT_EQ(engine.reduce(t, {leaf}, &st), leaf);
    EXPECT_EQ(st.merges, 0);
}

TEST(Engine, MergeCountAndCostAccounting) {
    auto inst = gen::ring(32, 1);
    const auto r = route_zst_dme(inst);
    EXPECT_EQ(r.stats.merges, 31);
    // Wirelength == sum of plan costs + source edge; snake_wire is the
    // excess over the arc distances.
    EXPECT_GE(r.stats.snake_wire, 0.0);
    EXPECT_GE(r.wirelength, r.embed.total_physical);
}

TEST(Engine, MultiMergeMatchesNearestOnSymmetricRing) {
    // Both orders must produce valid zero-skew trees; on a symmetric ring
    // their wirelengths agree closely.
    auto inst = gen::ring(24, 1);
    router_options near_opt;
    router_options multi_opt;
    multi_opt.engine.order = merge_order::multi_merge;
    const auto a = route_zst_dme(inst, near_opt);
    const auto b = route_zst_dme(inst, multi_opt);
    EXPECT_LT(std::fabs(a.wirelength - b.wirelength),
              0.12 * a.wirelength);
    EXPECT_GT(b.stats.rounds, 0);
}

TEST(Engine, WindowedModeRecordsRejections) {
    // The windowed mode on an offset-conflicted instance must either repair
    // (interior snakes), reroute (rejections), or force (violations) — and
    // the stats must say which.
    auto inst = gen::two_clusters(12);
    const auto r = route_ast_dme(inst, skew_spec::zero(), {},
                                 ast_mode::windowed);
    const int conflicts = r.stats.rejected_pairs + r.stats.interior_snakes +
                          r.stats.forced_merges;
    EXPECT_GE(conflicts, 0);  // smoke: counters wired up
    EXPECT_EQ(r.tree.check_structure(inst.size()), "");
}

}  // namespace
}  // namespace astclk::core
