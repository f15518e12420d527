// End-to-end router tests on small deterministic instances: constraint
// satisfaction via the independent evaluator, structural soundness,
// determinism, engine statistics, and cross-router relationships.

#include "core/router.hpp"
#include "core/strategy.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

namespace astclk::core {
namespace {

topo::instance small_instance(int n, int k, std::uint64_t seed,
                              bool intermingled) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    spec.seed = seed;
    auto inst = gen::generate(spec);
    if (k > 1) {
        if (intermingled)
            gen::apply_intermingled_groups(inst, k, seed + 1);
        else
            gen::apply_clustered_groups(inst, k);
    }
    return inst;
}

TEST(Routers, ZstDmeAchievesZeroGlobalSkew) {
    const auto inst = small_instance(60, 1, 3, false);
    const router_options opt;
    const auto r = route_zst_dme(inst, opt);
    const auto ev = eval::evaluate(r.tree, inst, opt.model);
    EXPECT_LT(rc::to_ps(ev.global_skew), 1e-3);
    EXPECT_EQ(r.tree.check_structure(inst.size()), "");
    EXPECT_GT(r.wirelength, 0.0);
    EXPECT_EQ(r.stats.merges, static_cast<int>(inst.size()) - 1);
}

TEST(Routers, ExtBstRespectsGlobalBound) {
    const auto inst = small_instance(80, 1, 4, false);
    const router_options opt;
    for (double bound_ps : {1.0, 10.0, 100.0}) {
        const auto r = route_ext_bst(inst, bound_ps * 1e-12, opt);
        const auto ev = eval::evaluate(r.tree, inst, opt.model);
        EXPECT_LE(rc::to_ps(ev.global_skew), bound_ps + 1e-3)
            << "bound " << bound_ps << " ps";
    }
}

TEST(Routers, LooserBoundNeverIncreasesWirelengthMuch) {
    // Monotonicity is only heuristic (greedy order changes), but a looser
    // bound should never cost a significant amount more wire.
    const auto inst = small_instance(100, 1, 5, false);
    const router_options opt;
    const auto tight = route_ext_bst(inst, 0.0, opt);
    const auto loose = route_ext_bst(inst, 1.0, opt);  // effectively infinite
    EXPECT_LT(loose.wirelength, tight.wirelength * 1.02);
}

TEST(Routers, AstDmeSatisfiesZeroIntraGroupSkew) {
    const auto inst = small_instance(70, 5, 6, true);
    const router_options opt;
    const auto r = route_ast_dme(inst);
    const auto vr = eval::verify_route(r, inst, opt.model, skew_spec::zero());
    EXPECT_TRUE(vr.ok) << vr.message;
    const auto ev = eval::evaluate(r.tree, inst, opt.model);
    EXPECT_LT(rc::to_ps(ev.max_intra_group_skew), 1e-3);
}

TEST(Routers, AstBookkeepingMatchesEvaluator) {
    const auto inst = small_instance(50, 4, 7, true);
    const router_options opt;
    const auto r = route_ast_dme(inst);
    const auto vr = eval::verify_route(r, inst, opt.model, skew_spec::zero());
    EXPECT_TRUE(vr.ok) << vr.message;
    EXPECT_LT(vr.max_cap_error, 1e-20);
    EXPECT_LT(vr.max_delay_bookkeeping_error, 1e-18);
    EXPECT_LT(vr.worst_embed_excess, 1e-5);
}

TEST(Routers, AstAutomaticZeroSkewNeverForcesViolations) {
    // Automatic routes an all-zero spec with the exact offset ledger, so
    // no merge is ever forced.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        const auto inst = small_instance(90, 6, seed, true);
        const auto r =
            route_ast_dme(inst, skew_spec::zero(), {}, ast_mode::automatic);
        EXPECT_EQ(r.stats.forced_merges, 0) << "seed " << seed;
        EXPECT_DOUBLE_EQ(r.stats.worst_violation, 0.0);
    }
}

TEST(Routers, AstBoundedSpecKeepsGroupsWithinBound) {
    const auto inst = small_instance(60, 4, 9, true);
    const router_options opt;
    const skew_spec spec = skew_spec::uniform(20e-12);
    const auto r = route_ast_dme(inst, spec, opt);
    const auto ev = eval::evaluate(r.tree, inst, opt.model);
    for (topo::group_id g = 0; g < inst.num_groups; ++g)
        EXPECT_LE(rc::to_ps(ev.group_skew[static_cast<std::size_t>(g)]),
                  20.0 + 0.01);
}

/// Bitwise tree comparison: wirelength, then every node's children, arc
/// and electrical edge lengths.
void expect_same_tree(const route_result& a, const route_result& b,
                      const std::string& what) {
    ASSERT_TRUE(a.ok() && b.ok()) << what;
    EXPECT_EQ(a.wirelength, b.wirelength) << what;
    ASSERT_EQ(a.tree.size(), b.tree.size()) << what;
    for (std::size_t i = 0; i < a.tree.size(); ++i) {
        const auto& an = a.tree.node(static_cast<topo::node_id>(i));
        const auto& bn = b.tree.node(static_cast<topo::node_id>(i));
        ASSERT_TRUE(an.left == bn.left && an.right == bn.right &&
                    an.arc == bn.arc && an.edge_left == bn.edge_left &&
                    an.edge_right == bn.edge_right)
            << what << " node " << i;
    }
}

TEST(Routers, ConfigurationTableRowsThatShareARoute) {
    // Pins two rows of the strategy configuration (strategy.cpp): automatic
    // on a bounded spec is the soft ledger, and EXT-BST at a zero global
    // bound is ZST-DME (both collapse the groups into one at zero skew).
    const skew_spec b5 = skew_spec::uniform(5e-12);
    for (const char* name : {"r1", "r3", "r5"}) {
        for (const int k : {4, 10}) {
            auto inst = gen::generate(gen::paper_spec(name));
            gen::apply_intermingled_groups(inst, k, 1);
            const std::string at =
                std::string(name) + " k=" + std::to_string(k);
            expect_same_tree(
                route_ast_dme(inst, b5, {}, ast_mode::automatic),
                route_ast_dme(inst, b5, {}, ast_mode::soft_ledger),
                at + ": automatic vs soft ledger at 5 ps");
            expect_same_tree(route_zst_dme(inst), route_ext_bst(inst, 0.0),
                             at + ": ZST-DME vs EXT-BST at 0 ps");
        }
    }
}

TEST(Routers, SeparateStitchSatisfiesConstraintsButCostsMore) {
    // The prior work's construction must still achieve intra-group zero
    // skew; on intermingled groups it wastes a lot of wire (Fig. 2).
    const auto inst = small_instance(80, 5, 10, true);
    const router_options opt;
    const auto sep = route_separate_stitch(inst, opt);
    const auto vr = eval::verify_route(sep, inst, opt.model, skew_spec::zero());
    EXPECT_TRUE(vr.ok) << vr.message;
    const auto ast = route_ast_dme(inst);
    EXPECT_GT(sep.wirelength, ast.wirelength);
}

TEST(Routers, DeterministicAcrossRuns) {
    const auto inst = small_instance(64, 4, 11, true);
    const auto a = route_ast_dme(inst);
    const auto b = route_ast_dme(inst);
    EXPECT_DOUBLE_EQ(a.wirelength, b.wirelength);
    EXPECT_EQ(a.tree.size(), b.tree.size());
}

TEST(Routers, SingleSinkInstance) {
    topo::instance inst;
    inst.num_groups = 1;
    inst.die_width = inst.die_height = 100.0;
    inst.source = {0.0, 0.0};
    inst.sinks = {{{30.0, 40.0}, 10e-15, 0}};
    const auto r = route_zst_dme(inst);
    EXPECT_EQ(r.tree.check_structure(1), "");
    EXPECT_NEAR(r.wirelength, 70.0, 1e-9);  // source-to-sink Manhattan
}

TEST(Routers, TwoSinkInstanceMatchesHandMath) {
    topo::instance inst;
    inst.num_groups = 1;
    inst.die_width = inst.die_height = 100.0;
    inst.source = {50.0, 50.0};
    inst.sinks = {{{0.0, 50.0}, 10e-15, 0}, {{100.0, 50.0}, 10e-15, 0}};
    const router_options opt;
    const auto r = route_zst_dme(inst, opt);
    // Symmetric: merge point at the centre, wirelength 100 + source edge 0.
    EXPECT_NEAR(r.wirelength, 100.0, 1e-6);
    const auto ev = eval::evaluate(r.tree, inst, opt.model);
    EXPECT_LT(rc::to_ps(ev.global_skew), 1e-6);
}

TEST(Routers, InvalidInstanceIsRejectedBeforeTheEngine) {
    // An out-of-range group id used to reach the offset ledger (a heap
    // overflow under ASan); route() now validates first and answers with
    // a typed error for every strategy and AST mode.
    auto inst = gen::generate(gen::paper_spec("r1"));
    gen::apply_intermingled_groups(inst, 4, 1);
    inst.sinks[7].group = 9;
    for (const strategy_id s :
         {strategy_id::ast_dme, strategy_id::zst_dme, strategy_id::ext_bst,
          strategy_id::separate_stitch}) {
        for (const ast_mode m : {ast_mode::automatic, ast_mode::windowed,
                                 ast_mode::soft_ledger}) {
            routing_request req;
            req.instance = &inst;
            req.strategy = s;
            req.mode = m;
            const route_result r = route(req);
            EXPECT_EQ(r.status, route_status::error);
            EXPECT_NE(r.status_message.find("group 9"), std::string::npos)
                << r.status_message;
            EXPECT_EQ(r.tree.size(), 0u);
            EXPECT_EQ(r.stats.merges, 0);
        }
    }
    // Non-finite input is rejected at the same boundary.
    inst.sinks[7].group = 0;
    inst.sinks[3].cap = std::numeric_limits<double>::quiet_NaN();
    routing_request req;
    req.instance = &inst;
    EXPECT_EQ(route(req).status, route_status::error);
    // So is a group count no sink set can fill, before anything is sized
    // by it (validation used to allocate one counter per declared group).
    topo::instance huge;
    huge.sinks = {{{0, 0}, 1e-15, 0}, {{10, 0}, 1e-15, 1}};
    huge.num_groups = 2000000000;
    for (const strategy_id s :
         {strategy_id::ast_dme, strategy_id::zst_dme, strategy_id::ext_bst,
          strategy_id::separate_stitch}) {
        routing_request hreq;
        hreq.instance = &huge;
        hreq.strategy = s;
        const route_result r = route(hreq);
        EXPECT_EQ(r.status, route_status::error);
        EXPECT_NE(r.status_message.find("num_groups"), std::string::npos)
            << r.status_message;
        EXPECT_EQ(r.tree.size(), 0u);
    }
}

TEST(Routers, InvalidSkewSpecIsRejectedBeforeTheEngine) {
    // A NaN bound would route as "no bound" (every comparison against it
    // is false, the verifier's included) and a negative one would reach
    // the solver, so route() rejects both, and overrides naming a missing
    // or repeated group, with a typed error for every strategy.
    const auto inst = small_instance(40, 4, 8, true);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<skew_spec, const char*> bad[] = {
        {skew_spec::uniform(nan), "default bound"},
        {skew_spec::uniform(-5e-12), "default bound"},
        {{0.0, {{1, nan}}}, "of group 1"},
        {{0.0, {{2, -1e-12}}}, "of group 2"},
        {{0.0, {{4, 1e-12}}}, "group 4 outside"},
        {{0.0, {{-1, 1e-12}}}, "group -1 outside"},
        {{0.0, {{3, 1e-12}, {3, 2e-12}}}, "overridden twice"},
    };
    for (const strategy_id s :
         {strategy_id::ast_dme, strategy_id::zst_dme, strategy_id::ext_bst,
          strategy_id::separate_stitch}) {
        for (const auto& [spec, why] : bad) {
            routing_request req;
            req.instance = &inst;
            req.strategy = s;
            req.spec = spec;
            const route_result r = route(req);
            EXPECT_EQ(r.status, route_status::error) << why;
            EXPECT_NE(r.status_message.find("invalid skew spec"),
                      std::string::npos)
                << r.status_message;
            EXPECT_NE(r.status_message.find(why), std::string::npos)
                << r.status_message;
            EXPECT_EQ(r.tree.size(), 0u);
            EXPECT_EQ(r.stats.merges, 0);
        }
        // +inf stays legal: it means "no bound".
        routing_request req;
        req.instance = &inst;
        req.strategy = s;
        req.spec = {std::numeric_limits<double>::infinity(), {{0, 0.0}}};
        EXPECT_TRUE(route(req).ok()) << "inf bound";
    }
}

TEST(Routers, MultiMergeOrderProducesValidTrees) {
    const auto inst = small_instance(75, 4, 12, true);
    router_options opt;
    opt.engine.order = merge_order::multi_merge;
    const auto r = route_ast_dme(inst, skew_spec::zero(), opt);
    const auto vr = eval::verify_route(r, inst, opt.model, skew_spec::zero());
    EXPECT_TRUE(vr.ok) << vr.message;
    EXPECT_GT(r.stats.rounds, 0);
    EXPECT_LT(r.stats.rounds, r.stats.merges);
}

TEST(Routers, TrueCostOrderingToggleStillValid) {
    const auto inst = small_instance(75, 4, 13, true);
    router_options opt;
    opt.engine.true_cost_ordering = false;
    const auto r = route_ast_dme(inst, skew_spec::zero(), opt);
    const auto vr = eval::verify_route(r, inst, opt.model, skew_spec::zero());
    EXPECT_TRUE(vr.ok) << vr.message;
}

TEST(Routers, StatsClassifyMergeCases) {
    const auto inst = small_instance(80, 6, 14, true);
    const auto r = route_ast_dme(inst);
    EXPECT_EQ(r.stats.merges, static_cast<int>(inst.size()) - 1);
    EXPECT_EQ(r.stats.disjoint_merges + r.stats.shared_merges, r.stats.merges);
    EXPECT_GT(r.stats.disjoint_merges, 0);  // intermingled: plenty of case 2
    EXPECT_GT(r.stats.shared_merges, 0);
}

TEST(Routers, WirelengthLowerBoundSanity) {
    // No tree can use less wire than half the sum of each sink's distance
    // to its nearest other sink (every sink needs a connection).
    const auto inst = small_instance(60, 1, 15, false);
    double lower = 0.0;
    for (std::size_t i = 0; i < inst.size(); ++i) {
        double nn = 1e30;
        for (std::size_t j = 0; j < inst.size(); ++j) {
            if (i == j) continue;
            nn = std::min(nn, geom::manhattan(inst.sinks[i].loc,
                                              inst.sinks[j].loc));
        }
        lower += nn;
    }
    lower *= 0.5;
    const auto r = route_zst_dme(inst);
    EXPECT_GT(r.wirelength, lower);
}

}  // namespace
}  // namespace astclk::core
