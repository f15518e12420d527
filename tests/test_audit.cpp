// Invariant-auditor suite (DESIGN.md §12).  Two halves:
//
//  * self-tests: every audit::verify_* checker runs green on healthy
//    state, then a violation is seeded — a corrupted edge, a stale grid
//    registration, a broken heap order, a leaked scratch lease, books
//    that do not sum — and the checker must name it.  A checker that cannot detect the corruption
//    it claims to guard against is worse than none: it certifies.
//  * checkpoint integration: the `checkpoint` helper counts and throws
//    correctly in every build, and in ASTCLK_AUDIT builds a routed
//    request demonstrably drives the engine's hook sites (the
//    process-wide checkpoint counter moves) while staying green.

#include "core/audit.hpp"
#include "core/dary_heap.hpp"
#include "core/route_context.hpp"
#include "core/strategy.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace astclk::core {
namespace {

topo::instance small_instance(int n) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    return gen::generate(spec);
}

route_result route_small(const topo::instance& inst, routing_context& ctx) {
    routing_request req;
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    route_result res = route(req, ctx);
    EXPECT_TRUE(res.ok()) << res.status_message;
    return res;
}

// ------------------------------------------------------ tree structure

TEST(AuditTree, HealthyRoutedTreePasses) {
    const auto inst = small_instance(40);
    routing_context ctx;
    const route_result res = route_small(inst, ctx);
    EXPECT_EQ(audit::verify_tree_structure(res.tree, inst.sinks.size()), "");
}

TEST(AuditTree, SeededNegativeEdgeFires) {
    const auto inst = small_instance(40);
    routing_context ctx;
    route_result res = route_small(inst, ctx);
    topo::clock_tree t = std::move(res.tree);
    t.node(t.root()).edge_left = -1.0;
    const std::string diag = audit::verify_tree_structure(t, inst.sinks.size());
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("negative"), std::string::npos) << diag;
}

TEST(AuditTree, SeededNegativeCapAndSourceEdgeFire) {
    const auto inst = small_instance(24);
    routing_context ctx;
    route_result res = route_small(inst, ctx);
    topo::clock_tree bad_cap = res.tree;
    bad_cap.node(bad_cap.root()).subtree_cap = -1e-15;
    EXPECT_NE(audit::verify_tree_structure(bad_cap, inst.sinks.size()), "");
    topo::clock_tree bad_src = res.tree;
    bad_src.set_source_edge(-5.0);
    EXPECT_NE(audit::verify_tree_structure(bad_src, inst.sinks.size()), "");
}

TEST(AuditTree, SeededParentChildAsymmetryFires) {
    const auto inst = small_instance(24);
    routing_context ctx;
    route_result res = route_small(inst, ctx);
    topo::clock_tree t = std::move(res.tree);
    // Re-point the root's left child at the root itself: parent/child
    // symmetry breaks, which the delegated check_structure pass reports.
    t.node(t.root()).left = t.root();
    EXPECT_NE(audit::verify_tree_structure(t, inst.sinks.size()), "");
}

// ---------------------------------------------------- grid vs live set

TEST(AuditGrid, HealthyIndexPasses) {
    const auto inst = small_instance(64);
    topo::clock_tree t;
    std::vector<topo::node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<std::int32_t>(i)));
    grid_index g(&t, roots);
    EXPECT_EQ(audit::verify_grid_vs_live_set(g, t), "");

    // Still healthy after churn: erase some, re-insert one.
    g.erase(roots[3]);
    g.erase(roots[10]);
    g.insert(roots[3]);
    EXPECT_EQ(audit::verify_grid_vs_live_set(g, t), "");
}

TEST(AuditGrid, SeededStaleRegistrationFires) {
    const auto inst = small_instance(64);
    topo::clock_tree t;
    std::vector<topo::node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<std::int32_t>(i)));
    grid_index g(&t, roots);
    ASSERT_EQ(audit::verify_grid_vs_live_set(g, t), "");
    // Mutate a registered node's arc *without* re-inserting it — exactly
    // the stale-registration corruption the checker exists to catch (a
    // correct engine always erases, mutates, then re-inserts).
    t.node(roots[7]).arc = t.node(roots[7]).arc.expanded(1e6);
    const std::string diag = audit::verify_grid_vs_live_set(g, t);
    ASSERT_NE(diag, "");
}

// -------------------------------------------------------- heap invariant

TEST(AuditHeap, DaryHeapPassesAndCorruptionFires) {
    std::vector<int> h;
    for (int v : {5, 1, 9, 9, 3, 7, 2, 8, 0, 4, 6, 11, -3})
        dary_push<std::less<int>>(h, v);
    EXPECT_EQ((audit::verify_heap_invariant<std::less<int>>(h)), "");
    dary_pop<std::less<int>>(h);
    EXPECT_EQ((audit::verify_heap_invariant<std::less<int>>(h)), "");

    // Seed: a tail element larger than everything breaks the d-ary order.
    h.back() = 1000;
    const std::string diag = audit::verify_heap_invariant<std::less<int>>(h);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("heap invariant"), std::string::npos) << diag;

    // Binary arity sanity: the template honours D.
    std::vector<int> bin{9, 7, 8, 1, 2, 3, 4};
    EXPECT_EQ((audit::verify_heap_invariant<std::less<int>, 2>(bin)), "");
    bin[3] = 99;  // child of bin[1] under D=2
    EXPECT_NE((audit::verify_heap_invariant<std::less<int>, 2>(bin)), "");
}

// -------------------------------------------------- scratch lease balance

TEST(AuditScratch, BalancedAfterQuiesceLeakWhileLeased) {
    routing_context ctx;
    EXPECT_EQ(audit::verify_scratch_lease_balance(ctx), "");  // nothing yet
    {
        auto a = ctx.scratch();
        auto b = ctx.scratch();
        (void)a;
        (void)b;
        // Two leases outstanding: the imbalance the checker reports when
        // called before quiescing (or after a real leak).
        const std::string diag = audit::verify_scratch_lease_balance(ctx);
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("imbalance"), std::string::npos) << diag;
    }
    // Leases returned on destruction: balanced again.
    EXPECT_EQ(audit::verify_scratch_lease_balance(ctx), "");

    // A full route leaves a quiesced context balanced too.
    const auto inst = small_instance(32);
    (void)route_small(inst, ctx);
    EXPECT_EQ(audit::verify_scratch_lease_balance(ctx), "");
}

// ------------------------------------------------------------ stats books

TEST(AuditStats, RealRunPassesSeededCorruptionsFire) {
    const auto inst = small_instance(48);
    routing_context ctx;
    const route_result res = route_small(inst, ctx);
    ASSERT_EQ(audit::verify_stats_books(res.stats), "");
    EXPECT_EQ(audit::verify_stats_books(engine_stats{}), "");

    engine_stats bad = res.stats;
    ++bad.merges;  // taxonomy no longer sums
    EXPECT_NE(audit::verify_stats_books(bad), "");

    bad = res.stats;
    bad.rejected_pairs = -1;
    EXPECT_NE(audit::verify_stats_books(bad), "");

    bad = res.stats;
    bad.worst_violation = 1e-12;  // violation without any forced merge
    bad.forced_merges = 0;
    EXPECT_NE(audit::verify_stats_books(bad), "");
}

TEST(AuditStats, AccumulatedBooksStillPass) {
    const auto inst = small_instance(48);
    routing_context ctx;
    routing_request req;
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    req.mode = ast_mode::windowed;  // ledger-free: sharding stays enabled
    req.options.engine.shards = 4;
    const route_result res = route(req, ctx);
    ASSERT_TRUE(res.ok()) << res.status_message;
    EXPECT_EQ(res.stats.shards, 4);
    EXPECT_EQ(audit::verify_stats_books(res.stats), "");
}

// -------------------------------------------------- checkpoint integration

TEST(AuditCheckpoint, HelperCountsAndThrows) {
    const std::uint64_t before = audit::checkpoints_run();
    EXPECT_NO_THROW(audit::checkpoint("test-site", ""));
    EXPECT_EQ(audit::checkpoints_run(), before + 1);
    try {
        audit::checkpoint("test-site", "seeded diagnostic");
        FAIL() << "checkpoint did not throw on a non-empty diagnostic";
    } catch (const audit::violation& v) {
        const std::string what = v.what();
        EXPECT_NE(what.find("audit[test-site]"), std::string::npos) << what;
        EXPECT_NE(what.find("seeded diagnostic"), std::string::npos) << what;
    }
    EXPECT_EQ(audit::checkpoints_run(), before + 2);
}

#ifdef ASTCLK_AUDIT
TEST(AuditCheckpoint, AuditBuildDrivesEngineHooks) {
    // In an ASTCLK_AUDIT build a routed request must actually exercise the
    // engine's checkpoint hook sites — and a healthy engine passes them.
    const auto inst = small_instance(48);
    routing_context ctx;
    const std::uint64_t before = audit::checkpoints_run();
    (void)route_small(inst, ctx);
    const std::uint64_t monolithic = audit::checkpoints_run();
    EXPECT_GT(monolithic, before)
        << "ASTCLK_AUDIT build ran a route without hitting any checkpoint";

    routing_request req;  // sharded path: shard/total book audits
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    req.mode = ast_mode::windowed;
    req.options.engine.shards = 3;
    const route_result res = route(req, ctx);
    ASSERT_TRUE(res.ok()) << res.status_message;
    EXPECT_GT(audit::checkpoints_run(), monolithic);
}
#endif

}  // namespace
}  // namespace astclk::core
