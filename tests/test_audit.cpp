// Invariant-auditor suite (DESIGN.md §12).  Two halves:
//
//  * self-tests: every audit::verify_* checker runs green on healthy
//    state, then a violation is seeded — a corrupted edge, a stale grid
//    registration, a broken heap order or position map, a selection entry
//    that disagrees with its record, a record that is not its root's
//    nearest unbanned partner, a stale live ban degree, a wrong
//    disjoint-children flag, a leaked scratch lease, books that do not
//    sum — and the checker must name it.  A checker that cannot detect
//    the corruption it claims to guard against is worse than none: it
//    certifies.
//  * checkpoint integration: the `checkpoint` helper counts and throws
//    correctly in every build, and in ASTCLK_AUDIT builds a routed
//    request demonstrably drives the engine's hook sites (the
//    process-wide checkpoint counter moves) while staying green.

#include "core/audit.hpp"
#include "core/dary_heap.hpp"
#include "core/route_context.hpp"
#include "core/strategy.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include "oracle.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
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

TEST(AuditTree, SeededDisjointChildrenFlagFires) {
    auto inst = small_instance(40);
    gen::apply_intermingled_groups(inst, 4, 1);
    routing_context ctx;
    const route_result res = route_small(inst, ctx);
    ASSERT_EQ(audit::verify_tree_structure(res.tree, inst.sinks.size()), "");
    // Flip one flag of each value, and set one on a leaf.
    topo::node_id set = topo::knull_node, clear = topo::knull_node,
                  leaf = topo::knull_node;
    for (std::size_t i = 0; i < res.tree.size(); ++i) {
        const auto id = static_cast<topo::node_id>(i);
        const topo::tree_node& n = res.tree.node(id);
        (n.is_leaf() ? leaf : n.disjoint_children ? set : clear) = id;
    }
    ASSERT_NE(set, topo::knull_node);
    ASSERT_NE(clear, topo::knull_node);
    for (const topo::node_id id : {set, clear, leaf}) {
        topo::clock_tree t = res.tree;
        t.node(id).disjoint_children = !t.node(id).disjoint_children;
        const std::string diag =
            audit::verify_tree_structure(t, inst.sinks.size());
        ASSERT_NE(diag, "") << "node " << id;
        EXPECT_NE(diag.find("flags its children"), std::string::npos) << diag;
    }
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

// ------------------------------------------------- heaps and NN records

/// Entry shapes of the engine's two heaps (engine.cpp): a selection entry
/// (key, dist, owner a, partner b) and a radius entry (dist, owner a).
struct sel_entry {
    double key;
    double dist;
    topo::node_id a, b;
};
struct sel_before {
    bool operator()(const sel_entry& x, const sel_entry& y) const {
        if (x.key != y.key) return x.key < y.key;
        if (x.a != y.a) return x.a < y.a;
        return x.b < y.b;
    }
};
struct rad_entry {
    double dist;
    topo::node_id a;
};
struct rad_before {
    bool operator()(const rad_entry& x, const rad_entry& y) const {
        return x.dist > y.dist;
    }
};
using sel_heap = addressable_heap<sel_entry, sel_before, &sel_entry::a>;
using rad_heap = addressable_heap<rad_entry, rad_before, &rad_entry::a>;

TEST(AuditHeap, HealthyHeapPassesSeededOrderAndPositionCorruptionsFire) {
    sel_heap h;
    for (int a : {5, 1, 9, 3, 7, 2, 8, 0, 4, 6, 11, 12, 13})
        h.set({static_cast<double>(a % 5), 0.0, a, a + 1});
    h.erase(9);
    h.set({-1.0, 0.0, 6, 2});  // re-key in place
    ASSERT_EQ(audit::verify_heap_invariant(h), "");

    // Seed 1: an entry's key drops below its parent's (heap order).
    auto items = h.items();
    items.back().key = -100.0;
    std::string diag = audit::verify_heap_invariant<sel_heap>(items,
                                                              h.positions());
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("heap invariant"), std::string::npos) << diag;

    // Seed 2: an owner mapped to the wrong slot.
    auto pos = h.positions();
    std::swap(pos[static_cast<std::size_t>(h.items()[1].a)],
              pos[static_cast<std::size_t>(h.items()[2].a)]);
    diag = audit::verify_heap_invariant<sel_heap>(h.items(), pos);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("position map"), std::string::npos) << diag;

    // Seed 3: an owner without an entry still mapped (a stale position).
    pos = h.positions();
    pos[9] = 0;
    diag = audit::verify_heap_invariant<sel_heap>(h.items(), pos);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("position map"), std::string::npos) << diag;
}

/// Leaves of a small instance as active roots, with their exact nearest
/// unbanned partners as records — the state the engine keeps.
struct record_fixture {
    topo::instance inst = small_instance(40);
    topo::clock_tree t;
    std::vector<topo::node_id> active;
    std::unordered_set<std::uint64_t> banned;
    std::vector<topo::node_id> nn_to;
    std::vector<double> nn_dist;
    sel_heap sel;
    rad_heap rad;

    record_fixture() {
        for (std::size_t i = 0; i < inst.sinks.size(); ++i)
            active.push_back(t.add_leaf(inst, static_cast<std::int32_t>(i)));
        // Ban every 7th leaf's nearest pair, so some records skip a
        // closer, banned partner.
        for (std::size_t k = 0; k < active.size(); k += 7)
            banned.insert(pair_key(
                active[k], oracle::scan_nearest(t, active, active[k])->first));
        nn_to.assign(t.size(), topo::knull_node);
        nn_dist.assign(t.size(), 0.0);
        for (const topo::node_id i : active) {
            const auto n = oracle::scan_nearest(t, active, i, banned);
            const auto si = static_cast<std::size_t>(i);
            nn_to[si] = n->first;
            nn_dist[si] = n->second;
            sel.set({n->second, n->second, i, n->first});
            rad.set({n->second, i});
        }
    }
    [[nodiscard]] std::string records() const {
        return audit::verify_selection_records(sel, rad, active, nn_to,
                                               nn_dist);
    }
    [[nodiscard]] std::string nn() const {
        return audit::verify_nn_records(t, active, nn_to, nn_dist, banned);
    }
};

TEST(AuditRecords, HealthyRecordsPassSeededMismatchesFire) {
    const record_fixture f;
    ASSERT_EQ(f.records(), "");
    ASSERT_EQ(f.nn(), "");

    // Seed 1: a selection entry whose partner is not nn_to[owner].
    const topo::node_id a = f.active[3];
    const auto sa = static_cast<std::size_t>(a);
    {
        record_fixture g;
        g.sel.set({g.nn_dist[sa], g.nn_dist[sa], a, g.active[20]});
        const std::string diag = g.records();
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("selection entry"), std::string::npos) << diag;
    }
    // Seed 2: a record without a radius entry.
    {
        record_fixture g;
        g.rad.erase(sa);
        EXPECT_NE(g.records(), "");
    }
    // Seed 3: an erased root whose entry outlived it.
    {
        record_fixture g;
        g.nn_to[sa] = topo::knull_node;
        EXPECT_NE(g.records(), "");
    }
}

TEST(AuditRecords, RecordThatIsNotTheNearestUnbannedPartnerFires) {
    // Seed 1: a record pointing past its root's nearest partner.
    {
        record_fixture f;
        const auto s0 = static_cast<std::size_t>(f.active[0]);
        for (const topo::node_id j : f.active)
            if (j != f.active[0] && j != f.nn_to[s0]) {
                f.nn_to[s0] = j;
                break;
            }
        const std::string diag = f.nn();
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("nearest unbanned partner"), std::string::npos)
            << diag;
    }
    // Seed 2: the recorded pair is banned without a recompute — exactly
    // the state a rejection floor must never see.
    {
        record_fixture f;
        const topo::node_id i = f.active[5];
        f.banned.insert(pair_key(i, f.nn_to[static_cast<std::size_t>(i)]));
        EXPECT_NE(f.nn(), "");
    }
    // Seed 3: a starved record (knull) for a root that has a partner.
    {
        record_fixture f;
        f.nn_to[static_cast<std::size_t>(f.active[9])] = topo::knull_node;
        EXPECT_NE(f.nn(), "");
    }
}

// ---------------------------------------------------- live ban degrees

TEST(AuditBans, LiveDegreesPassSeededStaleDegreesFire) {
    // Roots 0-9 are active; 10 and 11 merged away.  Root 3's bans were
    // all with the retired roots, so its live degree is back to zero.
    const std::vector<topo::node_id> active{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    const std::unordered_set<std::uint64_t> banned{
        pair_key(0, 1), pair_key(0, 2),  pair_key(1, 2),
        pair_key(3, 10), pair_key(3, 11), pair_key(10, 11)};
    std::vector<std::uint32_t> live(12, 0);
    live[0] = live[1] = live[2] = 2;
    ASSERT_EQ(audit::verify_ban_degrees(active, banned, live), "");
    // Ids beyond the table have degree zero.
    EXPECT_EQ(audit::verify_ban_degrees(
                  active, banned, {live.begin(), live.begin() + 3}),
              "");

    // Seed 1: a retirement that never reached its partner.
    {
        auto stale = live;
        stale[3] = 1;
        const std::string diag =
            audit::verify_ban_degrees(active, banned, stale);
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("root 3"), std::string::npos) << diag;
    }
    // Seed 2: a ban that was never counted.
    {
        auto low = live;
        --low[1];
        EXPECT_NE(audit::verify_ban_degrees(active, banned, low), "");
    }
    // Seed 3: a table too short for a root that carries bans.
    EXPECT_NE(audit::verify_ban_degrees(active, banned,
                                        {live.begin(), live.begin() + 1}),
              "");
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
