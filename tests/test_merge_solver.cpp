// Merge-solver tests covering the paper's four merge cases (Ch. V):
//  1. same group          -> exact DME split, zero skew;
//  2. disjoint groups     -> cost exactly the arc distance, never snakes;
//  3. shared single group -> constrained split, root snaking when the
//                            target is out of range;
//  4. multiple shared groups with conflicting offsets -> interior snaking
//                            (Eq. 5.2) or rejection; forced minimax as the
//                            engine's last resort.

#include "core/merge_solver.hpp"
#include "core/strategy.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "rc/solve.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace astclk::core {
namespace {

using geom::point;
using topo::clock_tree;
using topo::instance;
using topo::node_id;

// A technology with round numbers so hand calculations stay readable.
const rc::delay_model kmodel = rc::delay_model::elmore({0.003, 0.02e-15});

instance make_instance(std::vector<topo::sink> sinks, topo::group_id k) {
    instance inst;
    inst.sinks = std::move(sinks);
    inst.num_groups = k;
    inst.die_width = inst.die_height = 1000.0;
    inst.source = {500.0, 500.0};
    return inst;
}

TEST(MergeSolver, SameGroupZeroSkewBalancedSinks) {
    // Two equal sinks of one group at distance 100: the split lands at the
    // midpoint and the merged delay map is a degenerate interval.
    const auto inst = make_instance(
        {{{0, 0}, 10e-15, 0}, {{100, 0}, 10e-15, 0}}, 1);
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    merge_solver solver(kmodel, skew_spec::zero());
    const auto plan = solver.plan(t, a, b);
    ASSERT_TRUE(plan.has_value());
    EXPECT_NEAR(plan->alpha, 50.0, 1e-6);
    EXPECT_NEAR(plan->beta, 50.0, 1e-6);
    EXPECT_NEAR(plan->cost, 100.0, 1e-9);
    EXPECT_EQ(plan->shared_groups, 1);
    ASSERT_NE(plan->delays.find(0), nullptr);
    EXPECT_NEAR(plan->delays.find(0)->length(), 0.0, 1e-22);
    // Delay value matches the hand calculation e(50, C_sink).
    EXPECT_NEAR(plan->delays.find(0)->lo, kmodel.edge_delay(50.0, 10e-15),
                1e-22);
}

TEST(MergeSolver, SameGroupUnequalLoadsShiftSplit) {
    // A heavier load on one side pulls the merge point toward it.
    const auto inst = make_instance(
        {{{0, 0}, 40e-15, 0}, {{100, 0}, 5e-15, 0}}, 1);
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    merge_solver solver(kmodel, skew_spec::zero());
    const auto plan = solver.plan(t, a, b);
    ASSERT_TRUE(plan.has_value());
    EXPECT_LT(plan->alpha, 50.0);  // closer to the heavy sink
    EXPECT_NEAR(plan->alpha + plan->beta, 100.0, 1e-9);
    // Exact zero skew: both sides arrive simultaneously.
    EXPECT_NEAR(kmodel.edge_delay(plan->alpha, 40e-15),
                kmodel.edge_delay(plan->beta, 5e-15), 1e-24);
}

TEST(MergeSolver, DisjointGroupsCostIsDistanceAndNeverSnakes) {
    // Different groups: merging region is the SDR; cost must be exactly the
    // Manhattan distance no matter how imbalanced the sides are.
    const auto inst = make_instance(
        {{{0, 0}, 10e-15, 0}, {{70, 30}, 10e-15, 1}}, 2);
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    merge_solver solver(kmodel, skew_spec::zero());
    const auto plan = solver.plan(t, a, b);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->shared_groups, 0);
    EXPECT_NEAR(plan->cost, 100.0, 1e-9);
    EXPECT_TRUE(plan->snakes.empty());
    // Both groups present in the merged map.
    EXPECT_NE(plan->delays.find(0), nullptr);
    EXPECT_NE(plan->delays.find(1), nullptr);
}

TEST(MergeSolver, RootSnakeWhenTargetOutOfRange) {
    // Same group, but side A is made much slower by a long pre-existing
    // internal edge; balancing over a short span is impossible, so the
    // solver snakes the B edge and the cost exceeds the distance.
    const auto inst = make_instance(
        {{{0, 0}, 10e-15, 0}, {{10, 0}, 10e-15, 0}, {{20, 0}, 10e-15, 0}}, 1);
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    const node_id c = t.add_leaf(inst, 2);
    merge_solver solver(kmodel, skew_spec::zero());
    // First make a deep subtree over sinks 0 and 1 via a long detour merge:
    // force it by planning a normal merge, then grossly lengthening both
    // edges (simulating accumulated depth).
    auto p1 = solver.plan(t, a, b);
    ASSERT_TRUE(p1.has_value());
    merge_plan deep = *p1;
    deep.alpha += 5000.0;
    deep.beta += 5000.0;
    deep.new_cap += kmodel.wire_cap(10000.0);
    deep.delays.shift_all(kmodel.edge_delay(5000.0, 1e-13));  // roughly
    const node_id ab = solver.commit(t, a, b, deep);
    const auto p2 = solver.plan(t, ab, c);
    ASSERT_TRUE(p2.has_value());
    const double span = t.node(ab).arc.distance(t.node(c).arc);
    EXPECT_GT(p2->cost, span + 1.0);  // had to snake
    EXPECT_NEAR(p2->alpha, 0.0, 1e-9);
    EXPECT_GT(p2->beta, span);
    // Skew still exact: merged interval degenerate.
    EXPECT_NEAR(p2->delays.find(0)->length(), 0.0, 1e-21);
}

TEST(MergeSolver, BoundedSkewUsesWindowInsteadOfSnaking) {
    // With a generous bound the same imbalance fits inside the window and
    // no snake is needed.
    const auto inst = make_instance(
        {{{0, 0}, 10e-15, 0}, {{10, 0}, 30e-15, 0}}, 1);
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    merge_solver tight(kmodel, skew_spec::zero());
    merge_solver loose(kmodel, skew_spec::uniform(1e-9));  // 1000 ps
    const auto pt = tight.plan(t, a, b);
    const auto pl = loose.plan(t, a, b);
    ASSERT_TRUE(pt.has_value() && pl.has_value());
    EXPECT_NEAR(pl->cost, 10.0, 1e-9);
    EXPECT_LE(pl->cost, pt->cost + 1e-9);
    // The loose merge keeps a non-degenerate delay interval within bound.
    EXPECT_LE(pl->delays.find(0)->length(), 1e-9 + 1e-18);
}

// ---------------------------------------------------------------------------
// Case 4 (Fig. 5, Eq. 5.2): two shared groups with conflicting frozen
// offsets, repaired by interior snaking on a clean child edge.
// ---------------------------------------------------------------------------

struct conflict_fixture {
    instance inst;
    clock_tree t;
    node_id left_root = topo::knull_node;   // subtree {G0, G1}, offset ~0
    node_id right_root = topo::knull_node;  // subtree {G0, G1}, offset << 0
};

// Builds two subtrees over groups {G0, G1} whose frozen G0-G1 offsets
// differ.  The left subtree merges two nearby single sinks (the balance
// heuristic aligns them: offset ~0).  On the right, the G1 side is first
// built as a deep two-sink subtree with ~60 ps of internal delay, then a
// G0 sink is attached over a tiny span — balancing is impossible there, so
// the right offset freezes far from zero: exactly the paper's Fig. 5
// situation.
conflict_fixture make_conflict(merge_solver& solver) {
    conflict_fixture f;
    f.inst = make_instance({{{0, 0}, 10e-15, 0},       // left G0
                            {{60, 0}, 10e-15, 1},      // left G1
                            {{2205, 0}, 10e-15, 0},    // right G0
                            {{1200, 0}, 10e-15, 1},    // right G1 pair...
                            {{3200, 0}, 10e-15, 1}},
                           2);
    const node_id a = f.t.add_leaf(f.inst, 0);
    const node_id b = f.t.add_leaf(f.inst, 1);
    const node_id c = f.t.add_leaf(f.inst, 2);
    const node_id d = f.t.add_leaf(f.inst, 3);
    const node_id e = f.t.add_leaf(f.inst, 4);
    auto p1 = solver.plan(f.t, a, b);
    EXPECT_TRUE(p1.has_value());
    f.left_root = solver.commit(f.t, a, b, *p1);
    auto p2 = solver.plan(f.t, d, e);  // deep G1 pair
    EXPECT_TRUE(p2.has_value());
    const node_id g1 = solver.commit(f.t, d, e, *p2);
    auto p3 = solver.plan(f.t, c, g1);  // G0 sink near the G1 arc
    EXPECT_TRUE(p3.has_value());
    f.right_root = solver.commit(f.t, c, g1, *p3);
    return f;
}

TEST(MergeSolver, ConflictingOffsetsRepairedByInteriorSnake) {
    merge_solver solver_for_fixture(kmodel, skew_spec::zero());
    auto f = make_conflict(solver_for_fixture);
    const auto& dl = f.t.node(f.left_root).delays;
    const auto& dr = f.t.node(f.right_root).delays;
    const double off_l = dl.find(0)->lo - dl.find(1)->lo;
    const double off_r = dr.find(0)->lo - dr.find(1)->lo;
    ASSERT_GT(std::fabs(off_l - off_r), 1e-15)
        << "fixture failed to create an offset conflict";

    merge_solver solver(kmodel, skew_spec::zero());
    const auto plan = solver.plan(f.t, f.left_root, f.right_root);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->shared_groups, 2);
    ASSERT_FALSE(plan->snakes.empty());
    EXPECT_DOUBLE_EQ(plan->violation, 0.0);
    // After the repair both groups merge with degenerate intervals.
    EXPECT_NEAR(plan->delays.find(0)->length(), 0.0, 1e-21);
    EXPECT_NEAR(plan->delays.find(1)->length(), 0.0, 1e-21);
    // Committing applies gamma to a real child edge and keeps caps honest.
    const double cap_before = f.t.node(f.right_root).subtree_cap +
                              f.t.node(f.left_root).subtree_cap;
    const node_id top = solver.commit(f.t, f.left_root, f.right_root, *plan);
    EXPECT_GT(f.t.node(top).subtree_cap,
              cap_before + kmodel.wire_cap(plan->alpha + plan->beta) - 1e-30);
}

TEST(MergeSolver, ForcedPlanReportsViolationWhenIrreparable) {
    // Make the interior repair illegal by uniting the groups inside each
    // child subtree (every child of the roots then straddles), so the
    // forced plan must fall back to minimax violation.
    merge_solver solver_for_fixture(kmodel, skew_spec::zero());
    auto f = make_conflict(solver_for_fixture);
    // Tamper: pretend each direct child of both roots contains both groups,
    // which voids the cleanliness condition.
    for (node_id root : {f.left_root, f.right_root}) {
        for (node_id ch : {f.t.node(root).left, f.t.node(root).right}) {
            auto& d = f.t.node(ch).delays;
            d.set(0, geom::interval::at(d.entries().front().second.lo));
            d.set(1, geom::interval::at(d.entries().front().second.lo));
        }
    }
    merge_solver solver(kmodel, skew_spec::zero());
    EXPECT_FALSE(solver.plan(f.t, f.left_root, f.right_root).has_value());
    const merge_plan forced = solver.plan_forced(f.t, f.left_root, f.right_root);
    EXPECT_GT(forced.violation, 0.0);
}

// ---------------------------------------------------------------------------
// Ledger modes.
// ---------------------------------------------------------------------------

TEST(MergeSolver, ExactLedgerPreventsTheConflict) {
    // Same geometry as the conflict fixture, but the ledger constrains the
    // right-hand co-residence merge to the offset committed on the left, so
    // the final merge needs no interior snakes and no repair.
    offset_ledger ledger(2);
    merge_solver solver(kmodel, skew_spec::zero(), &ledger,
                        consistency_mode::exact);
    auto f = make_conflict(solver);
    EXPECT_EQ(ledger.components(), 1);  // bound at first co-residence
    const auto& dl = f.t.node(f.left_root).delays;
    const auto& dr = f.t.node(f.right_root).delays;
    // The constrained right merge reproduces the committed offset exactly.
    EXPECT_NEAR(dl.find(0)->lo - dl.find(1)->lo,
                dr.find(0)->lo - dr.find(1)->lo, 1e-21);
    auto p = solver.plan(f.t, f.left_root, f.right_root);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->snakes.empty());
    EXPECT_DOUBLE_EQ(p->violation, 0.0);
}

TEST(MergeSolver, PathLengthModelMatchesFigureArithmetic) {
    // Under the prior work's linear model the merge point of two sinks at
    // distance 10 with zero skew is simply the midpoint, independent of
    // capacitance.
    const auto inst = make_instance(
        {{{0, 0}, 1e-15, 0}, {{10, 0}, 99e-15, 0}}, 1);
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    merge_solver solver(rc::delay_model::path_length(), skew_spec::zero());
    const auto plan = solver.plan(t, a, b);
    ASSERT_TRUE(plan.has_value());
    EXPECT_NEAR(plan->alpha, 5.0, 1e-9);
    EXPECT_NEAR(plan->beta, 5.0, 1e-9);
}

TEST(MergeSolver, InvertedWindowInsideSpanSplitsWithoutSnaking) {
    // A shared group whose delay intervals are a hair wide gives a zero-
    // skew window inverted by 5e-22 s: inside kdelay_eps, so not empty, but
    // its split bounds cross by ~7.6e-6 units, past klen_eps.  The window
    // sits at D = -1 fs, inside (D(span), 0), so the split must land on it
    // rather than snake the B edge to the wrong side.
    const auto inst = make_instance(
        {{{0, 0}, 10e-15, 0}, {{100, 0}, 10e-15, 0}}, 1);
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    t.node(a).delays.set(0, {0.0, 5e-22});
    t.node(b).delays.set(0, {1e-15, 1e-15});
    const double span = 100.0;
    ASSERT_LT(rc::delay_diff(kmodel, span, 10e-15, 10e-15, span), -1e-15);
    merge_solver solver(kmodel, skew_spec::zero());
    const auto plan = solver.plan(t, a, b);
    ASSERT_TRUE(plan.has_value());
    EXPECT_TRUE(plan->snakes.empty());
    EXPECT_NEAR(plan->alpha + plan->beta, span, 1e-9);
    const double d = kmodel.edge_delay(plan->beta, 10e-15) -
                     kmodel.edge_delay(plan->alpha, 10e-15);
    EXPECT_GE(d, -1e-15 - 1e-21);
    EXPECT_LE(d, -1e-15 + 5e-22 + 1e-21);
    // Both sides of group 0 arrive together, to the same 1e-21 s.
    EXPECT_LE(plan->delays.find(0)->length(), 5e-22 + 1e-21);
}

TEST(MergeSolver, DifficultWindowedRouteVerifies) {
    // 2000 sinks of the l1 placement, six intermingled groups, windowed
    // zero skew: one merge meets an inverted window inside the span (the
    // case above).  Snaking the B edge there (alpha = 0) would leave a
    // 0.4 ps skew error that worst_violation does not report; builds with
    // asserts on trip place_split's assert on this route.
    gen::instance_spec spec = gen::large_spec("l1");
    spec.num_sinks = 2000;
    auto inst = gen::generate(spec);
    gen::apply_intermingled_groups(inst, 6, 1);
    routing_request req;
    req.instance = &inst;
    req.mode = ast_mode::windowed;
    const route_result res = route(req);
    ASSERT_TRUE(res.ok()) << res.status_message;
    eval::verify_options vopt;
    vopt.skew_tolerance = res.stats.worst_violation + 1e-15;
    const auto vr = eval::verify_route(res, inst, req.options.model,
                                       req.spec, vopt);
    EXPECT_TRUE(vr.ok) << vr.message;
}

}  // namespace
}  // namespace astclk::core
