// group_delays bookkeeping tests: merge-walk correctness, bit-exact shifts
// of degenerate intervals (the frozen-skew invariant), shared-group
// queries.

#include "topo/group_map.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace astclk::topo {
namespace {

using geom::interval;

TEST(GroupDelays, SingleLeafState) {
    const auto m = group_delays::single(3);
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(3), nullptr);
    EXPECT_DOUBLE_EQ(m.find(3)->lo, 0.0);
    EXPECT_EQ(m.find(2), nullptr);
}

TEST(GroupDelays, SetInsertsSorted) {
    group_delays m;
    m.set(5, interval::at(1.0));
    m.set(1, interval::at(2.0));
    m.set(3, interval::at(3.0));
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.entries()[0].first, 1);
    EXPECT_EQ(m.entries()[1].first, 3);
    EXPECT_EQ(m.entries()[2].first, 5);
    // Overwrite keeps size.
    m.set(3, interval::at(9.0));
    EXPECT_EQ(m.size(), 3u);
    EXPECT_DOUBLE_EQ(m.find(3)->lo, 9.0);
}

TEST(GroupDelays, ShiftAllPreservesDegeneracyBitExactly) {
    group_delays m;
    m.set(0, interval::at(1.25e-10));
    m.set(7, interval::at(3.5e-11));
    m.shift_all(7.77e-12);
    // lo and hi run through identical arithmetic: still exactly equal.
    EXPECT_EQ(m.find(0)->lo, m.find(0)->hi);
    EXPECT_EQ(m.find(7)->lo, m.find(7)->hi);
    EXPECT_DOUBLE_EQ(m.find(0)->lo, 1.25e-10 + 7.77e-12);
}

TEST(GroupDelays, MergedDisjointKeepsBothSides) {
    const auto a = group_delays::single(0, interval::at(1.0));
    const auto b = group_delays::single(1, interval::at(2.0));
    const auto c = group_delays::merged(a, 0.5, b, 0.25);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_DOUBLE_EQ(c.find(0)->lo, 1.5);
    EXPECT_DOUBLE_EQ(c.find(1)->lo, 2.25);
}

TEST(GroupDelays, MergedSharedTakesHull) {
    group_delays a;
    a.set(0, {1.0, 2.0});
    a.set(1, interval::at(5.0));
    group_delays b;
    b.set(0, {1.5, 3.0});
    b.set(2, interval::at(7.0));
    const auto c = group_delays::merged(a, 1.0, b, 0.0);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_DOUBLE_EQ(c.find(0)->lo, 1.5);  // min(1+1, 1.5+0)
    EXPECT_DOUBLE_EQ(c.find(0)->hi, 3.0);  // max(2+1, 3+0)
    EXPECT_DOUBLE_EQ(c.find(1)->lo, 6.0);
    EXPECT_DOUBLE_EQ(c.find(2)->lo, 7.0);
}

TEST(GroupDelays, SharedAndDisjointQueries) {
    group_delays a;
    a.set(0, interval::at(0.0));
    a.set(2, interval::at(0.0));
    a.set(4, interval::at(0.0));
    group_delays b;
    b.set(1, interval::at(0.0));
    b.set(2, interval::at(0.0));
    b.set(4, interval::at(0.0));
    const auto s = a.shared_with(b);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0], 2);
    EXPECT_EQ(s[1], 4);
    EXPECT_FALSE(a.disjoint_from(b));

    group_delays c;
    c.set(9, interval::at(0.0));
    EXPECT_TRUE(a.disjoint_from(c));
    EXPECT_TRUE(a.shared_with(c).empty());
}

TEST(GroupDelays, SpreadAndOverall) {
    group_delays m;
    m.set(0, {1.0, 2.5});
    m.set(1, {4.0, 4.2});
    EXPECT_DOUBLE_EQ(m.max_spread(), 1.5);
    const auto o = m.overall();
    EXPECT_DOUBLE_EQ(o.lo, 1.0);
    EXPECT_DOUBLE_EQ(o.hi, 4.2);
    EXPECT_TRUE(group_delays().overall().empty());
}

TEST(GroupDelays, GroupsListsIdsAscending) {
    group_delays m;
    m.set(9, interval::at(0.0));
    m.set(4, interval::at(0.0));
    const auto g = m.groups();
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0], 4);
    EXPECT_EQ(g[1], 9);
}

TEST(Instance, ValidateCatchesProblems) {
    instance inst;
    EXPECT_NE(inst.validate(), "");  // no sinks

    inst.sinks.push_back({{0, 0}, 1e-15, 0});
    inst.num_groups = 1;
    EXPECT_EQ(inst.validate(), "");

    inst.sinks.push_back({{1, 1}, 1e-15, 5});  // group out of range
    EXPECT_NE(inst.validate(), "");

    inst.sinks[1].group = 0;
    inst.sinks[1].cap = -1.0;  // negative cap
    EXPECT_NE(inst.validate(), "");

    inst.sinks[1].cap = 1e-15;
    inst.num_groups = 2;  // group 1 has no members
    EXPECT_NE(inst.validate(), "");
}

TEST(Instance, ValidateRejectsNonFiniteValues) {
    instance inst;
    inst.sinks = {{{0, 0}, 1e-15, 0}, {{1, 1}, 1e-15, 0}};
    ASSERT_EQ(inst.validate(), "");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    inst.sinks[1].cap = nan;  // NaN passes a `cap < 0` check
    EXPECT_NE(inst.validate(), "");
    inst.sinks[1].cap = inf;
    EXPECT_NE(inst.validate(), "");
    inst.sinks[1].cap = 1e-15;

    inst.sinks[1].loc.x = nan;
    EXPECT_NE(inst.validate(), "");
    inst.sinks[1].loc.x = 1.0;
    inst.sinks[1].loc.y = -inf;
    EXPECT_NE(inst.validate(), "");
    inst.sinks[1].loc.y = 1.0;

    inst.source.x = inf;
    EXPECT_NE(inst.validate(), "");
    inst.source.x = 0.0;
    EXPECT_EQ(inst.validate(), "");
}

TEST(Instance, GroupMembers) {
    instance inst;
    inst.num_groups = 2;
    inst.sinks = {{{0, 0}, 1e-15, 0}, {{1, 0}, 1e-15, 1}, {{2, 0}, 1e-15, 0}};
    const auto g0 = inst.group_members(0);
    ASSERT_EQ(g0.size(), 2u);
    EXPECT_EQ(g0[0], 0);
    EXPECT_EQ(g0[1], 2);
}

}  // namespace
}  // namespace astclk::topo
