// The engine's one nearest-neighbour index against the definitions
// (tests/oracle.hpp):
//
//  * index level: `nearest_if` (ring walk) and `nearest_scan_if` answer
//    every query — same partner id, same distance, same deterministic
//    tie-breaks — like `scan_nearest`, under bans, floors, churn and
//    occupancy-adaptive rebuilds, and `for_each_within` reports every
//    active root within the radius with its exact distance;
//  * engine level: the nearest-pair engine builds the tree that
//    `reference_reduce` builds by the merge order's definition, so the
//    engine's records, heaps, ban bookkeeping, rejection floors and
//    post-commit fold-in are checked against a reducer that has none of
//    them.

#include "core/audit.hpp"
#include "core/engine.hpp"
#include "core/grid_index.hpp"
#include "core/router.hpp"
#include "core/strategy.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "gen/rng.hpp"

#include "oracle.hpp"

#include <gtest/gtest.h>

#include <bit>

#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>

namespace astclk::core {
namespace {

using oracle::bans_t;
using oracle::scan_nearest;
using topo::clock_tree;
using topo::instance;
using topo::node_id;

instance seeded_instance(int n, std::uint64_t seed, bool intermingled,
                         int groups) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    spec.seed = seed;
    auto inst = gen::generate(spec);
    if (groups > 1) {
        if (intermingled)
            gen::apply_intermingled_groups(inst, groups, seed + 1);
        else
            gen::apply_clustered_groups(inst, groups);
    }
    return inst;
}

/// Compare every query of the grid with the scan, with and without a ban
/// set.
void expect_index_equivalence(const clock_tree& t,
                              const std::vector<node_id>& roots,
                              std::uint64_t ban_seed) {
    grid_index grid(&t, roots);
    ASSERT_EQ(grid.size(), roots.size());

    // Random symmetric ban set over ~10% of pairs.
    gen::rng rng(ban_seed);
    bans_t bans;
    for (node_id a : roots)
        for (int k = 0; k < 2; ++k) {
            const auto b = roots[static_cast<std::size_t>(
                rng.below(roots.size()))];
            if (a != b) bans.insert(pair_key(a, b));
        }
    const auto no_ban = [](std::uint64_t) { return false; };
    const auto with_ban = [&](std::uint64_t k) { return bans.count(k) > 0; };

    for (node_id id : roots) {
        const auto l0 = scan_nearest(t, roots, id);
        const auto g0 = grid.nearest_if(id, no_ban);
        ASSERT_EQ(l0.has_value(), g0.has_value()) << "id " << id;
        if (l0.has_value()) {
            EXPECT_EQ(l0->first, g0->first) << "id " << id;
            EXPECT_EQ(l0->second, g0->second) << "id " << id;
        }
        const auto l1 = scan_nearest(t, roots, id, bans);
        const auto g1 = grid.nearest_if(id, with_ban);
        ASSERT_EQ(l1.has_value(), g1.has_value()) << "id " << id << " (bans)";
        if (l1.has_value()) {
            EXPECT_EQ(l1->first, g1->first) << "id " << id << " (bans)";
            EXPECT_EQ(l1->second, g1->second) << "id " << id << " (bans)";
        }
    }
}

TEST(GridIndex, MatchesScanOnClusteredAndIntermingledLeaves) {
    for (const bool intermingled : {false, true}) {
        for (const std::uint64_t seed : {3u, 11u, 29u}) {
            const auto inst = seeded_instance(180, seed, intermingled, 6);
            clock_tree t;
            std::vector<node_id> roots;
            for (std::size_t i = 0; i < inst.sinks.size(); ++i)
                roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
            expect_index_equivalence(t, roots, seed * 7 + 1);
        }
    }
}

TEST(GridIndex, MatchesScanWithLongMergedArcs) {
    // Mix leaves with synthetic internal nodes carrying long Manhattan
    // arcs (hulls of distant leaf pairs), the shape the engine produces
    // mid-run; long arcs span many grid cells.
    const auto inst = seeded_instance(120, 5, true, 4);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    gen::rng rng(99);
    std::vector<node_id> active = roots;
    for (int k = 0; k < 40; ++k) {
        const auto ia = static_cast<std::size_t>(rng.below(active.size()));
        auto ib = static_cast<std::size_t>(rng.below(active.size()));
        if (ia == ib) ib = (ib + 1) % active.size();
        const node_id a = active[std::min(ia, ib)];
        const node_id b = active[std::max(ia, ib)];
        // Degenerate-in-u hull: a Manhattan arc spanning the two nodes.
        const geom::tilted_rect hull = t.node(a).arc.hull(t.node(b).arc);
        const geom::tilted_rect arc{geom::interval::at(hull.u().mid()),
                                    hull.v()};
        const node_id c =
            t.add_internal(a, b, arc, 0.0, 0.0, 0.0, t.node(a).delays);
        active.erase(active.begin() +
                     static_cast<std::ptrdiff_t>(std::max(ia, ib)));
        active.erase(active.begin() +
                     static_cast<std::ptrdiff_t>(std::min(ia, ib)));
        active.push_back(c);
    }
    expect_index_equivalence(t, active, 123);
}

TEST(GridIndex, EraseReinsertKeepsAnswersConsistent) {
    const auto inst = seeded_instance(90, 41, true, 3);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    grid_index grid(&t, roots);
    gen::rng rng(7);
    const auto no_ban = [](std::uint64_t) { return false; };
    // Random erase / reinsert churn, checking equivalence and the grid's
    // registration invariant throughout.
    std::vector<node_id> in = roots, out;
    for (int step = 0; step < 60; ++step) {
        if (!in.empty() && (out.empty() || rng.below(3) != 0)) {
            const auto k = static_cast<std::size_t>(rng.below(in.size()));
            const node_id id = in[k];
            grid.erase(id);
            in.erase(in.begin() + static_cast<std::ptrdiff_t>(k));
            out.push_back(id);
        } else {
            const node_id id = out.back();
            out.pop_back();
            grid.insert(id);
            in.push_back(id);
        }
        ASSERT_EQ(audit::verify_grid_vs_live_set(grid, t), "")
            << "step " << step;
        ASSERT_EQ(in.size(), grid.size());
        for (const node_id id : in) {
            const auto l = scan_nearest(t, in, id);
            const auto g = grid.nearest_if(id, no_ban);
            ASSERT_EQ(l.has_value(), g.has_value());
            if (l.has_value()) {
                ASSERT_EQ(l->first, g->first);
                ASSERT_EQ(l->second, g->second);
            }
        }
    }
}

TEST(GridIndex, TinyPopulationsKeepMinimumCellResolution) {
    // Sizing clamp for small populations (sub-reduction shards): a tiny
    // root set spread over a wide extent must still get a grid of at
    // least kmin_cells_per_axis cells along its longer axis — sqrt-sizing
    // alone would hand it a near-degenerate few-cell grid whose ring
    // visits scan most of the population (a linear scan paying grid
    // overhead).  Answers stay exact either way; the clamp (and this
    // test) is about the cell resolution itself.
    for (const int n : {2, 5, 16, 48, 63}) {
        const auto inst = seeded_instance(n, 77, false, 1);
        clock_tree t;
        std::vector<node_id> roots;
        for (std::size_t i = 0; i < inst.sinks.size(); ++i)
            roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
        const grid_index grid(&t, roots);
        EXPECT_GE(std::max(grid.cells_u(), grid.cells_v()), 8) << "n=" << n;
        // ...and the clamped grid still answers exactly like the scan,
        // bans included.
        expect_index_equivalence(t, roots, 77 + static_cast<unsigned>(n));
    }
    // Past the clamp region sqrt-sizing takes over unchanged.
    const auto inst = seeded_instance(256, 78, false, 1);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    const grid_index grid(&t, roots);
    EXPECT_GE(std::max(grid.cells_u(), grid.cells_v()), 16);
}

// ------------------------------------------------------ lexicographic floor

/// Random symmetric ban set over roughly `per_root` pairs per root.
bans_t random_bans(const std::vector<node_id>& active, std::uint64_t seed,
                   int per_root) {
    gen::rng rng(seed);
    bans_t bans;
    for (const node_id a : active)
        for (int k = 0; k < per_root; ++k) {
            const node_id b = active[static_cast<std::size_t>(
                rng.below(active.size()))];
            if (a != b) bans.insert(pair_key(a, b));
        }
    return bans;
}

/// The grid's ring walk and dense scan agree with scan_nearest on every
/// query of the active roots under every floor a query can meet: none; each
/// candidate's own (d, id) — the record the engine floors at after a
/// rejection — with the id one below and one above (equal-distance ties
/// on both sides of the floor id); and the candidate's distance one ulp
/// below and above.
/// Returns how many floors had equal-distance candidates on both sides of
/// the floor id, so callers can assert their fixture exercises that case.
int expect_floored_queries_exact(const clock_tree& t,
                                 const std::vector<node_id>& roots,
                                 const std::vector<node_id>& inserted,
                                 const bans_t& bans) {
    grid_index grid(&t, roots);
    std::vector<node_id> active = roots;
    for (const node_id id : inserted) {  // sized without them, as mid-run
        grid.insert(id);
        active.push_back(id);
    }
    const auto probe = [&bans](std::uint64_t k) { return bans.count(k) != 0; };
    int two_sided_ties = 0;
    const auto check = [&](node_id id, nn_floor floor) {
        const auto want = scan_nearest(t, active, id, bans, floor);
        const auto g = grid.nearest_if(id, probe, floor);
        const auto gs = grid.nearest_scan_if(id, probe, floor);
        ASSERT_EQ(want.has_value(), g.has_value())
            << "id " << id << " floor (" << floor.d << ", " << floor.id << ")";
        ASSERT_EQ(want.has_value(), gs.has_value())
            << "id " << id << " floor (" << floor.d << ", " << floor.id
            << ") (scan)";
        if (!want.has_value()) return;
        EXPECT_EQ(want->first, g->first)
            << "id " << id << " floor (" << floor.d << ", " << floor.id << ")";
        EXPECT_EQ(want->second, g->second) << "id " << id;
        EXPECT_EQ(want->first, gs->first)
            << "id " << id << " floor (" << floor.d << ", " << floor.id
            << ") (scan)";
        EXPECT_EQ(want->second, gs->second) << "id " << id << " (scan)";
    };
    constexpr double kinf = std::numeric_limits<double>::infinity();
    for (const node_id id : active) {
        check(id, nn_floor{});
        for (const node_id j : active) {
            if (j == id) continue;
            const double d = t.node(id).arc.distance(t.node(j).arc);
            bool below = false, above = false;
            for (const node_id k : active)
                if (k != id && k != j &&
                    t.node(id).arc.distance(t.node(k).arc) == d)
                    (k < j ? below : above) = true;
            if (below && above) ++two_sided_ties;
            check(id, {d, j});
            check(id, {d, j - 1});
            check(id, {d, j + 1});
            check(id, {std::nextafter(d, -kinf), j});
            check(id, {std::nextafter(d, kinf), j});
        }
    }
    return two_sided_ties;
}

TEST(GridIndex, FloorMatchesScanOnRandomArcs) {
    // Leaves plus long merged arcs (the engine's mid-run shapes), random
    // bans, and every floor a query can meet.
    const auto inst = seeded_instance(90, 61, true, 4);
    clock_tree t;
    std::vector<node_id> leaves;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        leaves.push_back(t.add_leaf(inst, static_cast<int>(i)));
    std::vector<node_id> roots(leaves.begin(), leaves.begin() + 70);
    std::vector<node_id> merged;
    for (std::size_t k = 70; k + 1 < leaves.size(); k += 2) {
        const geom::tilted_rect hull =
            t.node(leaves[k - 60]).arc.hull(t.node(leaves[k - 30]).arc);
        merged.push_back(t.add_internal(
            leaves[k], leaves[k + 1],
            {geom::interval::at(hull.u().mid()), hull.v()}, 0.0, 0.0, 0.0,
            t.node(leaves[k]).delays));
    }
    std::vector<node_id> all = roots;
    all.insert(all.end(), merged.begin(), merged.end());
    for (const std::uint64_t seed : {5u, 6u})
        expect_floored_queries_exact(t, roots, merged,
                                     random_bans(all, seed, 2));
    // Dense bans, the regime where the engine answers by the dense scan:
    // every root is banned with at least half the active set, and one
    // leaf and one merged arc with all of it.
    bans_t dense = random_bans(all, 7, 40);
    for (const node_id starved : {roots[3], merged[2]})
        for (const node_id j : all)
            if (j != starved) dense.insert(pair_key(starved, j));
    for (const node_id i : all) {
        std::size_t deg = 0;
        for (const node_id j : all) deg += dense.count(pair_key(i, j));
        EXPECT_GE(2 * deg, all.size()) << "root " << i;
    }
    expect_floored_queries_exact(t, roots, merged, dense);
}

TEST(GridIndex, FloorMatchesOnLatticeTiesBoundariesAndClampedArcs) {
    // Sinks on a tilted-space lattice of pitch 4 over [0, 64]^2: 62 roots
    // size the grid to 8 cells of side 8 per axis, so every other lattice
    // line is a cell boundary, equal distances are the rule and random
    // picks coincide.  Arcs inserted afterwards cover the remaining
    // shapes: zero-extent and boundary-aligned arcs, a coincident pair,
    // and arcs clamped into the border cells from outside the sizing box.
    topo::instance inst;
    const auto add_sink = [&inst](double u, double v) {
        topo::sink s;
        s.loc = geom::tilted_point{u, v}.to_real();
        s.cap = 1e-15;
        inst.sinks.push_back(s);
    };
    add_sink(0.0, 0.0);
    add_sink(64.0, 64.0);  // the two corners pin the sizing box
    gen::rng rng(2024);
    for (int k = 0; k < 60; ++k)
        add_sink(4.0 * static_cast<double>(rng.below(17)),
                 4.0 * static_cast<double>(rng.below(17)));
    const std::size_t nroots = inst.sinks.size();
    for (int k = 0; k < 2 * 9; ++k) add_sink(0.0, 0.0);  // internal children
    clock_tree t;
    std::vector<node_id> roots, spare;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        (i < nroots ? roots : spare)
            .push_back(t.add_leaf(inst, static_cast<int>(i)));
    {
        const grid_index sized(&t, roots);
        ASSERT_EQ(sized.cells_u(), 9);  // floor(64 / 8) + 1: cell side 8
        ASSERT_EQ(sized.cells_v(), 9);
    }
    using geom::interval;
    const std::vector<geom::tilted_rect> arcs{
        {interval::at(16.0), interval::at(24.0)},  // point on a cell corner
        t.node(roots[5]).arc,                      // coincides with a leaf
        {interval::at(8.0), interval(8.0, 40.0)},  // segment on a boundary
        {interval(24.0, 40.0), interval(32.0, 48.0)},  // box on boundaries
        {interval(44.0, 44.0), interval(12.0, 20.0)},  // coincident pair ...
        {interval(44.0, 44.0), interval(12.0, 20.0)},  // ... of segments
        {interval(80.0, 90.0), interval(-20.0, -10.0)},  // clamped, both axes
        {interval(-6.0, 6.0), interval(60.0, 70.0)},     // straddles the box
        {interval::at(200.0), interval::at(200.0)},      // far outside
    };
    std::vector<node_id> inserted;
    for (std::size_t k = 0; k < arcs.size(); ++k)
        inserted.push_back(t.add_internal(spare[2 * k], spare[2 * k + 1],
                                          arcs[k], 0.0, 0.0, 0.0,
                                          t.node(spare[2 * k]).delays));
    std::vector<node_id> all = roots;
    all.insert(all.end(), inserted.begin(), inserted.end());
    EXPECT_GT(expect_floored_queries_exact(t, roots, inserted, {}), 0);
    EXPECT_GT(expect_floored_queries_exact(t, roots, inserted,
                                           random_bans(all, 77, 3)),
              0);
}

TEST(GridIndex, OccupancyAdaptiveRebuildKeepsAnswersExact) {
    // Shrink the active set the way the engine does (erasures dominate);
    // the occupancy-adaptive rebuild must fire as the population collapses
    // and must never change a nearest-neighbour answer or the grid's
    // registration invariant.
    const auto inst = seeded_instance(300, 51, true, 6);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    grid_index grid(&t, roots);
    EXPECT_EQ(grid.rebuilds(), 0);
    ASSERT_EQ(audit::verify_grid_vs_live_set(grid, t), "");

    gen::rng rng(13);
    const auto no_ban = [](std::uint64_t) { return false; };
    std::vector<node_id> in = roots;
    int last_rebuilds = 0;
    while (in.size() > 2) {
        const auto k = static_cast<std::size_t>(rng.below(in.size()));
        const node_id id = in[k];
        grid.erase(id);
        in.erase(in.begin() + static_cast<std::ptrdiff_t>(k));
        ASSERT_EQ(audit::verify_grid_vs_live_set(grid, t), "")
            << "after erasing " << id;
        const bool just_rebuilt = grid.rebuilds() != last_rebuilds;
        last_rebuilds = grid.rebuilds();
        // Full equivalence sweep right after each rebuild and periodically.
        if (just_rebuilt || in.size() % 16 == 0) {
            for (const node_id q : in) {
                const auto l = scan_nearest(t, in, q);
                const auto g = grid.nearest_if(q, no_ban);
                ASSERT_EQ(l.has_value(), g.has_value());
                if (l.has_value()) {
                    ASSERT_EQ(l->first, g->first) << "id " << q;
                    ASSERT_EQ(l->second, g->second) << "id " << q;
                }
            }
        }
    }
    // 300 -> 74 -> 18: at least two adaptive rebuilds on the way down.
    EXPECT_GE(grid.rebuilds(), 2);
}

// ------------------------------------------------------- radius queries

TEST(GridIndex, ForEachWithinReportsEveryRootInRadiusExactly) {
    // Leaves, long merged arcs and arcs clamped from outside the sizing
    // box, queried with random rects (inside, straddling and outside the
    // box) and radii (zero, random, and exactly some root's distance)
    // while erasures drive the occupancy-adaptive rebuilds.  Every active
    // root within the radius must be reported at least once, each report
    // must carry the root's `tilted_rect::distance` to the rect bitwise,
    // and no inactive id may be reported.
    const auto inst = seeded_instance(340, 71, true, 6);
    clock_tree t;
    std::vector<node_id> leaves;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        leaves.push_back(t.add_leaf(inst, static_cast<int>(i)));
    std::vector<node_id> in(leaves.begin(), leaves.begin() + 300);
    geom::tilted_rect box = t.node(in.front()).arc;
    for (const node_id id : in) box = box.hull(t.node(id).arc);
    const double span = std::max(box.u().length(), box.v().length());
    const auto at = [&](double fu, double fv) {  // box-relative point
        return geom::tilted_point{box.u().lo + fu * span,
                                  box.v().lo + fv * span};
    };
    gen::rng rng(2718);
    const auto unit = [&rng] {
        return static_cast<double>(rng.below(1u << 20)) / (1u << 20);
    };
    grid_index grid(&t, in);
    // 20 arcs inserted after sizing, as mid-run: Manhattan arcs spanning
    // two distant leaves, and boxes beyond or across the sizing box.
    using geom::interval;
    for (std::size_t k = 300; k + 1 < leaves.size(); k += 2) {
        geom::tilted_rect arc;
        if (k % 4 == 0) {
            const geom::tilted_rect hull =
                t.node(in[rng.below(in.size())]).arc.hull(
                    t.node(in[rng.below(in.size())]).arc);
            arc = {interval::at(hull.u().mid()), hull.v()};
        } else {
            const geom::tilted_point lo =
                at(-0.4 + 1.8 * unit(), -0.4 + 1.8 * unit());
            arc = {interval(lo.u, lo.u + 0.3 * span * unit()),
                   interval(lo.v, lo.v + 0.3 * span * unit())};
        }
        const node_id c = t.add_internal(leaves[k], leaves[k + 1], arc, 0.0,
                                         0.0, 0.0, t.node(leaves[k]).delays);
        grid.insert(c);
        in.push_back(c);
    }
    std::vector<char> active(t.size(), 0);
    for (const node_id id : in) active[static_cast<std::size_t>(id)] = 1;

    int queries = 0, reported = 0;
    const auto check = [&](const geom::tilted_rect& q, double radius) {
        std::vector<char> seen(t.size(), 0);
        grid.for_each_within(q, radius, [&](node_id id, double d) {
            ASSERT_GE(id, 0);
            ASSERT_LT(static_cast<std::size_t>(id), t.size());
            ASSERT_EQ(active[static_cast<std::size_t>(id)], 1)
                << "inactive id " << id << " reported";
            ASSERT_EQ(std::bit_cast<std::uint64_t>(d),
                      std::bit_cast<std::uint64_t>(t.node(id).arc.distance(q)))
                << "id " << id;
            seen[static_cast<std::size_t>(id)] = 1;
        });
        ++queries;
        for (const node_id id : in)
            if (t.node(id).arc.distance(q) <= radius) {
                ASSERT_EQ(seen[static_cast<std::size_t>(id)], 1)
                    << "id " << id << " at " << t.node(id).arc.distance(q)
                    << " within radius " << radius << " not reported";
                ++reported;
            }
    };
    while (in.size() > 4) {
        for (int k = 0; k < 12; ++k) {
            const geom::tilted_point lo =
                at(-0.3 + 1.6 * unit(), -0.3 + 1.6 * unit());
            const double wu = k % 3 == 0 ? 0.0 : 0.2 * span * unit();
            const double wv = k % 3 == 1 ? 0.0 : 0.2 * span * unit();
            const geom::tilted_rect q{interval(lo.u, lo.u + wu),
                                      interval(lo.v, lo.v + wv)};
            const node_id j = in[rng.below(in.size())];
            const double radius = k % 4 == 0   ? 0.0
                                  : k % 4 == 1 ? t.node(j).arc.distance(q)
                                               : 0.3 * span * unit();
            check(q, radius);
            check(t.node(j).arc, radius);  // an active root's own arc
        }
        for (int k = 0; k < 8 && in.size() > 4; ++k) {
            const auto x = static_cast<std::size_t>(rng.below(in.size()));
            grid.erase(in[x]);
            active[static_cast<std::size_t>(in[x])] = 0;
            in.erase(in.begin() + static_cast<std::ptrdiff_t>(x));
        }
        ASSERT_EQ(audit::verify_grid_vs_live_set(grid, t), "");
    }
    EXPECT_GE(grid.rebuilds(), 2);
    EXPECT_GT(reported, queries);  // the radii are not all vacuous
}

// ------------------------------------------------ reference merge order

/// The engine's route of `req` must be reference_reduce's: the engine
/// statistics the reference keeps bitwise and every node's children, arc
/// and edge lengths.  Folds the reference's counters into `seen`.
void expect_reference_route(const routing_request& req,
                            const std::string& what, engine_stats& seen) {
    const route_result got = route(req);
    const route_result want = oracle::reference_reduce(req);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status_message;
    EXPECT_EQ(got.wirelength, want.wirelength) << what;
    EXPECT_EQ(got.stats.merges, want.stats.merges) << what;
    EXPECT_EQ(got.stats.rejected_pairs, want.stats.rejected_pairs) << what;
    EXPECT_EQ(got.stats.forced_merges, want.stats.forced_merges) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stats.snake_wire),
              std::bit_cast<std::uint64_t>(want.stats.snake_wire))
        << what;
    ASSERT_EQ(got.tree.size(), want.tree.size()) << what;
    for (std::size_t i = 0; i < got.tree.size(); ++i) {
        const auto& gn = got.tree.node(static_cast<node_id>(i));
        const auto& wn = want.tree.node(static_cast<node_id>(i));
        ASSERT_EQ(gn.left, wn.left) << what << " node " << i;
        ASSERT_EQ(gn.right, wn.right) << what << " node " << i;
        ASSERT_EQ(gn.arc, wn.arc) << what << " node " << i;
        ASSERT_EQ(gn.edge_left, wn.edge_left) << what << " node " << i;
        ASSERT_EQ(gn.edge_right, wn.edge_right) << what << " node " << i;
    }
    seen.accumulate(want.stats);
}

/// Windowed, soft-ledger and automatic AST at 0 and 5 ps, ZST-DME and
/// EXT-BST at 10 ps, each with re-keying on and off.
engine_stats expect_engine_matches_reference(const instance& inst) {
    engine_stats seen;
    for (const bool rekey : {true, false}) {
        std::vector<std::pair<routing_request, std::string>> reqs;
        for (const double bound : {0.0, 5e-12})
            for (const ast_mode m : {ast_mode::windowed, ast_mode::soft_ledger,
                                     ast_mode::automatic}) {
                routing_request r;
                r.strategy = strategy_id::ast_dme;
                r.mode = m;
                r.spec = skew_spec::uniform(bound);
                reqs.emplace_back(r, "ast mode " +
                                         std::to_string(static_cast<int>(m)) +
                                         " bound " + std::to_string(bound));
            }
        reqs.emplace_back(routing_request{}, "zst");
        reqs.back().first.strategy = strategy_id::zst_dme;
        reqs.emplace_back(routing_request{}, "ext_bst");
        reqs.back().first.strategy = strategy_id::ext_bst;
        reqs.back().first.spec = skew_spec::uniform(10e-12);
        for (auto& [r, what] : reqs) {
            r.instance = &inst;
            r.options.engine.true_cost_ordering = rekey;
            expect_reference_route(r, what + (rekey ? " rekey" : " no-rekey"),
                                   seen);
        }
    }
    return seen;
}

TEST(ReferenceReduce, EngineMatchesOnClusteredInstance) {
    const engine_stats seen =
        expect_engine_matches_reference(seeded_instance(220, 17, false, 6));
    EXPECT_GT(seen.merges, 0);
}

TEST(ReferenceReduce, EngineMatchesOnIntermingledInstance) {
    // Intermingled groups make the windowed and soft routes reject pairs
    // and end in forced merges, so the ban bookkeeping, the rejection
    // floors and the forced endgame are all compared.
    const engine_stats seen =
        expect_engine_matches_reference(seeded_instance(220, 23, true, 8));
    EXPECT_GT(seen.rejected_pairs, 0);
    EXPECT_GT(seen.forced_merges, 0);
}

}  // namespace
}  // namespace astclk::core
