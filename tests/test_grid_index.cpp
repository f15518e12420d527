// Grid-backend equivalence: the spatial grid index must answer exactly the
// same nearest-neighbour queries (same partner id, same distance, same
// deterministic tie-breaks) as the linear verification scan, and the full
// engine must produce identical trees under either backend.

#include "core/audit.hpp"
#include "core/engine.hpp"
#include "core/grid_index.hpp"
#include "core/nn_index.hpp"
#include "core/router.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "gen/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>

namespace astclk::core {
namespace {

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

/// Compare every query on both backends, with and without a ban set.
void expect_index_equivalence(const clock_tree& t,
                              const std::vector<node_id>& roots,
                              std::uint64_t ban_seed) {
    nn_index lin(&t, roots);
    grid_index grid(&t, roots);
    ASSERT_EQ(lin.size(), grid.size());

    // Random symmetric ban set over ~10% of pairs.
    gen::rng rng(ban_seed);
    std::unordered_set<std::uint64_t> bans;
    for (node_id a : roots)
        for (int k = 0; k < 2; ++k) {
            const auto b = roots[static_cast<std::size_t>(
                rng.below(roots.size()))];
            if (a != b) bans.insert(pair_key(a, b));
        }
    const auto no_ban = [](std::uint64_t) { return false; };
    const auto with_ban = [&](std::uint64_t k) { return bans.count(k) > 0; };

    for (node_id id : roots) {
        const auto l0 = lin.nearest_if(id, no_ban);
        const auto g0 = grid.nearest_if(id, no_ban);
        ASSERT_EQ(l0.has_value(), g0.has_value()) << "id " << id;
        if (l0.has_value()) {
            EXPECT_EQ(l0->first, g0->first) << "id " << id;
            EXPECT_EQ(l0->second, g0->second) << "id " << id;
        }
        const auto l1 = lin.nearest_if(id, with_ban);
        const auto g1 = grid.nearest_if(id, with_ban);
        ASSERT_EQ(l1.has_value(), g1.has_value()) << "id " << id << " (bans)";
        if (l1.has_value()) {
            EXPECT_EQ(l1->first, g1->first) << "id " << id << " (bans)";
            EXPECT_EQ(l1->second, g1->second) << "id " << id << " (bans)";
        }
    }
}

TEST(GridIndex, MatchesLinearOnClusteredAndIntermingledLeaves) {
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

TEST(GridIndex, MatchesLinearWithLongMergedArcs) {
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

/// Route the same instance under both backends; trees must be identical in
/// every engine statistic, wirelength, and per-node geometry.
void expect_identical_routes(const instance& inst) {
    router_options grid_opt, lin_opt;
    grid_opt.engine.backend = nn_backend::grid;
    lin_opt.engine.backend = nn_backend::linear;
    for (const ast_mode mode :
         {ast_mode::windowed, ast_mode::soft_ledger, ast_mode::automatic}) {
        const auto g = route_ast_dme(inst, skew_spec::zero(), grid_opt, mode);
        const auto l = route_ast_dme(inst, skew_spec::zero(), lin_opt, mode);
        EXPECT_EQ(g.stats.merges, l.stats.merges);
        EXPECT_EQ(g.stats.rejected_pairs, l.stats.rejected_pairs);
        EXPECT_EQ(g.stats.forced_merges, l.stats.forced_merges);
        EXPECT_EQ(g.stats.interior_snakes, l.stats.interior_snakes);
        EXPECT_EQ(g.stats.root_snakes, l.stats.root_snakes);
        EXPECT_EQ(g.stats.snake_wire, l.stats.snake_wire);
        EXPECT_EQ(g.wirelength, l.wirelength);
        ASSERT_EQ(g.tree.size(), l.tree.size());
        for (std::size_t i = 0; i < g.tree.size(); ++i) {
            const auto& gn = g.tree.node(static_cast<node_id>(i));
            const auto& ln = l.tree.node(static_cast<node_id>(i));
            EXPECT_EQ(gn.left, ln.left);
            EXPECT_EQ(gn.right, ln.right);
            EXPECT_EQ(gn.arc, ln.arc);
            EXPECT_EQ(gn.edge_left, ln.edge_left);
            EXPECT_EQ(gn.edge_right, ln.edge_right);
        }
    }
}

TEST(GridIndex, EngineProducesIdenticalTreesClustered) {
    expect_identical_routes(seeded_instance(220, 17, false, 6));
}

TEST(GridIndex, EngineProducesIdenticalTreesIntermingled) {
    expect_identical_routes(seeded_instance(220, 23, true, 8));
}

TEST(GridIndex, EngineIdenticalUnderMultiMergeAndZst) {
    const auto inst = seeded_instance(150, 31, true, 5);
    for (const merge_order order :
         {merge_order::nearest_pair, merge_order::multi_merge}) {
        router_options g, l;
        g.engine.order = l.engine.order = order;
        g.engine.backend = nn_backend::grid;
        l.engine.backend = nn_backend::linear;
        const auto rg = route_zst_dme(inst, g);
        const auto rl = route_zst_dme(inst, l);
        EXPECT_EQ(rg.wirelength, rl.wirelength);
        EXPECT_EQ(rg.stats.merges, rl.stats.merges);
        EXPECT_EQ(rg.stats.snake_wire, rl.stats.snake_wire);
        EXPECT_EQ(rg.stats.rounds, rl.stats.rounds);
    }
}

TEST(GridIndex, EraseReinsertKeepsAnswersConsistent) {
    const auto inst = seeded_instance(90, 41, true, 3);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    nn_index lin(&t, roots);
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
            lin.erase(id);
            grid.erase(id);
            in.erase(in.begin() + static_cast<std::ptrdiff_t>(k));
            out.push_back(id);
        } else {
            const node_id id = out.back();
            out.pop_back();
            lin.insert(id);
            grid.insert(id);
            in.push_back(id);
        }
        ASSERT_EQ(audit::verify_grid_vs_live_set(grid, t), "")
            << "step " << step;
        ASSERT_EQ(lin.size(), grid.size());
        for (const node_id id : in) {
            const auto l = lin.nearest_if(id, no_ban);
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
        // ...and the clamped grid still answers exactly like the linear
        // reference, bans and churn included.
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

using bans_t = std::unordered_set<std::uint64_t>;

/// Brute-force reference for a floored query: the lexicographic minimum
/// (distance, id) over every other active root strictly above the floor
/// (spelled out here, not through nn_floor::admits) that the ban set does
/// not hold.
std::optional<std::pair<node_id, double>> brute_nearest(
    const clock_tree& t, const std::vector<node_id>& active, node_id id,
    const bans_t& bans, nn_floor floor) {
    std::optional<std::pair<node_id, double>> best;
    for (const node_id j : active) {
        if (j == id || bans.count(pair_key(id, j)) != 0) continue;
        const double d = t.node(id).arc.distance(t.node(j).arc);
        if (d < floor.d || (d == floor.d && j <= floor.id)) continue;
        if (!best || d < best->second || (d == best->second && j < best->first))
            best = std::make_pair(j, d);
    }
    return best;
}

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

/// Grid (ring walk and dense scan), linear scan and brute force agree on
/// every query of `active` under every floor a query can meet: none; each
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
    nn_index lin(&t, roots);
    grid_index grid(&t, roots);
    for (const node_id id : inserted) {  // sized without them, as mid-run
        lin.insert(id);
        grid.insert(id);
    }
    const std::vector<node_id>& active = lin.active();
    const auto probe = [&bans](std::uint64_t k) { return bans.count(k) != 0; };
    int two_sided_ties = 0;
    const auto check = [&](node_id id, nn_floor floor) {
        const auto want = brute_nearest(t, active, id, bans, floor);
        const auto l = lin.nearest_if(id, probe, floor);
        const auto g = grid.nearest_if(id, probe, floor);
        const auto gs = grid.nearest_scan_if(id, probe, floor);
        ASSERT_EQ(want.has_value(), l.has_value())
            << "id " << id << " floor (" << floor.d << ", " << floor.id << ")";
        ASSERT_EQ(want.has_value(), g.has_value())
            << "id " << id << " floor (" << floor.d << ", " << floor.id << ")";
        ASSERT_EQ(want.has_value(), gs.has_value())
            << "id " << id << " floor (" << floor.d << ", " << floor.id
            << ") (scan)";
        if (!want.has_value()) return;
        EXPECT_EQ(want->first, l->first) << "id " << id;
        EXPECT_EQ(want->second, l->second) << "id " << id;
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

TEST(GridIndex, FloorMatchesLinearAndBruteForceOnRandomArcs) {
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
    // and must never change a nearest-neighbour answer, the slot order or
    // the grid's registration invariant.
    const auto inst = seeded_instance(300, 51, true, 6);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    nn_index lin(&t, roots);
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
        lin.erase(id);
        grid.erase(id);
        in.erase(in.begin() + static_cast<std::ptrdiff_t>(k));
        ASSERT_EQ(audit::verify_grid_vs_live_set(grid, t), "")
            << "after erasing " << id;
        const bool just_rebuilt = grid.rebuilds() != last_rebuilds;
        last_rebuilds = grid.rebuilds();
        // Full equivalence sweep right after each rebuild and periodically.
        if (just_rebuilt || in.size() % 16 == 0) {
            for (const node_id q : in) {
                ASSERT_EQ(lin.slot_of(q), grid.slot_of(q));
                const auto l = lin.nearest_if(q, no_ban);
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

}  // namespace
}  // namespace astclk::core
