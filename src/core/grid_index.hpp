#pragma once

/// \file grid_index.hpp
/// The engine's nearest-neighbour index over active subtree roots: a
/// uniform spatial grid, and the index vocabulary the engine shares with
/// it (pair keys, ban predicates, query floors and the active set whose
/// slot order is the engine's selection tie-break).
///
/// Greedy-DME, greedy-BST and AST-DME all repeatedly merge the pair of
/// active roots with minimum merging cost; the arc (Manhattan) distance is
/// an admissible lower bound on that cost (snaking only adds wire), so the
/// engine queries by distance and lazily re-keys with the true plan cost.
/// The grid answers those queries exactly: every answer equals the
/// definition — the lexicographic minimum (distance, id) over the active
/// roots — which the tests check against a plain scan.
///
/// Arcs are tilted_rects: axis-aligned boxes in tilted (u, v) space whose
/// pairwise distance is the L-infinity gap — so a uniform grid over (u, v)
/// prunes exactly the metric the merge engine orders by.  Each active root
/// is registered in every cell its arc's (u, v) box overlaps.
///
/// The grid is sized from the initial roots, but committed merging
/// segments can escape the children's hull in the non-binding axis
/// (A.expanded(alpha) ∩ B.expanded(beta) widens where the gap is not the
/// distance), so later arcs may lie partly outside the initial bounding
/// box.  Out-of-range coordinates are clamped into the border cells, and
/// that clamping is load-bearing *and* sound: the coordinate -> cell map
/// with clamping is monotone and 1-Lipschitz (|cell(x) - cell(q)| <=
/// |x - q| / cell + 1 still holds after clamping both sides), so a
/// candidate registered at Chebyshev cell-distance r from the query's
/// covered range is at true arc distance >= (r-1) * cell regardless of
/// clamping.  Do not remove the clamps on the strength of a hull
/// argument.
///
/// `nearest_if` runs a ring (spiral) expansion outward from the query
/// arc's covered cell range, with an admissible lower bound stopping the
/// search as soon as the next ring cannot beat (or tie) the best
/// candidate found.  Because arcs are registered in *every* overlapped
/// cell, a candidate is always discovered at the ring of its closest
/// cell.  Rings are scanned to `lb <= best` (not `<`) so equal-distance
/// candidates in farther rings still participate in the deterministic
/// `other < best` tie-break, so the answer is the exact (distance, id)
/// minimum.
///
/// **Ring bound with margin.**  The bound for ring r >= 1 is
/// (r-1) * cell + m, where m is the query arc's distance to the nearest
/// edge of its own covered cell range (the least of four side margins),
/// less an FP epsilon and floored at 0.  Why it is admissible: a
/// candidate first met at ring r is separated from the covered range by
/// at least r cells along some axis, say past the range's upper u edge;
/// its low u edge then lies at or beyond the start of cell u1 + r, while
/// the query's high u edge lies the right-side margin short of the end
/// of cell u1, so the u gap alone is at least (r-1) * cell plus that
/// margin.  Clamping keeps this true on both sides:
///  * candidate side: the one fact used is "registered in cell k past
///    the range's upper edge, so its low edge is at or beyond cell k's
///    start" (mirrored for the lower edge).  An index clamped down from
///    beyond the last cell keeps it, since the true edge lies farther out
///    still; an index clamped up to cell 0 is never past the upper edge;
///  * query side: an edge clamped into a border cell lies outside the
///    grid, so its own side margin is negative and m falls to 0 — the
///    plain (r-1) * cell bound that the 1-Lipschitz argument above
///    covers.  (That side is vacuous anyway: no cell lies beyond the
///    border.)
/// The epsilon (1e-9 of the grid's coordinate scale, far above the
/// rounding of the cell map and of `arc_gap`, far below any cell)
/// covers coordinates that `range_of`'s floor assigns across a cell
/// boundary by an ulp.  With the margin, a query whose ring-0 best is
/// nearer than its cell edges stops before ring 1.
///
/// Cell size is chosen for ~O(1) expected occupancy: the bounding extent
/// divided by ceil(sqrt(n)) cells per axis.
///
/// **Occupancy-adaptive rebuild**: the active set shrinks as the engine
/// merges (two roots out, one in per commit), so cells sized for the
/// initial population go mostly empty and ring expansions walk farther.
/// When the active set drops below 1/4 of the population the grid was last
/// sized for, `erase` rebuilds the grid over the survivors' current arcs
/// with correspondingly larger cells.  Rebuilds never change any answer:
/// `nearest_if` is exact for every cell size (the ring lower bound is
/// admissible regardless), `for_each_within` stays an admissible superset,
/// and the active_set — the engine's slot tie-break — is untouched.
///
/// The grid stores ids only: every arc is read from the tree.  Only
/// `clock_tree::add_leaf` and `add_internal` write a node's arc, so an
/// active root's arc is the one it was registered under, and `erase`
/// recomputes the cells to leave from it.

#include "topo/tree.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace astclk::core {

/// Symmetric pair key for ban lists / cost caches.
[[nodiscard]] inline std::uint64_t pair_key(topo::node_id a, topo::node_id b) {
    const std::uint32_t lo = static_cast<std::uint32_t>(std::min(a, b));
    const std::uint32_t hi = static_cast<std::uint32_t>(std::max(a, b));
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Predicate accepting every pair — the "no bans" case, fully inlined.
struct no_bans {
    [[nodiscard]] bool operator()(std::uint64_t) const { return false; }
};

/// Lexicographic floor of a nearest_if query: candidates whose
/// (distance, id) is at or below (d, id) are skipped before any ban probe.
/// The engine passes a root's previous record after banning that record's
/// partner, because every candidate at or below it is then known to be
/// banned (engine.cpp).  The default admits every candidate: distances are
/// never negative.
struct nn_floor {
    double d = -1.0;
    topo::node_id id = topo::knull_node;
    [[nodiscard]] bool admits(double cd, topo::node_id cid) const {
        return cd > d || (cd == d && cid > id);
    }
};

/// Swap-and-pop set of active root ids with an id -> slot map (node ids
/// are dense arena indices, so a flat vector beats hashing; erase is O(1)).
/// The slot order is the engine's selection tie-break: equal-key
/// candidates resolve by their owner's slot, so anything that must
/// reproduce the engine's merge order (the tests' reference reducer)
/// replays the same insert/erase sequence on this one implementation.
class active_set {
  public:
    void insert(topo::node_id id);
    void erase(topo::node_id id);

    [[nodiscard]] const std::vector<topo::node_id>& items() const {
        return items_;
    }
    [[nodiscard]] std::size_t size() const { return items_.size(); }
    [[nodiscard]] std::int32_t slot_of(topo::node_id id) const {
        return pos_[static_cast<std::size_t>(id)];
    }

  private:
    std::vector<topo::node_id> items_;
    std::vector<std::int32_t> pos_;  ///< id -> slot, knull_slot if inactive
    static constexpr std::int32_t knull_slot = -1;
};

namespace audit {
struct grid_inspector;
}  // namespace audit

class grid_index {
  public:
    /// Build over the given roots: bounds from their arcs, then insert all.
    grid_index(const topo::clock_tree* tree,
               const std::vector<topo::node_id>& roots);

    void insert(topo::node_id id);
    void erase(topo::node_id id);

    [[nodiscard]] const std::vector<topo::node_id>& active() const {
        return set_.items();
    }
    [[nodiscard]] std::size_t size() const { return set_.size(); }

    /// Slot of an active id in `active()` — the engine's selection
    /// tie-break (see active_set).
    [[nodiscard]] std::int32_t slot_of(topo::node_id id) const {
        return set_.slot_of(id);
    }

    /// How many occupancy-adaptive rebuilds have run (diagnostics/tests).
    [[nodiscard]] int rebuilds() const { return rebuilds_; }

    /// Current cell counts per axis (diagnostics/tests: the sizing clamp
    /// for tiny populations is asserted through these).
    [[nodiscard]] int cells_u() const { return nu_; }
    [[nodiscard]] int cells_v() const { return nv_; }

    /// Nearest active root to `id` by arc distance, skipping `id` itself,
    /// banned partners (`banned(pair_key)` true) and candidates at or
    /// below `floor`.  Ties on equal distance break towards the smaller
    /// id; nullopt when no candidate remains.  Bit-identical to a scan of
    /// the active set by `tilted_rect::distance`:
    ///  * the walk visits every cell of each ring and folds a strict
    ///    lexicographic min over (distance, id) — visit-order independent —
    ///    and the post-ring best that drives the ring-bound early exit is
    ///    that same min, so termination is exact too;
    ///  * the floor and ban checks run only for candidates that would
    ///    improve the running best — equivalent to checking every
    ///    candidate, since a skipped candidate never updates the best;
    ///  * `arc_gap` is bit-identical to `tilted_rect::distance`.
    template <class Banned>
    [[nodiscard]] std::optional<std::pair<topo::node_id, double>> nearest_if(
        topo::node_id id, Banned banned, nn_floor floor = {}) const {
        // By value: the loop calls `banned`, so a reference would be
        // re-read after every probe.
        const geom::tilted_rect q = tree_->node(id).arc;
        const cell_range qr = range_of(q);
        const double margin = ring_margin(q, qr);
        topo::node_id best = topo::knull_node;
        double best_d = std::numeric_limits<double>::infinity();
        const int max_ring = max_ring_from(qr);
        for (int r = 0; r <= max_ring; ++r) {
            if (best != topo::knull_node &&
                static_cast<double>(r - 1) * cell_ + margin > best_d)
                break;  // ring lower bound beats every remaining candidate
            visit_ring_cells(qr, r, [&](std::size_t c) {
                for (const topo::node_id other : cells_[c]) {
                    if (other == id) continue;
                    fold(id, other, arc_gap(tree_->node(other).arc, q), banned,
                         floor, best, best_d);
                }
            });
        }
        if (best == topo::knull_node) return std::nullopt;
        return std::make_pair(best, best_d);
    }

    /// `nearest_if`'s answer from one pass over the active set instead of
    /// the ring walk: the same candidates, `arc_gap` distances, floor and
    /// ban checks and the same (distance, id) fold, so the two are
    /// bit-identical.  Cheaper when bans exclude much of the active set,
    /// because the walk would then visit most cells and meet a multi-cell
    /// arc once per cell.  The engine picks between the two
    /// (`nearest_unbanned`, engine.cpp).
    template <class Banned>
    [[nodiscard]] std::optional<std::pair<topo::node_id, double>>
    nearest_scan_if(topo::node_id id, Banned banned,
                    nn_floor floor = {}) const {
        const geom::tilted_rect q = tree_->node(id).arc;  // as in nearest_if
        topo::node_id best = topo::knull_node;
        double best_d = std::numeric_limits<double>::infinity();
        for (const topo::node_id other : set_.items()) {
            if (other == id) continue;
            fold(id, other, arc_gap(tree_->node(other).arc, q), banned, floor,
                 best, best_d);
        }
        if (best == topo::knull_node) return std::nullopt;
        return std::make_pair(best, best_d);
    }

    /// Invoke `fn(id, d)` for every active root registered in a cell within
    /// `radius` of `rect`'s covered range — a superset of the roots whose
    /// arc lies within `radius` of `rect` — where `d` is the candidate's
    /// arc distance to `rect`, bitwise equal to
    /// `candidate.distance(rect)`.  Ids touching several cells are
    /// reported once per cell, in cell order rather than active order, so
    /// callers must be idempotent and visit-order independent (the
    /// engine's strict-`<` NN fold is both).
    template <class Fn>
    void for_each_within(const geom::tilted_rect& rect, double radius,
                         Fn fn) const {
        const geom::tilted_rect q = rect;  // by value, as in nearest_if
        const cell_range c = range_of(q.expanded(std::max(radius, 0.0)));
        for (int cv = c.v0; cv <= c.v1; ++cv)
            for (int cu = c.u0; cu <= c.u1; ++cu)
                for (const topo::node_id other : cells_[cell_at(cu, cv)])
                    fn(other, arc_gap(tree_->node(other).arc, q));
    }

  private:
    /// The invariant auditor (core/audit.hpp) cross-checks the cells
    /// against the live set and the tree's arcs without widening the
    /// public surface.
    friend struct audit::grid_inspector;

    struct cell_range {
        int u0 = 0, u1 = 0, v0 = 0, v1 = 0;
    };

    /// Below this population the adaptive rebuild stops bothering: the
    /// whole grid is a handful of cells either way.
    static constexpr std::size_t kmin_rebuild_population = 16;

    /// Cell-count floor per axis.  sqrt-sizing a tiny population (a small
    /// sub-reduction shard, n < ~64) would build a near-degenerate grid —
    /// in the limit one cell, i.e. a linear scan paying grid overhead —
    /// so sizing clamps to at least this many cells per axis.  Purely a
    /// performance knob: answers are exact for every cell size.
    static constexpr int kmin_cells_per_axis = 8;

    /// Size origin/cell/cells_ for `items` (bounds from their current
    /// arcs); does not touch the active_set registration.
    void size_to(const std::vector<topo::node_id>& items);
    /// Register an id in the cells of its arc's range (set_ handled by
    /// caller).
    void place(topo::node_id id);
    /// Re-size and re-place every active id over its current arc.
    void rebuild();

    [[nodiscard]] std::size_t cell_at(int cu, int cv) const {
        return static_cast<std::size_t>(cv) * static_cast<std::size_t>(nu_) +
               static_cast<std::size_t>(cu);
    }
    [[nodiscard]] int clamp_u(int c) const {
        return std::clamp(c, 0, nu_ - 1);
    }
    [[nodiscard]] int clamp_v(int c) const {
        return std::clamp(c, 0, nv_ - 1);
    }
    [[nodiscard]] cell_range range_of(const geom::tilted_rect& r) const;
    [[nodiscard]] int max_ring_from(const cell_range& q) const;
    /// Distance from arc `q` to the nearest edge of its covered range `c`,
    /// less margin_eps_, floored at 0 (the ring bound's m; see the header).
    [[nodiscard]] double ring_margin(const geom::tilted_rect& q,
                                     const cell_range& c) const {
        const double mu = std::min(q.u().lo - (u_lo_ + c.u0 * cell_),
                                   (u_lo_ + (c.u1 + 1) * cell_) - q.u().hi);
        const double mv = std::min(q.v().lo - (v_lo_ + c.v0 * cell_),
                                   (v_lo_ + (c.v1 + 1) * cell_) - q.v().hi);
        return std::max(0.0, std::min(mu, mv) - margin_eps_);
    }

    /// Fold candidate `other` at distance `d` into the strict
    /// lexicographic (distance, id) minimum (best, best_d) of a query of
    /// `id`.  The floor and ban checks run only when the candidate would
    /// improve the best.
    template <class Banned>
    static void fold(topo::node_id id, topo::node_id other, double d,
                     const Banned& banned, const nn_floor& floor,
                     topo::node_id& best, double& best_d) {
        if (d < best_d || (d == best_d && other < best)) {
            if (!floor.admits(d, other) || banned(pair_key(id, other)))
                return;
            best_d = d;
            best = other;
        }
    }

    /// Tilted-space L-infinity gap of arc `a` to query `q`, with the
    /// per-axis gap written branchlessly as
    /// `max(0, max(a.lo - q.hi, q.lo - a.hi))`.  Bit-identical to
    /// `q.distance(a)` for non-empty intervals: when they overlap both
    /// differences are <= 0 and the result is +0.0 (max(+0.0, -x) picks
    /// the first operand), and when they are disjoint exactly one
    /// difference is positive and equals `interval::gap`'s branch.  The
    /// two branches swap under a <-> q, so `a.distance(q)` agrees too.
    [[nodiscard]] static double arc_gap(const geom::tilted_rect& a,
                                        const geom::tilted_rect& q) {
        const double gu = std::max(
            0.0, std::max(a.u().lo - q.u().hi, q.u().lo - a.u().hi));
        const double gv = std::max(
            0.0, std::max(a.v().lo - q.v().hi, q.v().lo - a.v().hi));
        return std::max(gu, gv);
    }

    /// Apply `fn` to the index of every cell at Chebyshev cell distance
    /// exactly `r` from range `q` (ring 0 is the range itself).
    template <class Fn>
    void visit_ring_cells(const cell_range& q, int r, Fn fn) const {
        const int u0 = q.u0 - r, u1 = q.u1 + r;
        const int v0 = q.v0 - r, v1 = q.v1 + r;
        const auto visit_row = [&](int cv, int a, int b) {
            if (cv < 0 || cv >= nv_) return;
            a = clamp_u(a);
            b = clamp_u(b);
            for (int cu = a; cu <= b; ++cu) fn(cell_at(cu, cv));
        };
        if (r == 0) {
            for (int cv = v0; cv <= v1; ++cv) visit_row(cv, u0, u1);
            return;
        }
        visit_row(v0, u0, u1);  // bottom edge
        visit_row(v1, u0, u1);  // top edge
        for (int cv = v0 + 1; cv <= v1 - 1; ++cv) {
            if (cv < 0 || cv >= nv_) continue;
            if (u0 >= 0) fn(cell_at(u0, cv));
            if (u1 < nu_) fn(cell_at(u1, cv));
        }
    }

    const topo::clock_tree* tree_;
    active_set set_;
    std::vector<std::vector<topo::node_id>> cells_;  ///< cell -> ids
    double u_lo_ = 0.0, v_lo_ = 0.0;  ///< grid origin in tilted space
    double cell_ = 1.0;               ///< cell side, tilted units
    double inv_cell_ = 1.0;
    double margin_eps_ = 0.0;  ///< FP slack of ring_margin (set by size_to)
    int nu_ = 1, nv_ = 1;
    std::size_t sized_for_ = 1;  ///< population the cells were sized for
    int rebuilds_ = 0;           ///< occupancy-adaptive rebuild count
};

}  // namespace astclk::core
