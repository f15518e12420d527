#pragma once

/// \file grid_index.hpp
/// Uniform spatial grid nearest-neighbour backend over active subtree
/// roots — the sub-quadratic replacement for nn_index's linear scan.
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
/// `other < best` tie-break — the grid returns bit-identical answers to
/// nn_index.
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
/// rounding of the cell map and the distance kernel, far below any cell)
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
/// Both queries compute their distances with the packed-arc kernels
/// defined below (`batch_arc_nearest`, `batch_arc_for_each`; DESIGN.md
/// §11) over a 32-byte-per-arc mirror of the registered arcs.

#include "core/nn_index.hpp"
#include "topo/tree.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace astclk::core {

/// Cache-dense mirror of one arc box: the four tilted-space endpoints and
/// nothing else.  An array of these indexed by node id gives the distance
/// kernels a 32-byte gather stride instead of pulling whole tree_nodes
/// (delay maps included) through the cache per candidate (DESIGN.md §11).
struct packed_arc {
    double u_lo = 0.0, u_hi = 0.0, v_lo = 0.0, v_hi = 0.0;

    static packed_arc of(const geom::tilted_rect& r) {
        return {r.u().lo, r.u().hi, r.v().lo, r.v().hi};
    }
};

/// Distance kernel for the ring expansion's argmin: the tilted-space gap
/// of `n` candidate arcs (gathered from `arcs` by id) against the query
/// box `q`, folded straight into the running lexicographic-min
/// `(best_d, best)`.
///
/// The per-axis gap is computed branchlessly as
/// `max(0, max(o.lo - hi, lo - o.hi))`, which is bit-identical to the
/// branchy `interval::gap` for every pair of non-empty intervals: when
/// the intervals overlap both differences are <= 0 and the result is
/// +0.0 (max(+0.0, -x) picks the first operand), and when they are
/// disjoint exactly one difference is positive and equals the branchy
/// result.  The gap is symmetric in the same way (the two branches swap),
/// so query-vs-candidate and candidate-vs-query orientations agree
/// bitwise.
///
/// `center` is skipped (a query never partners itself); `floor` and
/// `banned` are consulted only for candidates that would improve the
/// running best — a skipped candidate never updates the best either way,
/// so this computes exactly the min of a check-every-candidate scan.  The
/// min over a candidate multiset is visit-order independent, so callers
/// may present candidates in any order (the slab cells do).
template <class Banned>
inline void batch_arc_nearest(const packed_arc* arcs,
                              const topo::node_id* ids, std::size_t n,
                              const packed_arc& q, topo::node_id center,
                              Banned banned, const nn_floor& floor,
                              topo::node_id& best, double& best_d) {
    const double qul = q.u_lo, quh = q.u_hi;
    const double qvl = q.v_lo, qvh = q.v_hi;
    for (std::size_t k = 0; k < n; ++k) {
        const topo::node_id other = ids[k];
        if (other == center) continue;
        const packed_arc& a = arcs[static_cast<std::size_t>(other)];
        const double gu =
            std::max(0.0, std::max(a.u_lo - quh, qul - a.u_hi));
        const double gv =
            std::max(0.0, std::max(a.v_lo - qvh, qvl - a.v_hi));
        const double d = std::max(gu, gv);
        if (d < best_d || (d == best_d && other < best)) {
            if (!floor.admits(d, other) || banned(pair_key(center, other)))
                continue;
            best_d = d;
            best = other;
        }
    }
}

/// Distance kernel for the post-commit fold-in: the same gap per
/// candidate, handed to `fn(id, d)` in candidate order.
template <class Fn>
inline void batch_arc_for_each(const packed_arc* arcs,
                               const topo::node_id* ids, std::size_t n,
                               const packed_arc& q, Fn fn) {
    const double qul = q.u_lo, quh = q.u_hi;
    const double qvl = q.v_lo, qvh = q.v_hi;
    for (std::size_t k = 0; k < n; ++k) {
        const packed_arc& a = arcs[static_cast<std::size_t>(ids[k])];
        const double gu =
            std::max(0.0, std::max(a.u_lo - quh, qul - a.u_hi));
        const double gv =
            std::max(0.0, std::max(a.v_lo - qvh, qvl - a.v_hi));
        fn(ids[k], std::max(gu, gv));
    }
}

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

    /// Slot of an active id in `active()`; identical contract to
    /// nn_index::slot_of (both backends share the active_set bookkeeping).
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
    /// banned partners and candidates at or below `floor`; identical
    /// contract (including id tie-breaks) to nn_index::nearest_if.  The ring walk reads the contiguous cell-slab
    /// mirror and hands each cell's candidate run to the fused kernel
    /// `batch_arc_nearest` (DESIGN.md §11), which computes the gaps over
    /// the packed-arc mirror and folds the running best in the same pass;
    /// a spilled cell (population past the slab's inline capacity) hands
    /// over its authoritative cell vector instead.  Bit-identical to the
    /// linear scan:
    ///  * the walk visits every cell of each ring; within a cell the
    ///    candidate *order* may differ from the vector's, but the fold is
    ///    a strict lexicographic min over (distance, id) — visit-order
    ///    independent — and the post-ring best that drives the ring-bound
    ///    early exit is that same min, so termination is exact too;
    ///  * the floor and ban checks run only for candidates that would
    ///    improve the running best — equivalent to checking every
    ///    candidate, since a skipped candidate never updates the best;
    ///  * the kernel's branchless gap is bit-identical to `interval::gap`
    ///    (see batch_arc_nearest above).
    template <class Banned>
    [[nodiscard]] std::optional<std::pair<topo::node_id, double>> nearest_if(
        topo::node_id id, Banned banned, nn_floor floor = {}) const {
        const packed_arc q = arcs_[static_cast<std::size_t>(id)];
        const cell_range qr = range_of(tree_->node(id).arc);
        const double margin = ring_margin(q, qr);
        topo::node_id best = topo::knull_node;
        double best_d = std::numeric_limits<double>::infinity();
        const int max_ring = max_ring_from(qr);
        for (int r = 0; r <= max_ring; ++r) {
            if (best != topo::knull_node &&
                static_cast<double>(r - 1) * cell_ + margin > best_d)
                break;  // ring lower bound beats every remaining candidate
            visit_ring_cells(qr, r, [&](std::size_t c) {
                const slab_cell& sc = slab_[c];
                if (sc.n <= slab_cell::kinline)
                    batch_arc_nearest(arcs_.data(), sc.ids, sc.n, q, id,
                                      banned, floor, best, best_d);
                else
                    batch_arc_nearest(arcs_.data(), cells_[c].data(),
                                      cells_[c].size(), q, id, banned, floor,
                                      best, best_d);
            });
        }
        if (best == topo::knull_node) return std::nullopt;
        return std::make_pair(best, best_d);
    }

    /// Invoke `fn(id, d)` for every active root registered in a cell within
    /// `radius` of `rect`'s covered range — a superset of the roots whose
    /// arc lies within `radius` of `rect` — where `d` is the arc distance
    /// of the candidate to `rect`, computed per cell by the kernel
    /// `batch_arc_for_each` (the gap is symmetric bitwise, so it matches a
    /// scalar `candidate.distance(rect)`).  Ids touching several cells are
    /// reported once per cell, and per-cell order follows the slab, so
    /// callers must be idempotent and visit-order independent (the
    /// engine's strict-`<` NN fold is both).
    template <class Fn>
    void for_each_within(const geom::tilted_rect& rect, double radius,
                         Fn fn) const {
        const cell_range q = range_of(rect.expanded(std::max(radius, 0.0)));
        const packed_arc pr = packed_arc::of(rect);
        for (int cv = q.v0; cv <= q.v1; ++cv)
            for (int cu = q.u0; cu <= q.u1; ++cu) {
                const std::size_t c = cell_at(cu, cv);
                const slab_cell& sc = slab_[c];
                if (sc.n <= slab_cell::kinline)
                    batch_arc_for_each(arcs_.data(), sc.ids, sc.n, pr, fn);
                else
                    batch_arc_for_each(arcs_.data(), cells_[c].data(),
                                       cells_[c].size(), pr, fn);
            }
    }

  private:
    /// The invariant auditor (core/audit.hpp) cross-checks the private
    /// registration state — span_, cells_, slab_, arcs_ — against the
    /// live set and the tree's arcs without widening the public surface.
    friend struct audit::grid_inspector;

    struct cell_range {
        int u0 = 0, u1 = 0, v0 = 0, v1 = 0;
    };

    /// Contiguous per-cell occupancy record for the SoA queries
    /// (DESIGN.md §11): one 32-byte slot per cell — the population count
    /// and up to kinline inline ids.  A ring row reads these slots
    /// sequentially instead of chasing every cell vector's heap
    /// allocation, which is where a query at ~1 expected occupant per
    /// cell spends most of its time.  A cell whose population exceeds
    /// kinline (border-cell clamping can pile escaped arcs up) is
    /// *spilled*: `n` keeps the true count, the inline ids stop being
    /// authoritative, and the queries read the cell vector instead; an
    /// erase that brings the cell back to kinline refills the inline ids
    /// from the vector.  Swap-pop erases permute the inline order, so the
    /// slab may list a cell's ids in a different order than the vector —
    /// only order-independent folds (the queries' lexicographic-min and
    /// the engine's strict-`<` fold-in) may read it.
    struct slab_cell {
        static constexpr std::uint32_t kinline = 7;
        std::uint32_t n = 0;          ///< true population of the cell
        topo::node_id ids[kinline];   ///< valid iff n <= kinline
    };
    static_assert(sizeof(slab_cell) == 32, "two cells per cache line");

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
    /// Register an id's arc in the covering cells (set_ handled by caller).
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
    [[nodiscard]] double ring_margin(const packed_arc& q,
                                     const cell_range& c) const {
        const double mu = std::min(q.u_lo - (u_lo_ + c.u0 * cell_),
                                   (u_lo_ + (c.u1 + 1) * cell_) - q.u_hi);
        const double mv = std::min(q.v_lo - (v_lo_ + c.v0 * cell_),
                                   (v_lo_ + (c.v1 + 1) * cell_) - q.v_hi);
        return std::max(0.0, std::min(mu, mv) - margin_eps_);
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
    std::vector<cell_range> span_;  ///< id -> registered cell range
    /// Cache-dense id -> arc-endpoint mirror for the batched distance
    /// kernel (written by place(); entries of erased ids go stale but are
    /// never gathered — only registered ids reach the kernel).
    std::vector<packed_arc> arcs_;
    std::vector<std::vector<topo::node_id>> cells_;
    std::vector<slab_cell> slab_;  ///< cell -> contiguous occupancy mirror
    double u_lo_ = 0.0, v_lo_ = 0.0;  ///< grid origin in tilted space
    double cell_ = 1.0;               ///< cell side, tilted units
    double inv_cell_ = 1.0;
    double margin_eps_ = 0.0;  ///< FP slack of ring_margin (set by size_to)
    int nu_ = 1, nv_ = 1;
    std::size_t sized_for_ = 1;  ///< population the cells were sized for
    int rebuilds_ = 0;           ///< occupancy-adaptive rebuild count
};

}  // namespace astclk::core
