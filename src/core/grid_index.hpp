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
/// arc's covered cell range, with that (r-1) * cell admissible lower
/// bound stopping the search as soon as the next ring cannot beat (or
/// tie) the best candidate found.  Because arcs are registered in *every*
/// overlapped cell, a candidate is always discovered at the ring of its
/// closest cell.  Rings are scanned to `lb <= best` (not `<`) so
/// equal-distance candidates in farther rings still participate in the
/// deterministic `other < best` tie-break — the grid returns
/// bit-identical answers to nn_index.
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

#include "core/nn_index.hpp"
#include "core/plan_kernels.hpp"
#include "topo/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace astclk::core {

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

    /// Nearest active root to `id` by arc distance, skipping `id` itself
    /// and banned partners; identical contract (including id tie-breaks) to
    /// nn_index::nearest_if.  The ring walk reads the contiguous cell-slab
    /// mirror and hands each cell's candidate run to the fused SoA kernel
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
    ///  * the ban check runs only for candidates that would improve the
    ///    running best — equivalent to checking every candidate, since a
    ///    banned candidate never updates the best;
    ///  * the kernel's branchless gap is bit-identical to `interval::gap`
    ///    (see plan_kernels.hpp).
    template <class Banned>
    [[nodiscard]] std::optional<std::pair<topo::node_id, double>> nearest_if(
        topo::node_id id, Banned banned) const {
        const packed_arc q = arcs_[static_cast<std::size_t>(id)];
        const cell_range qr = range_of(tree_->node(id).arc);
        topo::node_id best = topo::knull_node;
        double best_d = std::numeric_limits<double>::infinity();
        const int max_ring = max_ring_from(qr);
        for (int r = 0; r <= max_ring; ++r) {
            if (best != topo::knull_node &&
                static_cast<double>(r - 1) * cell_ > best_d)
                break;  // ring lower bound beats every remaining candidate
            visit_ring_cells(qr, r, [&](std::size_t c) {
                const slab_cell& sc = slab_[c];
                if (sc.n <= slab_cell::kinline)
                    batch_arc_nearest(arcs_.data(), sc.ids, sc.n, q, id,
                                      banned, best, best_d);
                else
                    batch_arc_nearest(arcs_.data(), cells_[c].data(),
                                      cells_[c].size(), q, id, banned, best,
                                      best_d);
            });
        }
        if (best == topo::knull_node) return std::nullopt;
        return std::make_pair(best, best_d);
    }

    /// Invoke `fn(id, d)` for every active root registered in a cell within
    /// `radius` of `rect`'s covered range — a superset of the roots whose
    /// arc lies within `radius` of `rect` — where `d` is the arc distance
    /// of the candidate to `rect`, computed per cell by the SoA kernel
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
    int nu_ = 1, nv_ = 1;
    std::size_t sized_for_ = 1;  ///< population the cells were sized for
    int rebuilds_ = 0;           ///< occupancy-adaptive rebuild count
};

}  // namespace astclk::core
