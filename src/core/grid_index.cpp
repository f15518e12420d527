#include "core/grid_index.hpp"

#include <cassert>
#include <cmath>

namespace astclk::core {

void active_set::insert(topo::node_id id) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= pos_.size()) pos_.resize(i + 1, knull_slot);
    assert(pos_[i] == knull_slot);
    pos_[i] = static_cast<std::int32_t>(items_.size());
    items_.push_back(id);
}

void active_set::erase(topo::node_id id) {
    const auto i = static_cast<std::size_t>(id);
    assert(i < pos_.size() && pos_[i] != knull_slot);
    const auto slot = static_cast<std::size_t>(pos_[i]);
    const topo::node_id moved = items_.back();
    items_[slot] = moved;
    items_.pop_back();
    pos_[static_cast<std::size_t>(moved)] = static_cast<std::int32_t>(slot);
    pos_[i] = knull_slot;
}

grid_index::grid_index(const topo::clock_tree* tree,
                       const std::vector<topo::node_id>& roots)
    : tree_(tree) {
    size_to(roots);
    for (topo::node_id r : roots) insert(r);
}

void grid_index::size_to(const std::vector<topo::node_id>& items) {
    // Bounds over the current arcs of `items`.  Future merging segments can
    // escape these bounds in the non-binding axis; range_of clamps them
    // into border cells, which keeps the ring lower bound admissible (see
    // the header).
    geom::interval bu = geom::interval::empty_set();
    geom::interval bv = geom::interval::empty_set();
    for (topo::node_id r : items) {
        const geom::tilted_rect& a = tree_->node(r).arc;
        bu = bu.hull(a.u());
        bv = bv.hull(a.v());
    }
    if (bu.empty()) bu = geom::interval::at(0.0);
    if (bv.empty()) bv = geom::interval::at(0.0);
    u_lo_ = bu.lo;
    v_lo_ = bv.lo;

    // ~1 expected root per cell: ceil(sqrt(n)) cells per axis over the
    // larger extent, square cells so the ring lower bound holds per-axis.
    // Tiny populations (sub-reduction shards, endgame rebuilds) are
    // clamped to kmin_cells_per_axis: sqrt-sizing would hand a 16-root
    // shard a near-degenerate 4x4 (or, after rounding, coarser) grid whose
    // every ring visit scans a large fraction of the population — linear
    // scanning with grid overhead on top.  A finer floor keeps ring
    // expansion pruning; occupancy below 1 is harmless (nearest_if is
    // exact for every cell size, so sizing never changes an answer).
    const double extent = std::max(bu.length(), bv.length());
    const int target = std::max(
        kmin_cells_per_axis,
        static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(items.size())))));
    if (extent <= 0.0) {
        cell_ = 1.0;
        nu_ = nv_ = 1;
    } else {
        cell_ = extent / target;
        nu_ = std::max(1, static_cast<int>(std::floor(bu.length() / cell_)) + 1);
        nv_ = std::max(1, static_cast<int>(std::floor(bv.length() / cell_)) + 1);
    }
    inv_cell_ = 1.0 / cell_;
    // Rounding in range_of's cell map and in arc_gap is a few ulps of the
    // coordinate scale; 1e-9 of it is far above that and far below any
    // cell side.
    margin_eps_ = 1e-9 * (std::max(std::abs(u_lo_), std::abs(v_lo_)) +
                          extent + cell_);
    cells_.assign(static_cast<std::size_t>(nu_) * static_cast<std::size_t>(nv_),
                  {});
    sized_for_ = std::max<std::size_t>(std::size_t{1}, items.size());
}

grid_index::cell_range grid_index::range_of(const geom::tilted_rect& r) const {
    cell_range c;
    c.u0 = clamp_u(static_cast<int>(std::floor((r.u().lo - u_lo_) * inv_cell_)));
    c.u1 = clamp_u(static_cast<int>(std::floor((r.u().hi - u_lo_) * inv_cell_)));
    c.v0 = clamp_v(static_cast<int>(std::floor((r.v().lo - v_lo_) * inv_cell_)));
    c.v1 = clamp_v(static_cast<int>(std::floor((r.v().hi - v_lo_) * inv_cell_)));
    return c;
}

int grid_index::max_ring_from(const cell_range& q) const {
    return std::max(std::max(q.u0, nu_ - 1 - q.u1),
                    std::max(q.v0, nv_ - 1 - q.v1));
}

void grid_index::place(topo::node_id id) {
    const cell_range c = range_of(tree_->node(id).arc);
    for (int cv = c.v0; cv <= c.v1; ++cv)
        for (int cu = c.u0; cu <= c.u1; ++cu)
            cells_[cell_at(cu, cv)].push_back(id);
}

void grid_index::insert(topo::node_id id) {
    set_.insert(id);
    place(id);
}

void grid_index::erase(topo::node_id id) {
    set_.erase(id);
    // The arc has not changed since place() registered it (see the
    // header), so its range names exactly the cells that hold the id.
    const cell_range c = range_of(tree_->node(id).arc);
    for (int cv = c.v0; cv <= c.v1; ++cv)
        for (int cu = c.u0; cu <= c.u1; ++cu) {
            auto& cell = cells_[cell_at(cu, cv)];
            const auto it = std::find(cell.begin(), cell.end(), id);
            assert(it != cell.end() && "id missing from a cell of its range");
            if (it == cell.end()) continue;
            *it = cell.back();
            cell.pop_back();
        }
    // Occupancy-adaptive rebuild: once the survivors are below 1/4 of the
    // sizing population, re-derive bounds and cell size from their current
    // arcs so expected occupancy returns to ~1 per cell.
    if (set_.size() >= kmin_rebuild_population &&
        set_.size() * 4 < sized_for_)
        rebuild();
}

void grid_index::rebuild() {
    ++rebuilds_;
    size_to(set_.items());
    for (topo::node_id id : set_.items()) place(id);
}

}  // namespace astclk::core
