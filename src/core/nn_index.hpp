#pragma once

/// \file nn_index.hpp
/// Linear-scan nearest-neighbour backend over active subtree roots.
///
/// Greedy-DME / greedy-BST / AST-DME all repeatedly merge the pair of
/// active roots with minimum merging cost; the arc (Manhattan) distance is
/// an admissible lower bound on that cost (snaking only adds wire), so the
/// engine scans by distance and lazily re-keys with the true plan cost.
///
/// This backend answers "nearest active root to X, excluding banned
/// partners" with a tuned linear scan (two interval gaps per candidate).
/// It is the exact-by-construction reference the grid backend
/// (grid_index.hpp) is validated against, and remains selectable via
/// `engine_options::backend = nn_backend::linear`.
///
/// Both backends share the same interface contract:
///  * `insert` / `erase` maintain the active set (erase is O(1) via an
///    id -> slot map over the swap-and-pop `active_` vector);
///  * `nearest_if(id, banned)` returns the nearest active root by arc
///    distance with deterministic id tie-breaks (`other < best` on equal
///    distance), skipping `id` itself and banned partners;
///  * `for_each_within(rect, radius, fn)` calls `fn(id, d)` for a superset
///    of the active roots whose arc lies within `radius` of `rect`, with
///    `d` the candidate's arc distance to `rect` (the linear backend
///    simply enumerates everything — admissible, just unpruned).
///
/// The banned predicate is a template parameter so the hot loop inlines it;
/// no std::function indirection on the merge path.

#include "topo/tree.hpp"

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

/// Swap-and-pop set of active root ids with an id -> slot map (node ids
/// are dense arena indices, so a flat vector beats hashing; erase is O(1)).
///
/// Both NN backends embed this single implementation on purpose: the
/// engine's selection tie-break resolves equal-key candidates by active
/// slot, so the backends must evolve bit-identical slot orders under the
/// same insert/erase sequence.  Keeping the bookkeeping in one place makes
/// that guarantee structural rather than a convention to maintain twice.
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

class nn_index {
  public:
    explicit nn_index(const topo::clock_tree* tree) : tree_(tree) {}

    nn_index(const topo::clock_tree* tree,
             const std::vector<topo::node_id>& roots)
        : tree_(tree) {
        for (topo::node_id r : roots) insert(r);
    }

    void insert(topo::node_id id) { set_.insert(id); }
    void erase(topo::node_id id) { set_.erase(id); }

    [[nodiscard]] const std::vector<topo::node_id>& active() const {
        return set_.items();
    }
    [[nodiscard]] std::size_t size() const { return set_.size(); }

    /// Slot of an active id in `active()` — the engine's selection
    /// tie-break (see active_set for why this is shared state).
    [[nodiscard]] std::int32_t slot_of(topo::node_id id) const {
        return set_.slot_of(id);
    }

    /// Nearest active root to `id` by arc distance, skipping `id` itself and
    /// any partner for which `banned(pair_key)` returns true.  Ties on equal
    /// distance break towards the smaller id.  nullopt when no candidate
    /// remains.
    template <class Banned>
    [[nodiscard]] std::optional<std::pair<topo::node_id, double>> nearest_if(
        topo::node_id id, Banned banned) const {
        const geom::tilted_rect& arc = tree_->node(id).arc;
        topo::node_id best = topo::knull_node;
        double best_d = std::numeric_limits<double>::infinity();
        for (topo::node_id other : set_.items()) {
            if (other == id) continue;
            if (banned(pair_key(id, other))) continue;
            const double d = arc.distance(tree_->node(other).arc);
            if (d < best_d || (d == best_d && other < best)) {
                best_d = d;
                best = other;
            }
        }
        if (best == topo::knull_node) return std::nullopt;
        return std::make_pair(best, best_d);
    }

    /// Invoke `fn(id, d)` for every active root whose arc could lie within
    /// `radius` of `rect`, `d` being its arc distance to `rect`.  The
    /// linear backend enumerates every active root (a trivially admissible
    /// superset); the grid backend prunes by cells.
    template <class Fn>
    void for_each_within(const geom::tilted_rect& rect, double,
                         Fn fn) const {
        for (topo::node_id other : set_.items())
            fn(other, tree_->node(other).arc.distance(rect));
    }

  private:
    const topo::clock_tree* tree_;
    active_set set_;
};

}  // namespace astclk::core
