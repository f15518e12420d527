#pragma once

/// \file tree.hpp
/// Clock-tree arena shared by all routers.
///
/// Nodes live in a flat vector; children are indices.  Each node stores the
/// bottom-up results (merging arc, electrical edge lengths to children,
/// downstream capacitance, per-group delay map, whether its children share
/// a group) and, after the top-down pass, its embedded location.
///
/// Electrical edge lengths may exceed the geometric distance between the
/// embedded endpoints — the difference is wire snaking, which the embedder
/// accounts for explicitly.

#include "geom/point.hpp"
#include "geom/tilted_rect.hpp"
#include "topo/group_map.hpp"
#include "topo/instance.hpp"

#include <cstdint>
#include <vector>

namespace astclk::topo {

using node_id = std::int32_t;
inline constexpr node_id knull_node = -1;

struct tree_node {
    node_id id = knull_node;
    node_id left = knull_node;
    node_id right = knull_node;
    node_id parent = knull_node;
    std::int32_t sink_index = -1;  ///< leaf: index into instance::sinks
    /// Internal node whose two children share no group: the legality
    /// condition of an interior snake on either child edge (Fig. 5), which
    /// merge_solver tests before reading the children.  Set by
    /// add_internal; a node's group set never changes afterwards, so the
    /// flag stays exact.  It sits in the padding before `arc`, in the
    /// cache line the nearest-neighbour walk already reads.
    bool disjoint_children = false;

    geom::tilted_rect arc;     ///< merging segment (iso-delay locus)
    double edge_left = 0.0;    ///< electrical length to left child
    double edge_right = 0.0;   ///< electrical length to right child
    double subtree_cap = 0.0;  ///< downstream cap incl. sink loads and wire
    group_delays delays;       ///< delay intervals from arc, per group

    geom::point placed;        ///< top-down embedding result
    bool is_placed = false;

    [[nodiscard]] bool is_leaf() const { return sink_index >= 0; }
};

/// Owning arena for one routed clock tree.
class clock_tree {
  public:
    clock_tree() = default;

    /// Create a leaf for sink `s` of the instance.
    node_id add_leaf(const instance& inst, std::int32_t sink_index);

    /// Create an internal node over two existing roots.  Children gain a
    /// parent; edge lengths are *electrical* (may embed with snaking).
    /// Sets `disjoint_children` from the children's delay maps.
    node_id add_internal(node_id left, node_id right, geom::tilted_rect arc,
                         double edge_left, double edge_right,
                         double subtree_cap, group_delays delays);

    /// Append every node of `donor` in id order, shifting all node
    /// references (id, children, parent) by this tree's current size;
    /// returns that shift.  Donor node `i` becomes node `shift + i`, so a
    /// donor root maps deterministically — the sharded reduction uses this
    /// to combine independently built per-shard trees into one arena
    /// before stitching their roots.  Every node field other than the
    /// references, `disjoint_children` included, is copied as is.  The
    /// donor's root/source-edge
    /// bookkeeping is not carried over (grafted subtrees are roots among
    /// others until a later merge adopts them).  Deliberately does not
    /// reserve: per-call exact reservations would defeat the vector's
    /// geometric growth across an absorb chain (quadratic node copies);
    /// callers that know the final size should `reserve_nodes` once.
    node_id absorb(const clock_tree& donor);

    /// Reserve arena capacity for `n` nodes (absorb chains, bulk builds).
    void reserve_nodes(std::size_t n) { nodes_.reserve(n); }

    [[nodiscard]] const tree_node& node(node_id id) const { return nodes_[static_cast<std::size_t>(id)]; }
    [[nodiscard]] tree_node& node(node_id id) { return nodes_[static_cast<std::size_t>(id)]; }

    [[nodiscard]] std::size_t size() const { return nodes_.size(); }

    [[nodiscard]] node_id root() const { return root_; }
    void set_root(node_id id) { root_ = id; }

    /// Electrical length of the source-to-root connection.
    [[nodiscard]] double source_edge() const { return source_edge_; }
    void set_source_edge(double len) { source_edge_ = len; }

    /// Sum of all electrical edge lengths plus the source connection — the
    /// paper's "Wirelen" metric.
    [[nodiscard]] double total_wirelength() const;

    /// Sink indices below a node, in traversal order.
    [[nodiscard]] std::vector<std::int32_t> sinks_under(node_id id) const;

    /// Post-order node ids from the root (children before parents).
    [[nodiscard]] std::vector<node_id> postorder() const;

    /// Structural sanity: parent/child symmetry, single root, every sink
    /// appears exactly once.  Returns a diagnostic or "" when consistent.
    [[nodiscard]] std::string check_structure(std::size_t num_sinks) const;

  private:
    std::vector<tree_node> nodes_;
    node_id root_ = knull_node;
    double source_edge_ = 0.0;
};

}  // namespace astclk::topo
