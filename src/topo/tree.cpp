#include "topo/tree.hpp"

#include <cassert>
#include <sstream>

namespace astclk::topo {

node_id clock_tree::add_leaf(const instance& inst, std::int32_t sink_index) {
    assert(sink_index >= 0 &&
           static_cast<std::size_t>(sink_index) < inst.sinks.size());
    const sink& s = inst.sinks[static_cast<std::size_t>(sink_index)];
    tree_node n;
    n.id = static_cast<node_id>(nodes_.size());
    n.sink_index = sink_index;
    n.arc = geom::tilted_rect::at(s.loc);
    n.subtree_cap = s.cap;
    n.delays = group_delays::single(s.group);
    nodes_.push_back(std::move(n));
    return nodes_.back().id;
}

node_id clock_tree::add_internal(node_id left, node_id right,
                                 geom::tilted_rect arc, double edge_left,
                                 double edge_right, double subtree_cap,
                                 group_delays delays) {
    assert(left >= 0 && right >= 0);
    tree_node n;
    n.id = static_cast<node_id>(nodes_.size());
    n.left = left;
    n.right = right;
    n.arc = arc;
    n.edge_left = edge_left;
    n.edge_right = edge_right;
    n.subtree_cap = subtree_cap;
    n.delays = std::move(delays);
    n.disjoint_children = node(left).delays.disjoint_from(node(right).delays);
    nodes_.push_back(std::move(n));
    const node_id id = nodes_.back().id;
    nodes_[static_cast<std::size_t>(left)].parent = id;
    nodes_[static_cast<std::size_t>(right)].parent = id;
    return id;
}

node_id clock_tree::absorb(const clock_tree& donor) {
    const auto shift = static_cast<node_id>(nodes_.size());
    for (const tree_node& dn : donor.nodes_) {
        tree_node n = dn;
        n.id += shift;
        if (n.left != knull_node) n.left += shift;
        if (n.right != knull_node) n.right += shift;
        if (n.parent != knull_node) n.parent += shift;
        nodes_.push_back(std::move(n));
    }
    return shift;
}

double clock_tree::total_wirelength() const {
    double wl = source_edge_;
    for (const auto& n : nodes_) {
        if (!n.is_leaf()) wl += n.edge_left + n.edge_right;
    }
    return wl;
}

std::vector<std::int32_t> clock_tree::sinks_under(node_id id) const {
    std::vector<std::int32_t> out;
    std::vector<node_id> stack{id};
    while (!stack.empty()) {
        const node_id cur = stack.back();
        stack.pop_back();
        const tree_node& n = node(cur);
        if (n.is_leaf())
            out.push_back(n.sink_index);
        else {
            stack.push_back(n.left);
            stack.push_back(n.right);
        }
    }
    return out;
}

std::vector<node_id> clock_tree::postorder() const {
    std::vector<node_id> out;
    if (root_ == knull_node) return out;
    // Iterative post-order: push (node, visited) pairs.
    std::vector<std::pair<node_id, bool>> stack{{root_, false}};
    while (!stack.empty()) {
        auto [cur, visited] = stack.back();
        stack.pop_back();
        const tree_node& n = node(cur);
        if (visited || n.is_leaf()) {
            out.push_back(cur);
            continue;
        }
        stack.push_back({cur, true});
        stack.push_back({n.right, false});
        stack.push_back({n.left, false});
    }
    return out;
}

std::string clock_tree::check_structure(std::size_t num_sinks) const {
    std::ostringstream err;
    if (root_ == knull_node) return "no root";
    std::vector<int> seen(num_sinks, 0);
    std::size_t visited = 0;
    std::vector<node_id> stack{root_};
    while (!stack.empty()) {
        const node_id cur = stack.back();
        stack.pop_back();
        ++visited;
        const tree_node& n = node(cur);
        if (n.is_leaf()) {
            if (static_cast<std::size_t>(n.sink_index) >= num_sinks) {
                err << "leaf " << cur << " has bad sink index";
                return err.str();
            }
            ++seen[static_cast<std::size_t>(n.sink_index)];
        } else {
            if (n.left < 0 || n.right < 0) {
                err << "internal node " << cur << " missing child";
                return err.str();
            }
            if (node(n.left).parent != cur || node(n.right).parent != cur) {
                err << "parent/child mismatch at node " << cur;
                return err.str();
            }
            stack.push_back(n.left);
            stack.push_back(n.right);
        }
    }
    for (std::size_t i = 0; i < num_sinks; ++i) {
        if (seen[i] != 1) {
            err << "sink " << i << " appears " << seen[i] << " times";
            return err.str();
        }
    }
    if (visited != 2 * num_sinks - 1) {
        err << "expected " << 2 * num_sinks - 1 << " reachable nodes, found "
            << visited;
        return err.str();
    }
    return {};
}

}  // namespace astclk::topo
