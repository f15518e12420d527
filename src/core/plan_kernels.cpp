#include "core/plan_kernels.hpp"

namespace astclk::core {

void solve_plan_batch(const merge_solver& solver, const topo::clock_tree& t,
                      const std::pair<topo::node_id, topo::node_id>* pairs,
                      std::size_t n, std::optional<merge_plan>* out) {
    for (std::size_t i = 0; i < n; ++i)
        out[i] = solver.plan(t, pairs[i].first, pairs[i].second);
}

}  // namespace astclk::core
