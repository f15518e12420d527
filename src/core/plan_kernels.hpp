#pragma once

/// \file plan_kernels.hpp
/// Kept only because benchmark/astbench.cpp:672 calls it: solves each pair
/// with `merge_solver::plan` (alpha oriented to `pairs[i].first`), writing
/// the result — nullopt for a rejected pair — into `out[i]`.

#include "core/merge_solver.hpp"
#include "topo/tree.hpp"

#include <cstddef>
#include <optional>
#include <utility>

namespace astclk::core {

void solve_plan_batch(const merge_solver& solver, const topo::clock_tree& t,
                      const std::pair<topo::node_id, topo::node_id>* pairs,
                      std::size_t n, std::optional<merge_plan>* out);

}  // namespace astclk::core
