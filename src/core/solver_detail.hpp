#pragma once

/// \file solver_detail.hpp
/// The merge solver's private numeric guards and per-group window, shared
/// by its two implementations: the scalar `merge_solver::plan`
/// (merge_solver.cpp) and the SoA batch fast path (plan_kernels.cpp).  The
/// batch path is bit-identical to the scalar one only because both
/// evaluate these very definitions.  Not part of the public API.

#include "geom/interval.hpp"

namespace astclk::core::detail {

inline constexpr double klen_eps = 1e-9;     ///< layout units; die is ~1e5
inline constexpr double kdelay_eps = 1e-21;  ///< seconds; ~1e-9 ps

/// Feasible window for the delay difference D = e(beta, C_b) - e(alpha, C_a)
/// imposed by one shared group with intervals a (A side), b (B side):
/// merged spread <= bound  <=>  D in [a.hi - b.lo - bound, bound + a.lo - b.hi].
/// The expression order matters — FP addition is not associative.
[[nodiscard]] inline geom::interval group_window(const geom::interval& a,
                                                 const geom::interval& b,
                                                 double bound) {
    return {a.hi - b.lo - bound, bound + a.lo - b.hi};
}

}  // namespace astclk::core::detail
