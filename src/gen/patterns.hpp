#pragma once

/// \file patterns.hpp
/// Hand-shaped pathological instances used only by the tests
/// (test_patterns_matrix, test_embedder_engine):
///
///  * **alternating comb** — two groups interleaved along a line (Fig. 2's
///    worst case for separate construction);
///  * **two clusters** — a dense cluster per group at opposite die corners
///    plus stragglers (the *clustered* regime in miniature);
///  * **ring** — sinks on a circle with round-robin groups (uniform
///    intermingling with rotational symmetry);
///  * **depth ramp** — a heavy cluster next to isolated far sinks of the
///    same group, engineered to force wire snaking.

#include "topo/instance.hpp"

namespace astclk::gen {

/// `teeth` sinks spaced `pitch` apart on a horizontal line, alternating
/// between `k` groups round-robin.
[[nodiscard]] topo::instance alternating_comb(int teeth, int k = 2,
                                              double pitch = 10.0,
                                              double sink_cap = 10e-15);

/// Two groups of `per_cluster` sinks in tight clusters at opposite corners
/// of a `die`-sized layout, plus one straggler of each group near the
/// opposite cluster (so the groups are *not* geometrically separable).
[[nodiscard]] topo::instance two_clusters(int per_cluster, double die = 1000.0,
                                          double radius = 50.0,
                                          double sink_cap = 10e-15);

/// `n` sinks evenly on a circle of radius `r`, groups assigned round-robin
/// over `k`.
[[nodiscard]] topo::instance ring(int n, int k, double r = 500.0,
                                  double sink_cap = 10e-15);

/// A line of `chain` same-group sinks spanning `span` units (deep subtree,
/// large internal delay) with one extra same-group sink placed `offset`
/// units past the end — merging it forces root-edge snaking.
[[nodiscard]] topo::instance depth_ramp(int chain, double span = 2000.0,
                                        double offset = 10.0,
                                        double sink_cap = 10e-15);

}  // namespace astclk::gen
