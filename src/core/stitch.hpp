#pragma once

/// \file stitch.hpp
/// Phase-2 associative stitching: joining independently built subtrees.
///
/// The paper's associative machinery (offset ledgers, bounded-skew merge
/// windows) exists precisely so subtrees constructed in isolation can be
/// merged afterwards without destroying the skew budget — every stitch is
/// an ordinary engine merge whose windows account for the skews frozen
/// inside the operands.  Two callers share this entry point:
///
///  * the legacy separate-stitch strategy (strategy.cpp), which
///    builds one zero-skew tree per *group* and stitches the group roots
///    (the prior work's construction, Fig. 2's strawman);
///  * the sharded reduction (shard.hpp, DESIGN.md §4), which sub-reduces
///    spatial *shards* in parallel and stitches the shard roots.

#include "core/engine.hpp"

namespace astclk::core {

/// Merge the given subtree roots of `t` down to a single root with the
/// bottom-up engine and return it.  Thin by design — the associative
/// heavy lifting lives in the solver's merge windows — but the one place
/// both stitch callers go through, so the phase-2 contract (stats
/// accumulate into `*stats`, scratch is optional, the engine options'
/// executor/cancel apply to the stitch) is implemented exactly once.
/// A stitch is always one front: the engine never reads `opt.shards`.
topo::node_id stitch_roots(const merge_solver& solver,
                           const engine_options& opt, topo::clock_tree& t,
                           std::vector<topo::node_id> roots,
                           engine_stats* stats = nullptr,
                           engine_scratch* scratch = nullptr);

}  // namespace astclk::core
