#pragma once

/// \file shard.hpp
/// Sharded die-region reduction (DESIGN.md §4): partition → parallel
/// sub-reduce → associative stitch.
///
/// The monolithic engine reduces the whole die in one front, so its NN
/// index, selection heap and scratch arenas all scale with total n.  For
/// instances an order of magnitude past r5 the lever is region
/// decomposition: split the sink set into k spatial shards (recursive
/// bisection in tilted space — the metric the merge engine orders by),
/// sub-reduce every shard as an independent engine run (its own private
/// tree arena, its own pooled `engine_scratch`, a `grid_index` sized to
/// the shard population), and join the shard roots with the phase-2
/// associative stitch (stitch.hpp).  Shards fan out over the caller's
/// `task_executor`, and single-threaded the path still wins: per-shard
/// grids keep ring expansions local and per-shard heaps shallow, so
/// wall-clock tracks the *largest shard*, not total n.
///
/// Determinism: the partition depends only on sink coordinates (ties on
/// the sink index), every shard reduce is a sequential engine run over a
/// private arena, shard trees are grafted into the final arena in
/// partition order, and the stitch is the ordinary deterministic engine —
/// so a fixed shard count yields bit-identical trees across thread counts
/// and NN backends.  The default `engine_options::shards == 1` bypasses
/// this path entirely and is bit-identical to previous releases.

#include "core/route_context.hpp"
#include "core/router.hpp"

#include <cstdint>
#include <vector>

namespace astclk::core {

/// A spatial partition of an instance's sink set: sink indices per shard,
/// in recursive-bisection (left-to-right) emission order, each shard's
/// indices sorted ascending.  Every sink appears in exactly one shard and
/// no shard is empty (a sink-less instance partitions into zero shards).
using shard_partition = std::vector<std::vector<std::int32_t>>;

/// Partition the instance's sinks into min(shards, #sinks) spatial shards
/// by recursive bisection in tilted (u, v) space: each step hulls the
/// current slab (geom::tilted_rect over the sink points), splits along the
/// longer tilted axis at the population-proportional rank, and recurses.
/// Deterministic: coordinate order with sink-index tie-breaks.
[[nodiscard]] shard_partition partition_sinks(const topo::instance& inst,
                                              int shards);

/// The automatic shard count (`engine_options::shards == 0`): aims for
/// ~512 sinks per shard, never shards below 192 sinks per shard, and
/// raises the count to the executor concurrency (capped by that floor) so
/// a wide pool is saturated even when the size heuristic alone would
/// produce fewer shards.  Returns 1 (monolithic) for small populations.
[[nodiscard]] int auto_shard_count(std::size_t population, int concurrency);

/// The degradation ladder's rung-1 shard count (route_service degrade
/// ladder, DESIGN.md §10): ~128 sinks per shard — four times finer than
/// `auto_shard_count`, trading stitch seams for much shallower (faster)
/// sub-reductions.  Always >= 2 so rung 1 genuinely reconfigures the run;
/// clamped to the population like every other shard count.
[[nodiscard]] int coarse_shard_count(std::size_t population, int concurrency);

/// Shard count a reduce over `population` roots will actually use:
/// resolves the `opt.shards` knob (1 = monolithic, 0 = auto, K = forced,
/// clamped to the population) and returns 1 for ledger-backed solvers —
/// globally consistent offset state cannot be split across independent
/// sub-reductions.
[[nodiscard]] int effective_shard_count(const engine_options& opt,
                                        const merge_solver& solver,
                                        std::size_t population);

/// The sharded route driver: partition the sinks into `shards` spatial
/// shards, sub-reduce each in a private tree with a context-pooled
/// scratch (fanned over `opt.executor` when present — the shard is the
/// unit of parallelism, so per-shard engines run sequentially), graft the
/// shard trees into one arena in partition order, stitch the shard roots
/// (stitch_roots — executor and cancel token apply), embed and fill in
/// the result.  Per-shard `engine_stats` are folded into one block with
/// `engine_stats::accumulate` (exact sums — each shard writes its own
/// block) and `stats.shards` records the shard count.  Cancellation: each
/// shard polls the caller's cancel token at the usual engine checkpoints
/// (the probe is driven only when the shard loop runs on the calling
/// thread); a mid-shard interrupt unwinds with the counters of every
/// shard — completed, partial and never-started alike — summed exactly
/// once.  Each shard job opens with a gate poll at the `shard` fault site
/// keyed by its partition index (deterministic under any worker
/// schedule); inner shard tokens never carry the fault plan.  With
/// `opt.salvage` set, a non-retryable interrupt (deadline_exceeded or
/// data_fault) keeps the completed shard sub-trees, greedily completes
/// the unfinished shards under a grace token (cancel flag honored,
/// deadline and faults dropped), stitches, and returns the tree tagged
/// route_status::degraded with a `salvaged` degradation_report; an
/// explicit cancel always discards, and a transient fault propagates so
/// the service's retry policy can recover it at full fidelity.
/// Requires a ledger-free solver, `shards >= 2`
/// (effective_shard_count enforces both) and a non-empty sink set
/// (std::invalid_argument otherwise).
[[nodiscard]] route_result sharded_route(const topo::instance& inst,
                                         const merge_solver& solver,
                                         const engine_options& opt,
                                         bool collapse_groups, int shards,
                                         routing_context& ctx);

}  // namespace astclk::core
