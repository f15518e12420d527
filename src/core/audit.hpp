#pragma once

/// \file audit.hpp
/// Runtime invariant auditor (DESIGN.md §12) — callable structural
/// checkers over the engine's live data structures, and the checkpoint
/// hooks that invoke them in `ASTCLK_AUDIT` builds.
///
/// The engine's headline guarantees — bit-identical trees across thread
/// counts, backends, merge orders and shard counts; exact engine_stats
/// accounting across cancellation unwinds — are exactly the properties
/// that races and forgotten-counter bugs break *silently*: the suite
/// stays green until a scheduler wobble flips a tie-break.  These
/// checkers make the underlying invariants directly testable:
///
///  * every checker is a pure read over the structure it audits and
///    returns a diagnostic string — empty when the invariant holds
///    (`clock_tree::check_structure`'s contract), naming the first
///    violated fact otherwise;
///  * the checkers are ALWAYS compiled and exported (tests call them
///    directly, on healthy and deliberately corrupted state alike);
///  * `ASTCLK_AUDIT` builds additionally invoke them from the engine's
///    existing cancel/fault checkpoints (selection steps, multi-merge
///    round boundaries, shard completion, strategy tails) via the
///    `checkpoint` helper below, which throws `audit::violation` on the
///    first failure instead of letting a corrupted run limp on.
///
/// Thread-safety: each checker reads exactly the structures passed in and
/// must only run while no other thread mutates them — the audit-build
/// call sites sit on the single thread driving the structure (the
/// reducer's selection loop, a shard's own sub-reduce), never inside a
/// fan-out.

#include "core/dary_heap.hpp"
#include "core/engine.hpp"
#include "core/grid_index.hpp"
#include "topo/tree.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace astclk::core {

class routing_context;

namespace audit {

/// Thrown by `checkpoint` when a checker reports a violation in an
/// ASTCLK_AUDIT build.  Derives from std::logic_error: a failed audit is
/// a bug in the engine (or a memory stomp), never a recoverable input
/// condition — the route_service's isolation still converts it to
/// route_status::error, so one corrupted request cannot poison siblings.
class violation : public std::logic_error {
  public:
    explicit violation(const std::string& what) : std::logic_error(what) {}
};

/// Number of checkpoint audits run process-wide (monotonic; test hook for
/// asserting that ASTCLK_AUDIT builds actually exercise the call sites).
[[nodiscard]] std::uint64_t checkpoints_run() noexcept;

/// Raise `violation` on a non-empty diagnostic and count the checkpoint.
/// `site` names the call site ("selection", "round", "shard", ...).
void checkpoint(const char* site, const std::string& diagnostic);

// ------------------------------------------------------------- checkers

/// Structural soundness of a routed (or partially routed) tree: delegates
/// to clock_tree::check_structure (parent/child symmetry, single root,
/// every sink exactly once — the root must be set), then audits what that
/// check does not cover: non-negative electrical edge lengths and
/// downstream capacitances, and leaf/internal shape consistency (leaves
/// childless, internal nodes with both children).
[[nodiscard]] std::string verify_tree_structure(const topo::clock_tree& t,
                                                std::size_t num_sinks);

/// Grid backend vs live set (grid_index's core invariant): every active
/// root is registered in exactly the cells its recorded span covers, the
/// span matches the cell range of the node's current arc, every id found
/// in a cell is active and in range, the packed-arc mirror matches the
/// tree's arcs, and the slab occupancy mirror agrees with the
/// authoritative cell vectors (population always; inline ids as a set
/// when the cell is not spilled).
[[nodiscard]] std::string verify_grid_vs_live_set(const grid_index& g,
                                                  const topo::clock_tree& t);

/// D-ary heap order over a caller-owned vector (the engine's selection
/// and radius heaps): no element orders above its parent under `Cmp`
/// (dary_heap.hpp semantics — the comparator-maximum sits at front()).
template <class Cmp, std::size_t D = kheap_arity, class T>
[[nodiscard]] std::string verify_heap_invariant(const std::vector<T>& h) {
    const Cmp less{};
    for (std::size_t i = 1; i < h.size(); ++i) {
        const std::size_t parent = (i - 1) / D;
        if (less(h[parent], h[i]))
            return "heap invariant violated: element " + std::to_string(i) +
                   " orders above its parent " + std::to_string(parent) +
                   " (heap size " + std::to_string(h.size()) + ")";
    }
    return {};
}

/// Scratch-lease bookkeeping of a *quiesced* routing_context: every
/// engine_scratch ever allocated must be back in the pool once no request
/// is in flight (leases return on destruction, cancellation and deadline
/// unwinds included).  Calling this while requests still hold leases
/// reports a violation by design — quiesce first.
[[nodiscard]] std::string verify_scratch_lease_balance(
    const routing_context& ctx);

/// Internal consistency of an engine_stats block (single run or
/// accumulated): counters non-negative, the merge taxonomy sums
/// (merges == disjoint + shared, multi-shared within shared), and a
/// recorded violation implies a forced merge.
[[nodiscard]] std::string verify_stats_books(const engine_stats& s);

}  // namespace audit
}  // namespace astclk::core
