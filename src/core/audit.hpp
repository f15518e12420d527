#pragma once

/// \file audit.hpp
/// Runtime invariant auditor (DESIGN.md §12) — callable structural
/// checkers over the engine's live data structures, and the checkpoint
/// hooks that invoke them in `ASTCLK_AUDIT` builds.
///
/// The engine's headline guarantees — bit-identical trees across thread
/// counts, merge orders and shard counts; exact engine_stats
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
#include <unordered_set>
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
/// downstream capacitances, leaf/internal shape consistency (leaves
/// childless, internal nodes with both children), and every node's
/// `disjoint_children` flag (set exactly when the node's two children
/// share no group; never on a leaf).
[[nodiscard]] std::string verify_tree_structure(const topo::clock_tree& t,
                                                std::size_t num_sinks);

/// Grid index vs live set (grid_index's core invariant): every active
/// root sits exactly once in each cell of its arc's range, and every cell
/// holds only active ids whose arc's range covers that cell.
[[nodiscard]] std::string verify_grid_vs_live_set(const grid_index& g,
                                                  const topo::clock_tree& t);

/// Addressable heap soundness (dary_heap.hpp), over the heap's entries in
/// slot order and its owner -> slot map: no entry orders before its
/// parent, and the map is exact both ways — every entry's owner maps to
/// the entry's slot, and no other owner is mapped.  Taking the two vectors
/// rather than the heap lets tests seed corruptions into copies.
template <class Heap>
[[nodiscard]] std::string verify_heap_invariant(
    const std::vector<typename Heap::value_type>& items,
    const std::vector<std::uint32_t>& pos) {
    const typename Heap::before_type before{};
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
            const std::size_t parent = (i - 1) / Heap::arity;
            if (before(items[i], items[parent]))
                return "heap invariant violated: element " +
                       std::to_string(i) + " orders above its parent " +
                       std::to_string(parent) + " (heap size " +
                       std::to_string(items.size()) + ")";
        }
        const std::size_t id = Heap::owner(items[i]);
        if (id >= pos.size() || pos[id] != i)
            return "position map: owner " + std::to_string(id) + " of slot " +
                   std::to_string(i) + " is not mapped to it";
    }
    std::size_t mapped = 0;
    for (const std::uint32_t p : pos) mapped += p != Heap::npos ? 1 : 0;
    if (mapped != items.size())
        return "position map holds " + std::to_string(mapped) +
               " owners for " + std::to_string(items.size()) + " entries";
    return {};
}

template <class Heap>
[[nodiscard]] std::string verify_heap_invariant(const Heap& h) {
    return verify_heap_invariant<Heap>(h.items(), h.positions());
}

/// The nearest-pair engine's records against its two heaps: every
/// selection entry (owner a, partner b) names a's record — b == nn_to[a],
/// dist == nn_dist[a] — every radius entry carries its owner's nn_dist,
/// and every active root with a partner owns an entry in each heap (so no
/// entry outlives its record).
template <class SelHeap, class RadHeap>
[[nodiscard]] std::string verify_selection_records(
    const SelHeap& sel, const RadHeap& rad,
    const std::vector<topo::node_id>& active,
    const std::vector<topo::node_id>& nn_to,
    const std::vector<double>& nn_dist) {
    for (const auto& e : sel.items()) {
        const auto a = static_cast<std::size_t>(e.a);
        if (a >= nn_to.size() || nn_to[a] != e.b || nn_dist[a] != e.dist)
            return "selection entry (" + std::to_string(e.a) + ", " +
                   std::to_string(e.b) + ") does not match its owner's record";
    }
    for (const auto& e : rad.items()) {
        const auto a = static_cast<std::size_t>(e.a);
        if (a >= nn_to.size() || nn_to[a] == topo::knull_node ||
            nn_dist[a] != e.dist)
            return "radius entry of " + std::to_string(e.a) +
                   " does not match its owner's record";
    }
    std::size_t with_partner = 0;
    for (const topo::node_id i : active) {
        const auto si = static_cast<std::size_t>(i);
        if (si >= nn_to.size() || nn_to[si] == topo::knull_node) continue;
        ++with_partner;
        if (!sel.contains(si) || !rad.contains(si))
            return "active root " + std::to_string(i) +
                   " has a record but no heap entry";
    }
    if (sel.size() != with_partner || rad.size() != with_partner)
        return "heaps hold " + std::to_string(sel.size()) + " / " +
               std::to_string(rad.size()) + " entries for " +
               std::to_string(with_partner) + " records";
    return {};
}

/// Every active root's record against a linear scan: nn_to[i] and
/// nn_dist[i] are i's nearest active partner whose pair is not in
/// `banned` (ties to the smaller id), and a root without one (knull)
/// really has none.  O(active^2): the engine runs it every 64th step.
[[nodiscard]] std::string verify_nn_records(
    const topo::clock_tree& t, const std::vector<topo::node_id>& active,
    const std::vector<topo::node_id>& nn_to,
    const std::vector<double>& nn_dist,
    const std::unordered_set<std::uint64_t>& banned);

/// Every active root's live ban degree against a recount from the ban
/// set: live_deg[i] (zero beyond the vector) must equal the number of
/// banned pairs (i, j) with j active.  O(bans + active).
[[nodiscard]] std::string verify_ban_degrees(
    const std::vector<topo::node_id>& active,
    const std::unordered_set<std::uint64_t>& banned,
    const std::vector<std::uint32_t>& live_deg);

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
