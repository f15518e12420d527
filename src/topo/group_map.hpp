#pragma once

/// \file group_map.hpp
/// Per-group delay bookkeeping for subtree roots.
///
/// Every active subtree root carries, for each *original* sink group with
/// members below it, the exact interval of Elmore delays from the root's
/// merging arc to those sinks.  Because wire added above a root delays all
/// sinks below it equally, these intervals are exact forever ("frozen
/// skew"), and shifting a whole subtree is a scalar add.
///
/// Zero-skew groups keep degenerate intervals bit-exactly: lo and hi always
/// undergo the same arithmetic.

#include "geom/interval.hpp"
#include "topo/instance.hpp"

#include <algorithm>
#include <iosfwd>
#include <utility>
#include <vector>

namespace astclk::topo {

/// Sorted association list group_id -> delay interval.  Group counts per
/// subtree are small (<= k, typically <= 10), so a flat sorted vector beats
/// any tree/hash container.
class group_delays {
  public:
    using entry = std::pair<group_id, geom::interval>;

    group_delays() = default;

    /// Single-group map (the state of a leaf: delay 0 to its own group).
    static group_delays single(group_id g, geom::interval iv = geom::interval::at(0.0)) {
        group_delays m;
        m.entries_.emplace_back(g, iv);
        return m;
    }

    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    [[nodiscard]] const std::vector<entry>& entries() const { return entries_; }

    /// Interval for group g, or nullptr when absent.  Inline: the merge
    /// solver's window loops call it per shared group.
    [[nodiscard]] const geom::interval* find(group_id g) const {
        const auto it = std::lower_bound(
            entries_.begin(), entries_.end(), g,
            [](const entry& e, group_id key) { return e.first < key; });
        if (it != entries_.end() && it->first == g) return &it->second;
        return nullptr;
    }

    /// Insert or overwrite the interval of group g.
    void set(group_id g, geom::interval iv);

    /// Add d to every interval (wire added above the subtree root).
    void shift_all(double d);

    /// Union (hull) per group of two shifted maps — the delay map of a
    /// subtree merged from children a (shifted by da) and b (shifted by db).
    [[nodiscard]] static group_delays merged(const group_delays& a, double da,
                                             const group_delays& b, double db);

    /// Group ids present in both maps (the "shared groups" of a merge).
    [[nodiscard]] std::vector<group_id> shared_with(const group_delays& o) const;

    /// True when no group id is present in both maps.
    [[nodiscard]] bool disjoint_from(const group_delays& o) const;

    /// All group ids, ascending.
    [[nodiscard]] std::vector<group_id> groups() const;

    /// Largest intra-group spread (hi - lo) over all groups.
    [[nodiscard]] double max_spread() const;

    /// Hull of all intervals (min lo, max hi) — the subtree's overall delay
    /// range, used by balance heuristics.  Empty map -> empty interval.
    [[nodiscard]] geom::interval overall() const;

    friend bool operator==(const group_delays&, const group_delays&) = default;

  private:
    std::vector<entry> entries_;  // sorted by group id, unique
};

std::ostream& operator<<(std::ostream& os, const group_delays& m);

}  // namespace astclk::topo
