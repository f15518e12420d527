#pragma once

/// \file instance.hpp
/// The associative-skew clock routing problem instance (Ch. II).
///
/// Sinks live in the Manhattan plane, each with a load capacitance and a
/// group id in [0, num_groups).  Zero (or bounded) skew is required *within*
/// each group; nothing is required *between* groups.  Conventional problems
/// are the special case num_groups == 1.

#include "geom/point.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace astclk::topo {

using group_id = std::int32_t;

/// One clock sink (flip-flop clock pin).
struct sink {
    geom::point loc;
    double cap = 0.0;      ///< load capacitance, farads
    group_id group = 0;    ///< association group

    friend bool operator==(const sink&, const sink&) = default;
};

/// A full routing instance.
struct instance {
    std::string name;
    std::vector<sink> sinks;
    geom::point source;      ///< clock source location
    double die_width = 0.0;  ///< layout extent, units (x in [0, die_width])
    double die_height = 0.0;
    group_id num_groups = 1;

    [[nodiscard]] std::size_t size() const { return sinks.size(); }

    /// Sinks of one group, as indices.
    [[nodiscard]] std::vector<std::int32_t> group_members(group_id g) const {
        std::vector<std::int32_t> out;
        for (std::size_t i = 0; i < sinks.size(); ++i)
            if (sinks[i].group == g) out.push_back(static_cast<std::int32_t>(i));
        return out;
    }

    /// Validates group ids (in range, every group non-empty), capacitances
    /// (finite, non-negative) and coordinates (finite, sinks and source);
    /// returns a human-readable problem description or the empty string
    /// when valid.
    [[nodiscard]] std::string validate() const;
};

}  // namespace astclk::topo
