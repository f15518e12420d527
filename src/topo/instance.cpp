#include "topo/instance.hpp"

#include <cmath>
#include <sstream>

namespace astclk::topo {

std::string instance::validate() const {
    std::ostringstream err;
    if (sinks.empty()) return "instance has no sinks";
    if (num_groups <= 0) return "num_groups must be positive";
    // Every group needs a sink, so a larger count is invalid before
    // anything is sized by it: it is untrusted input.
    if (static_cast<std::size_t>(num_groups) > sinks.size()) {
        err << "num_groups " << num_groups << " exceeds the sink count "
            << sinks.size() << " (every group needs a sink)";
        return err.str();
    }
    if (!std::isfinite(source.x) || !std::isfinite(source.y))
        return "source has a non-finite coordinate";
    std::vector<int> members(static_cast<std::size_t>(num_groups), 0);
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        const sink& s = sinks[i];
        if (s.group < 0 || s.group >= num_groups) {
            err << "sink " << i << " has group " << s.group << " outside [0, "
                << num_groups << ')';
            return err.str();
        }
        if (!std::isfinite(s.loc.x) || !std::isfinite(s.loc.y)) {
            err << "sink " << i << " has a non-finite coordinate";
            return err.str();
        }
        if (!std::isfinite(s.cap)) {
            err << "sink " << i << " has non-finite capacitance";
            return err.str();
        }
        if (s.cap < 0.0) {
            err << "sink " << i << " has negative capacitance";
            return err.str();
        }
        ++members[static_cast<std::size_t>(s.group)];
    }
    for (group_id g = 0; g < num_groups; ++g) {
        if (members[static_cast<std::size_t>(g)] == 0) {
            err << "group " << g << " has no sinks";
            return err.str();
        }
    }
    return {};
}

}  // namespace astclk::topo
