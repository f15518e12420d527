#include "topo/group_map.hpp"

#include <algorithm>
#include <ostream>

namespace astclk::topo {

void group_delays::set(group_id g, geom::interval iv) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), g,
        [](const entry& e, group_id key) { return e.first < key; });
    if (it != entries_.end() && it->first == g)
        it->second = iv;
    else
        entries_.insert(it, {g, iv});
}

void group_delays::shift_all(double d) {
    for (auto& [g, iv] : entries_) iv = iv.shifted(d);
}

group_delays group_delays::merged(const group_delays& a, double da,
                                  const group_delays& b, double db) {
    group_delays out;
    out.entries_.reserve(a.entries_.size() + b.entries_.size());
    auto ia = a.entries_.begin();
    auto ib = b.entries_.begin();
    while (ia != a.entries_.end() || ib != b.entries_.end()) {
        if (ib == b.entries_.end() ||
            (ia != a.entries_.end() && ia->first < ib->first)) {
            out.entries_.emplace_back(ia->first, ia->second.shifted(da));
            ++ia;
        } else if (ia == a.entries_.end() || ib->first < ia->first) {
            out.entries_.emplace_back(ib->first, ib->second.shifted(db));
            ++ib;
        } else {
            out.entries_.emplace_back(
                ia->first, ia->second.shifted(da).hull(ib->second.shifted(db)));
            ++ia;
            ++ib;
        }
    }
    return out;
}

std::vector<group_id> group_delays::shared_with(const group_delays& o) const {
    std::vector<group_id> out;
    auto ia = entries_.begin();
    auto ib = o.entries_.begin();
    while (ia != entries_.end() && ib != o.entries_.end()) {
        if (ia->first < ib->first)
            ++ia;
        else if (ib->first < ia->first)
            ++ib;
        else {
            out.push_back(ia->first);
            ++ia;
            ++ib;
        }
    }
    return out;
}

bool group_delays::disjoint_from(const group_delays& o) const {
    auto ia = entries_.begin();
    auto ib = o.entries_.begin();
    while (ia != entries_.end() && ib != o.entries_.end()) {
        if (ia->first < ib->first)
            ++ia;
        else if (ib->first < ia->first)
            ++ib;
        else
            return false;
    }
    return true;
}

std::vector<group_id> group_delays::groups() const {
    std::vector<group_id> out;
    out.reserve(entries_.size());
    for (const auto& [g, iv] : entries_) out.push_back(g);
    return out;
}

double group_delays::max_spread() const {
    double s = 0.0;
    for (const auto& [g, iv] : entries_) s = std::max(s, iv.length());
    return s;
}

geom::interval group_delays::overall() const {
    geom::interval out = geom::interval::empty_set();
    for (const auto& [g, iv] : entries_) out = out.hull(iv);
    return out;
}

std::ostream& operator<<(std::ostream& os, const group_delays& m) {
    os << '{';
    bool first = true;
    for (const auto& [g, iv] : m.entries()) {
        if (!first) os << ", ";
        os << 'g' << g << ':' << iv;
        first = false;
    }
    return os << '}';
}

}  // namespace astclk::topo
