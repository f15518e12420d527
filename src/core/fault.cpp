#include "core/executor.hpp"

#include <algorithm>
#include <thread>

namespace astclk::core {

const char* to_string(fault_site s) noexcept {
    switch (s) {
        case fault_site::dispatch: return "dispatch";
        case fault_site::selection: return "selection";
        case fault_site::round: return "round";
        case fault_site::shard: return "shard";
    }
    return "?";
}

const char* to_string(fault_kind k) noexcept {
    switch (k) {
        case fault_kind::none: return "none";
        case fault_kind::transient_solver: return "transient_solver";
        case fault_kind::alloc_failure: return "alloc_failure";
        case fault_kind::worker_stall: return "worker_stall";
        case fault_kind::poisoned_shard: return "poisoned_shard";
    }
    return "?";
}

namespace {

/// splitmix64 — the standard 64-bit mixer: tiny, stateless between calls,
/// and fully deterministic, which is all the seeded schedule needs.
std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

// The mutex makes fault_plan immovable, so the factory builds the event
// list first and constructs the plan in the return expression (guaranteed
// elision).
fault_plan fault_plan::seeded(std::uint64_t seed, int count,
                              std::uint64_t horizon) {
    std::vector<event> events;
    std::uint64_t state = seed;
    const std::uint64_t span = std::max<std::uint64_t>(horizon, 1);
    for (int i = 0; i < std::max(count, 0); ++i) {
        const auto site = static_cast<fault_site>(splitmix64(state) % 4);
        const auto kind = static_cast<fault_kind>(
            1 + splitmix64(state) % 4);  // skip fault_kind::none
        const std::uint64_t index = 1 + splitmix64(state) % span;
        events.push_back({site, index, kind, false});
    }
    return fault_plan(std::move(events));
}

void fault_plan::schedule(fault_site site, std::uint64_t index,
                          fault_kind kind) {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back({site, index, kind, false});
}

bool fault_plan::armed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return std::any_of(events_.begin(), events_.end(),
                       [](const event& e) { return !e.consumed; });
}

int fault_plan::fired() const {
    std::lock_guard<std::mutex> lk(mu_);
    return fired_;
}

std::vector<fault_plan::event> fault_plan::events() const {
    std::lock_guard<std::mutex> lk(mu_);
    return events_;
}

fault_kind fault_plan::fire(fault_site site, std::uint64_t index) {
    std::lock_guard<std::mutex> lk(mu_);
    if (index == 0) index = ++occurrences_[static_cast<int>(site)];
    for (event& e : events_) {
        if (e.consumed || e.site != site || e.index != index) continue;
        e.consumed = true;  // one-shot: a retried run sails past it
        ++fired_;
        return e.kind;
    }
    return fault_kind::none;
}

route_status cancel_token::poll_at(fault_site site,
                                   std::uint64_t index) const {
    if (probe_ != nullptr) {
        ++probe_->polls;
        if (probe_->on_poll) probe_->on_poll(probe_->polls);
    }
    route_status rs = state(!flags_only_);
    if (rs != route_status::ok || faults_ == nullptr) return rs;
    switch (faults_->fire(site, index)) {
        case fault_kind::none:
            break;
        case fault_kind::transient_solver:
        case fault_kind::alloc_failure:
            return route_status::transient_fault;
        case fault_kind::poisoned_shard:
            return route_status::data_fault;
        case fault_kind::worker_stall:
            // Burn the rest of the deadline budget right here: the run
            // terminates (or salvages) at exactly this checkpoint, which
            // is what makes stall outcomes reproducible.  Without a
            // deadline the stall is pure latency — outcome unchanged.
            if (deadline_ != no_deadline())
                std::this_thread::sleep_until(deadline_);
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            rs = state(!flags_only_);
            break;
    }
    return rs;
}

}  // namespace astclk::core
