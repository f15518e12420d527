#include "core/strategy.hpp"

#include "core/route_context.hpp"
#include "core/router_detail.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

namespace astclk::core {

strategy_registry& strategy_registry::global() {
    static strategy_registry reg;
    return reg;
}

strategy_registry::strategy_registry() {
    // Built-ins are bound here (not via per-TU static initialisers) so a
    // static-library link can never silently drop a router's registration.
    entries_.push_back(
        {strategy_id::zst_dme, "zst_dme", "zst", &detail::strategy_zst_dme});
    entries_.push_back(
        {strategy_id::ext_bst, "ext_bst", "bst", &detail::strategy_ext_bst});
    entries_.push_back(
        {strategy_id::ast_dme, "ast_dme", "ast", &detail::strategy_ast_dme});
    entries_.push_back({strategy_id::separate_stitch, "separate_stitch",
                        "sep", &detail::strategy_separate_stitch});
}

void strategy_registry::add(strategy_id id, std::string name,
                            std::string alias, strategy_fn fn) {
    std::lock_guard<std::mutex> lk(mu_);
    for (entry& e : entries_) {
        if (e.id == id) {
            e.name = std::move(name);
            e.alias = std::move(alias);
            e.fn = fn;
            return;
        }
    }
    entries_.push_back({id, std::move(name), std::move(alias), fn});
}

strategy_fn strategy_registry::find(strategy_id id) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const entry& e : entries_)
        if (e.id == id) return e.fn;
    throw std::out_of_range("strategy_registry: unregistered strategy id " +
                            std::to_string(static_cast<int>(id)));
}

std::optional<strategy_id> strategy_registry::id_of(
    const std::string& name_or_alias) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const entry& e : entries_)
        if (e.name == name_or_alias || e.alias == name_or_alias) return e.id;
    return std::nullopt;
}

std::string strategy_registry::name_of(strategy_id id) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const entry& e : entries_)
        if (e.id == id) return e.name;
    return "?";
}

std::vector<std::string> strategy_registry::names() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const entry& e : entries_) out.push_back(e.name);
    return out;
}

route_result route(const routing_request& req, routing_context& ctx) {
    if (req.instance == nullptr)
        throw std::invalid_argument("routing_request: instance is null");
    const strategy_fn fn = strategy_registry::global().find(req.strategy);
    const auto t0 = std::chrono::steady_clock::now();
    route_result res;
    const cancel_token& tok = req.options.engine.cancel;
    // Validation boundary: the engine indexes per-group state by group id
    // and trusts every coordinate, cap and bound, so a malformed instance
    // or skew spec never reaches a strategy.  It comes back as a
    // non-retryable `error` carrying the problem, whoever built it (parser,
    // generator or code).  A NaN bound would otherwise route as "no bound".
    std::string problem = req.instance->validate();
    if (!problem.empty())
        problem = "invalid instance: " + problem;
    else if (std::string sp = req.spec.validate(req.instance->num_groups);
             !sp.empty())
        problem = "invalid skew spec: " + sp;
    // Checkpoint zero: a token that already fired (cancelled before claim,
    // zero/expired deadline) reports its status without entering the
    // strategy — no leaves, no scratch lease, no reduce.  This is also the
    // `dispatch` fault site: index 0 asks the plan for its per-site
    // occurrence counter, so scheduled dispatch faults index by attempt.
    const route_status pre =
        !problem.empty() ? route_status::error
        : tok.armed()    ? tok.poll_at(fault_site::dispatch, 0)
                         : route_status::ok;
    if (pre != route_status::ok) {
        res.status = pre;
        res.status_message =
            problem.empty() ? status_message_for(pre) : problem;
    } else {
        try {
            res = fn(req, ctx);
        } catch (const route_interrupt& stop) {
            // A mid-reduce checkpoint fired: the partial tree died with the
            // unwind (scratch lease and instance borrow released on the
            // way); the status and the work burned so far survive.
            res = route_result{};
            res.status = stop.status();
            res.status_message = stop.what();
            res.stats = stop.stats();
        }
    }
    res.cpu_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    res.threads_used = req.options.engine.executor != nullptr
                           ? req.options.engine.executor->concurrency()
                           : 1;
    return res;
}

route_result route(const routing_request& req) {
    routing_context ctx(req.options.model);
    return route(req, ctx);
}

}  // namespace astclk::core
