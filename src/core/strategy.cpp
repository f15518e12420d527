#include "core/strategy.hpp"

#include "core/route_context.hpp"
#include "core/router_detail.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

namespace astclk::core {

namespace {

struct strategy_name {
    strategy_id id;
    const char* name;
    const char* alias;
};

constexpr strategy_name kstrategies[] = {
    {strategy_id::zst_dme, "zst_dme", "zst"},
    {strategy_id::ext_bst, "ext_bst", "bst"},
    {strategy_id::ast_dme, "ast_dme", "ast"},
    {strategy_id::separate_stitch, "separate_stitch", "sep"},
};

route_result dispatch(const routing_request& req, routing_context& ctx) {
    switch (req.strategy) {
        case strategy_id::zst_dme: return detail::strategy_zst_dme(req, ctx);
        case strategy_id::ext_bst: return detail::strategy_ext_bst(req, ctx);
        case strategy_id::ast_dme: return detail::strategy_ast_dme(req, ctx);
        case strategy_id::separate_stitch:
            return detail::strategy_separate_stitch(req, ctx);
    }
    throw std::out_of_range("route: unknown strategy id " +
                            std::to_string(static_cast<int>(req.strategy)));
}

}  // namespace

const char* to_string(strategy_id id) noexcept {
    for (const strategy_name& s : kstrategies)
        if (s.id == id) return s.name;
    return "?";
}

std::optional<strategy_id> parse_strategy(
    std::string_view name_or_alias) noexcept {
    for (const strategy_name& s : kstrategies)
        if (name_or_alias == s.name || name_or_alias == s.alias) return s.id;
    return std::nullopt;
}

route_result route(const routing_request& req, routing_context& ctx) {
    if (req.instance == nullptr)
        throw std::invalid_argument("routing_request: instance is null");
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
            res = dispatch(req, ctx);
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
    routing_context ctx;
    return route(req, ctx);
}

}  // namespace astclk::core
