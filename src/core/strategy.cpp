#include "core/strategy.hpp"

#include "core/route_context.hpp"
#include "core/router_detail.hpp"
#include "core/shard.hpp"
#include "core/stitch.hpp"

#include <algorithm>
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

/// True when every bound of the spec is exactly zero (the exact ledger's
/// domain: it needs degenerate delay intervals).
bool all_zero(const skew_spec& spec) {
    return spec.default_bound == 0.0 &&
           std::all_of(spec.overrides.begin(), spec.overrides.end(),
                       [](const auto& o) { return o.second == 0.0; });
}

/// ZST-DME, EXT-BST and AST-DME: one bottom-up DME route whose strategy
/// only picks the merge constraints, i.e. the solver's spec, its
/// consistency mode and whether the sinks' groups are collapsed into one.
///
///   strategy / mode        spec                 consistency  groups
///   zst_dme                zero                 windowed     collapsed
///   ext_bst                uniform(default)     windowed     collapsed
///   ast_dme windowed       request's            windowed     kept
///   ast_dme soft_ledger    request's            soft         kept
///   ast_dme automatic      request's, all zero  exact        kept
///                          request's, bounded   soft         kept
///
/// Ledger-free configurations may take the sharded path (shard.hpp); the
/// ledger-backed ones always reduce monolithically (effective_shard_count).
route_result route_whole_die(const routing_request& req,
                             routing_context& ctx) {
    const topo::instance& inst = *req.instance;
    const engine_options& eopt = req.options.engine;
    const bool collapse = req.strategy != strategy_id::ast_dme;
    skew_spec spec = req.spec;
    consistency_mode mode = consistency_mode::windowed;
    if (req.strategy == strategy_id::zst_dme)
        spec = skew_spec::zero();
    else if (req.strategy == strategy_id::ext_bst)
        spec = skew_spec::uniform(req.spec.default_bound);
    else if (req.mode != ast_mode::windowed)
        mode = req.mode == ast_mode::automatic && all_zero(spec)
                   ? consistency_mode::exact
                   : consistency_mode::soft;
    offset_ledger ledger(inst.num_groups);
    const merge_solver solver(
        req.options.model, std::move(spec),
        mode == consistency_mode::windowed ? nullptr : &ledger, mode);

    route_result res;
    const int k = effective_shard_count(eopt, solver, inst.sinks.size());
    if (k > 1) {
        res = sharded_route(inst, solver, eopt, collapse, k, ctx);
    } else {
        topo::clock_tree t;
        auto leaves = detail::make_leaves(inst, t, collapse);
        const bottom_up_engine engine(solver, eopt);
        auto lease = ctx.scratch();
        const topo::node_id root =
            engine.reduce(t, std::move(leaves), &res.stats, lease.get());
        detail::finalize_result(inst, std::move(t), root, res);
    }
    res.resolved_shards = k;  // auto counts become reproducible inputs
    return res;
}

/// The prior work's construction [12], the strawman of Fig. 2: a
/// zero-skew tree per group built in isolation (each root keeps its own
/// group id, so the stitch sees pairwise-disjoint subtrees), then the
/// group roots stitched with no inter-group constraint (stitch.hpp).  The
/// damage from building the groups separately is already done by then.
route_result separate_stitch(const routing_request& req,
                             routing_context& ctx) {
    const topo::instance& inst = *req.instance;
    topo::clock_tree t;
    auto leaves = detail::make_leaves(inst, t, /*collapse_groups=*/false);
    offset_ledger ledger(inst.num_groups);
    const merge_solver solver(req.options.model, skew_spec::zero(), &ledger,
                              consistency_mode::exact);
    const bottom_up_engine engine(solver, req.options.engine);
    auto lease = ctx.scratch();
    route_result res;
    std::vector<topo::node_id> group_roots;
    for (topo::group_id g = 0; g < inst.num_groups; ++g) {
        std::vector<topo::node_id> members;
        for (std::size_t i = 0; i < inst.sinks.size(); ++i) {
            if (inst.sinks[i].group == g)
                members.push_back(leaves[i]);
        }
        if (members.empty()) continue;
        group_roots.push_back(
            engine.reduce(t, std::move(members), &res.stats, lease.get()));
    }
    const topo::node_id root =
        stitch_roots(solver, req.options.engine, t, std::move(group_roots),
                     &res.stats, lease.get());
    detail::finalize_result(inst, std::move(t), root, res);
    res.resolved_shards = 1;  // the per-group reduces never shard
    return res;
}

route_result dispatch(const routing_request& req, routing_context& ctx) {
    switch (req.strategy) {
        case strategy_id::zst_dme:
        case strategy_id::ext_bst:
        case strategy_id::ast_dme: return route_whole_die(req, ctx);
        case strategy_id::separate_stitch: return separate_stitch(req, ctx);
    }
    throw std::out_of_range("route: unknown strategy id " +
                            std::to_string(static_cast<int>(req.strategy)));
}

/// The request behind every legacy router.hpp entry point.
route_result legacy_route(const topo::instance& inst, strategy_id id,
                          skew_spec spec, const router_options& opt,
                          ast_mode mode = ast_mode::automatic) {
    routing_request req;
    req.instance = &inst;
    req.spec = std::move(spec);
    req.options = opt;
    req.strategy = id;
    req.mode = mode;
    return route(req);
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

route_result route_zst_dme(const topo::instance& inst,
                           const router_options& opt) {
    return legacy_route(inst, strategy_id::zst_dme, skew_spec::zero(), opt);
}

route_result route_ext_bst(const topo::instance& inst, double global_bound,
                           const router_options& opt) {
    return legacy_route(inst, strategy_id::ext_bst,
                     skew_spec::uniform(global_bound), opt);
}

route_result route_ast_dme(const topo::instance& inst, const skew_spec& spec,
                           const router_options& opt, ast_mode mode) {
    return legacy_route(inst, strategy_id::ast_dme, spec, opt, mode);
}

route_result route_separate_stitch(const topo::instance& inst,
                                   const router_options& opt) {
    return legacy_route(inst, strategy_id::separate_stitch, skew_spec::zero(),
                     opt);
}

}  // namespace astclk::core
