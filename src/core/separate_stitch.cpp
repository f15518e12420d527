#include "core/router.hpp"
#include "core/router_detail.hpp"
#include "core/stitch.hpp"

namespace astclk::core {

namespace detail {

route_result strategy_separate_stitch(const routing_request& req,
                                      routing_context& ctx) {
    const topo::instance& inst = *req.instance;
    const router_options& opt = req.options;
    topo::clock_tree t;
    auto leaves = make_leaves(inst, t, /*collapse_groups=*/false);

    // Phase 1: a zero-skew tree per group, built in isolation — the prior
    // work's construction [12].  Each group root keeps its own group id, so
    // phase 2 sees pairwise-disjoint subtrees.
    offset_ledger ledger(inst.num_groups);
    merge_solver solver(opt.model, skew_spec::zero(), &ledger,
                        consistency_mode::exact);
    bottom_up_engine engine(solver, opt.engine);
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

    // Phase 2: stitch the per-group trees (no inter-group constraints, so
    // every stitch is a disjoint-group merge — but the damage from building
    // the trees separately is already done, cf. Fig. 2).  The stitch itself
    // is the shared phase-2 implementation (stitch.hpp) the sharded
    // reduction uses too.
    const topo::node_id root = stitch_roots(solver, opt.engine, t,
                                            std::move(group_roots),
                                            &res.stats, lease.get());
    finalize_result(inst, std::move(t), root, res);
    res.resolved_shards = 1;  // the per-group reduces never shard
    return res;
}

}  // namespace detail

route_result route_separate_stitch(const topo::instance& inst,
                                   const router_options& opt) {
    routing_request req;
    req.instance = &inst;
    req.options = opt;
    req.strategy = strategy_id::separate_stitch;
    return route(req);
}

}  // namespace astclk::core
