// Ablation C — the consistency study (DESIGN.md §5):
// how the three AST conflict strategies trade wirelength, snaking and
// residual violations.
//
// All variants are one route_service batch over context-cached instances.

#include "common.hpp"

using namespace astclk;

int main() {
    std::cout << "Ablation — AST consistency modes (intermingled groups)\n\n";
    core::route_service svc;
    auto& ctx = svc.context();

    struct variant {
        const char* label;
        core::ast_mode mode;
    };
    const variant variants[] = {
        {"exact ledger", core::ast_mode::exact_ledger},
        {"soft ledger", core::ast_mode::soft_ledger},
        {"windowed (paper)", core::ast_mode::windowed},
    };

    struct job {
        const topo::instance* inst;
        const char* circuit;
        int k;
        const char* label;
    };
    std::vector<core::routing_request> reqs;
    std::vector<job> jobs;
    for (const char* name : {"r1", "r2", "r3"}) {
        for (int k : {4, 10}) {
            const topo::instance& inst =
                ctx.intermingled(gen::paper_spec(name), k, 42);
            for (const auto& v : variants) {
                core::routing_request r;
                r.instance = &inst;
                r.strategy = core::strategy_id::ast_dme;
                r.mode = v.mode;
                reqs.push_back(r);
                jobs.push_back({&inst, name, k, v.label});
            }
        }
    }
    const auto results = bench::run_batch(svc, reqs);

    io::table t({"Circuit", "k", "Mode", "Wirelen", "SnakeWire", "Rejected",
                 "Forced", "ResidViol(ps)", "IntraSkew(ps)"});
    const core::router_options opt;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const job& j = jobs[i];
        const auto& r = results[i];
        const auto ev = eval::evaluate(r.tree, *j.inst, opt.model);
        t.add_row({j.circuit, std::to_string(j.k), j.label,
                   io::table::integer(r.wirelength),
                   io::table::integer(r.stats.snake_wire),
                   std::to_string(r.stats.rejected_pairs),
                   std::to_string(r.stats.forced_merges),
                   io::table::fixed(rc::to_ps(r.stats.worst_violation), 3),
                   io::table::fixed(rc::to_ps(ev.max_intra_group_skew), 4)});
        if ((i + 1) % std::size(variants) == 0) t.add_rule();
    }
    t.print(std::cout);
    std::cout
        << "\n(Exact ledger: guaranteed zero intra-group skew, stable wire.\n"
           " Windowed: the paper's literal merge cases — per-merge freedom,\n"
           " but frozen-offset conflicts can force residual violations and\n"
           " unpredictable snaking.)\n";
    return 0;
}
