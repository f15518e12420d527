// Intermingled-groups flow (the paper's "difficult instances"): random
// group assignment, a sweep over group counts, and a comparison of the
// AST conflict strategies — the full reproduction of the paper's second
// experiment on one circuit.
//
//   $ ./intermingled_flow [circuit]       (default r2)

#include "core/router.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "io/table.hpp"

#include <iostream>
#include <string>

using namespace astclk;

int main(int argc, char** argv) {
    const std::string circuit = argc > 1 ? argv[1] : "r2";
    const auto base = gen::generate(gen::paper_spec(circuit));
    const core::router_options opt;

    const auto ext = core::route_ext_bst(base, 10e-12, opt);
    std::cout << circuit << ": " << base.size()
              << " sinks; EXT-BST(10ps) wirelength "
              << io::table::integer(ext.wirelength) << "\n\n";

    io::table t({"k", "Mode", "Wirelen", "vs EXT-BST", "MaxSkew(ps)",
                 "IntraSkew(ps)", "Forced"});
    for (int k : {4, 6, 8, 10}) {
        auto inst = base;
        gen::apply_intermingled_groups(inst, k, 7);
        for (const auto& [label, mode] :
             {std::pair<const char*, core::ast_mode>{
                  "exact", core::ast_mode::exact_ledger},
              {"windowed", core::ast_mode::windowed}}) {
            const auto r =
                core::route_ast_dme(inst, core::skew_spec::zero(), opt, mode);
            const auto ev = eval::evaluate(r.tree, inst, opt.model);
            t.add_row({std::to_string(k), label,
                       io::table::integer(r.wirelength),
                       io::table::percent(1.0 - r.wirelength / ext.wirelength),
                       io::table::fixed(rc::to_ps(ev.global_skew), 1),
                       io::table::fixed(rc::to_ps(ev.max_intra_group_skew), 4),
                       std::to_string(r.stats.forced_merges)});
        }
        t.add_rule();
    }
    t.print(std::cout);
    std::cout << "\nexact mode guarantees zero intra-group skew; the "
                 "windowed mode is the paper's literal merge-case algorithm "
                 "(residual violations possible — see DESIGN.md §5).\n";
    return 0;
}
