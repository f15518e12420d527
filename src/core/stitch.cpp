#include "core/stitch.hpp"

namespace astclk::core {

topo::node_id stitch_roots(const merge_solver& solver,
                           const engine_options& opt, topo::clock_tree& t,
                           std::vector<topo::node_id> roots,
                           engine_stats* stats, engine_scratch* scratch) {
    const bottom_up_engine engine(solver, opt);
    return engine.reduce(t, std::move(roots), stats, scratch);
}

}  // namespace astclk::core
