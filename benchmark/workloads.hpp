#pragma once

/// \file workloads.hpp
/// The benchmark's workloads and metric names (README.md beside this
/// file explains each choice).  A workload is a set of distinct request
/// shapes plus a load model; the run seed picks the request order and the
/// arrival times, while the instances themselves are fixed per workload so
/// the tree-quality metrics repeat exactly from run to run.

#include "core/strategy.hpp"
#include "gen/instance_gen.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace astbench {

namespace core = astclk::core;
namespace gen = astclk::gen;

/// One distinct request of a workload.
struct shape {
    gen::instance_spec spec;     ///< placement (gen::generate)
    int groups = 1;              ///< intermingled group count
    std::uint64_t grouping_seed = 1;
    core::strategy_id strategy = core::strategy_id::ast_dme;
    core::ast_mode mode = core::ast_mode::windowed;
    double bound = 0.0;  ///< AST default bound, or the EXT-BST global bound (s)
    int shards = 1;      ///< engine_options::shards (0 = auto)

    /// Key of the instance (placement + grouping) in the context cache.
    [[nodiscard]] std::string instance_key() const {
        return spec.name + "@" + std::to_string(spec.num_sinks) + "/k" +
               std::to_string(groups) + "/g" + std::to_string(grouping_seed);
    }
    /// Whether the route is checked with the windowed tolerance
    /// (stats.worst_violation + 1e-15) instead of 1e-15.
    [[nodiscard]] bool windowed() const {
        return strategy == core::strategy_id::ast_dme &&
               mode == core::ast_mode::windowed;
    }
};

struct workload {
    std::string name;
    bool open_loop = false;
    int workers = 1;         ///< service worker threads
    double rate = 0.0;       ///< open loop: Poisson arrivals per second
    double slo_s = 0.0;      ///< latency limit of slo_met_frac
    std::vector<shape> shapes;
};

inline workload make_workload(const std::string& name) {
    workload w;
    w.name = name;
    if (name == "difficult_mono") {
        // Monolithic windowed zero-skew AST on the l1 register-bank
        // placement at 5000 sinks: the nearest-pair reduce and its ban-set
        // probing are nearly the whole route.
        w.workers = 1;
        w.slo_s = 0.5;
        gen::instance_spec spec = gen::large_spec("l1");
        spec.num_sinks = 5000;
        for (const int k : {4, 6, 8})
            for (const std::uint64_t g : {1, 2}) {
                shape s;
                s.spec = spec;
                s.groups = k;
                s.grouping_seed = g;
                w.shapes.push_back(s);
            }
    } else if (name == "difficult_sharded") {
        // The same strategy with automatic shards on the l3 placement at
        // 20000 sinks: partition, 3-wide shard fan-out, graft, serial
        // stitch of the shard roots, embed.
        w.workers = 3;
        w.slo_s = 0.5;
        gen::instance_spec spec = gen::large_spec("l3");
        spec.num_sinks = 20000;
        for (const int k : {4, 6, 8, 10}) {
            shape s;
            s.spec = spec;
            s.groups = k;
            s.shards = 0;
            w.shapes.push_back(s);
        }
    } else if (name == "stream_mixed") {
        // Many short concurrent routes: r1-r5 intermingled x k x five
        // strategy configurations, open loop at a fixed Poisson rate.
        w.open_loop = true;
        w.workers = 3;
        w.rate = 60.0;
        w.slo_s = 0.1;
        for (const auto& spec : gen::paper_suite())
            for (const int k : {4, 6, 8, 10})
                for (int c = 0; c < 5; ++c) {
                    shape s;
                    s.spec = spec;
                    s.groups = k;
                    switch (c) {
                        case 0: break;  // AST windowed, zero skew
                        case 1: s.bound = 5e-12; break;  // AST windowed 5 ps
                        case 2: s.mode = core::ast_mode::automatic; break;
                        case 3:
                            s.strategy = core::strategy_id::ext_bst;
                            s.bound = 10e-12;
                            break;
                        case 4:
                            s.strategy = core::strategy_id::separate_stitch;
                            break;
                    }
                    w.shapes.push_back(s);
                }
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return w;
}

inline const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{
        "difficult_mono", "difficult_sharded", "stream_mixed"};
    return names;
}

/// Metric names and units, in print order.  The untraced run prints the
/// end-to-end set, the traced run the per-layer set.
struct metric_def {
    const char* name;
    const char* unit;
};

inline const std::vector<metric_def>& end_to_end_metrics() {
    static const std::vector<metric_def> m{
        {"latency_p50_s", "s"},        {"latency_p90_s", "s"},
        {"sinks_per_s", "sinks/s"},    {"cpu_s_per_req", "s"},
        {"ok_frac", "frac"},           {"slo_met_frac", "frac"},
        {"wirelength", "lu"},          {"forced_merges", "count"},
        {"max_skew_violation_ps", "ps"}, {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return m;
}

inline const std::vector<metric_def>& per_layer_metrics() {
    static const std::vector<metric_def> m{
        {"gen.instance_s", "s"},
        {"service.queue_wait_p50_s", "s"},
        {"service.queue_wait_p90_s", "s"},
        {"service.busy_frac", "frac"},
        {"service.inflight_max", "count"},
        {"strategy.route_p50_s", "s"},
        {"engine.reduce_s", "s"},
        {"engine.merges", "count"},
        {"engine.rejected_pairs", "count"},
        {"engine.accept_ratio", "frac"},
        {"engine.snake_wire", "lu"},
        {"solver.replay_s", "s"},
        {"solver.fast_path_ratio", "frac"},
        {"shard.count", "count"},
        {"shard.partition_s", "s"},
        {"shard.fanout_s", "s"},
        {"shard.subreduce_max_s", "s"},
        {"shard.subreduce_sum_s", "s"},
        {"shard.graft_s", "s"},
        {"stitch.s", "s"},
        {"stitch.rejected_pairs", "count"},
        {"embed.s", "s"},
        {"eval.verify_s", "s"},
        {"context.scratch_allocated", "count"},
        {"context.cached_instances", "count"},
        {"loadgen.late_p90_s", "s"},
        {"loadgen.offered_rps", "1/s"},
        {"trace.overhead_frac", "frac"},
    };
    return m;
}

}  // namespace astbench
