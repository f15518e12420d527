// Merge-engine scaling benchmark: wall-clock of the bottom-up reduce and
// of full AST-DME routes across instance sizes — plus the sharded
// die-region reduction on r5 and the large family (shard_reduce:
// monolithic vs auto shards at 1 thread and a hardware-wide pool, with
// the sharded-vs-monolithic wirelength delta in the JSON), aggregate
// throughput of a route_service batch (table2-style requests) at 1 worker
// thread vs 4, and per-request latency percentiles of the same requests
// streamed through the async submit API (service_stream).
//
// Emits a human table on stdout and a machine-readable
// BENCH_micro_perf.json (per-n wall-clock, merges/sec, latency
// percentiles, series tag) so the perf trajectory can be tracked
// (bench/perf_diff.py gates the engine benches and the streamed p95
// against the committed baseline).  Every gated seconds row also times
// the calibration kernel before each repetition and records the median
// per-repetition ratio (rep_calibration below), which perf_diff gates in
// place of the raw wall-clock; the kernel's own time is the
// calibration:scan row, perf_diff's global machine-speed factor.
//
// Usage:  micro_perf [--quick] [output.json]
//   --quick   cap the sweep at n=512 and shrink the batch (CI smoke)

#include "common.hpp"
#include "core/router_detail.hpp"
#include "gen/rng.hpp"

#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace {

using namespace astclk;

double now_diff(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Series tag of a thread-count row, e.g. "t4".  Not spelled
/// `"t" + std::to_string(threads)`: GCC 12 inlines that into a memcpy it
/// then misreports under -Werror=restrict.
std::string thread_tag(int threads) {
    return std::string(1, 't').append(std::to_string(threads));
}

/// The r1-spec sweep instance at `n` sinks, `groups` intermingled skew
/// groups (grouping seed 1).
topo::instance sweep_instance(int n, int groups) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    auto inst = gen::generate(spec);
    gen::apply_intermingled_groups(inst, groups, 1);
    return inst;
}

/// Time one zero-skew engine.reduce of `inst`, reusing `scratch` when
/// given; the run's merge count goes to `merges`.
double reduce_once(const topo::instance& inst, int& merges,
                   core::engine_scratch* scratch = nullptr) {
    const core::merge_solver solver(rc::delay_model::elmore(),
                                    core::skew_spec::zero());
    const core::bottom_up_engine engine(solver);
    topo::clock_tree t;
    auto roots = core::detail::make_leaves(inst, t, false);
    core::engine_stats st;
    const auto t0 = std::chrono::steady_clock::now();
    engine.reduce(t, std::move(roots), &st, scratch);
    const double secs = now_diff(t0);
    merges = st.merges;
    return secs;
}

/// The calibration kernel (DESIGN.md §9): a fixed all-pairs nearest-arc
/// scan over the leaves of the n=512 sweep instance, reading every arc
/// from its clock_tree node in a fixed shuffled order, the way a linear
/// nearest-neighbour scan over a churned active set does.  It is written
/// here and runs no engine code — of the library it calls only
/// `tilted_rect::distance` — so no engine change can move it, and a
/// slowdown anywhere in the engine shows in full in the calibrated
/// ratios.  kpasses passes take about 13 ms.
class calibration_kernel {
  public:
    explicit calibration_kernel(const topo::instance& inst) {
        for (std::size_t i = 0; i < inst.sinks.size(); ++i)
            leaves_.push_back(t_.add_leaf(inst, static_cast<int>(i)));
        gen::rng rng(512);  // fixed Fisher-Yates order of the scan
        for (std::size_t i = leaves_.size(); i > 1; --i)
            std::swap(leaves_[i - 1], leaves_[rng.below(i)]);
    }

    [[nodiscard]] int size() const { return static_cast<int>(leaves_.size()); }

    /// Wall-clock of kpasses passes, each finding every leaf's nearest
    /// other leaf by (distance, id).
    double time() {
        const auto t0 = std::chrono::steady_clock::now();
        for (int pass = 0; pass < kpasses; ++pass) {
            for (const topo::node_id i : leaves_) {
                const geom::tilted_rect& arc = t_.node(i).arc;
                topo::node_id best = topo::knull_node;
                double best_d = std::numeric_limits<double>::infinity();
                for (const topo::node_id j : leaves_) {
                    if (j == i) continue;
                    const double d = arc.distance(t_.node(j).arc);
                    if (d < best_d || (d == best_d && j < best)) {
                        best_d = d;
                        best = j;
                    }
                }
                found_ = best;  // volatile: every pass stays observable
            }
        }
        return now_diff(t0);
    }

  private:
    static constexpr int kpasses = 3;
    topo::clock_tree t_;
    std::vector<topo::node_id> leaves_;
    volatile topo::node_id found_ = topo::knull_node;
};

/// Per-repetition calibration of one gated seconds row (DESIGN.md §9).
/// The calibration kernel runs right before every repetition of the row,
/// and the row keeps the median over repetitions of (repetition time /
/// kernel time).  The two halves of each ratio run milliseconds apart, so
/// on a host whose speed drifts in multi-second phases each ratio divides
/// out the phase its own repetition met.  A null kernel leaves the row
/// uncalibrated (calib_ratio 0).
class rep_calibration {
  public:
    explicit rep_calibration(calibration_kernel* kernel) : kernel_(kernel) {}

    /// Time the kernel; call right before the repetition.
    void before() {
        if (kernel_ != nullptr) last_ = kernel_->time();
    }
    /// Record the repetition's `secs` against the kernel time just taken.
    void after(double secs) {
        if (kernel_ != nullptr && last_ > 0.0) ratios_.push_back(secs / last_);
    }
    /// The median ratio (0 when uncalibrated).
    [[nodiscard]] double median() {
        if (ratios_.empty()) return 0.0;
        std::sort(ratios_.begin(), ratios_.end());
        const std::size_t m = ratios_.size() / 2;
        return ratios_.size() % 2 != 0 ? ratios_[m]
                                       : 0.5 * (ratios_[m - 1] + ratios_[m]);
    }

  private:
    calibration_kernel* kernel_;
    double last_ = 0.0;
    std::vector<double> ratios_;
};

/// Time one engine.reduce run (the optimised subsystem in isolation).
bench::perf_record bench_reduce(const topo::instance& inst, int reps,
                                calibration_kernel* calib) {
    bench::perf_record rec;
    rec.bench = "engine_reduce";
    rec.backend = "grid";
    rec.n = static_cast<int>(inst.sinks.size());
    rec.seconds = std::numeric_limits<double>::infinity();
    rep_calibration cal(calib);
    for (int rep = 0; rep < reps; ++rep) {
        cal.before();
        const double secs = reduce_once(inst, rec.merges);
        cal.after(secs);
        rec.seconds = std::min(rec.seconds, secs);
    }
    rec.calib_ratio = cal.median();
    rec.merges_per_sec =
        rec.seconds > 0.0 ? static_cast<double>(rec.merges) / rec.seconds : 0.0;
    return rec;
}

/// The nearest-pair reduce on one thread with a reused engine scratch —
/// the gated nearest_pair:t1 series.
bench::perf_record bench_nearest_pair(const topo::instance& inst, int reps,
                                      calibration_kernel* calib) {
    bench::perf_record rec;
    rec.bench = "nearest_pair";
    rec.backend = "t1";
    rec.n = static_cast<int>(inst.sinks.size());
    rec.seconds = std::numeric_limits<double>::infinity();
    core::engine_scratch scratch;
    rep_calibration cal(calib);
    for (int rep = 0; rep < reps; ++rep) {
        cal.before();
        const double secs = reduce_once(inst, rec.merges, &scratch);
        cal.after(secs);
        rec.seconds = std::min(rec.seconds, secs);
    }
    rec.calib_ratio = cal.median();
    rec.merges_per_sec =
        rec.seconds > 0.0 ? static_cast<double>(rec.merges) / rec.seconds : 0.0;
    return rec;
}

/// The sharded die-region reduction (DESIGN.md §4): one full zero-skew
/// route (leaves + reduce + embed, identical overhead on every row) at a
/// given shard configuration and worker-thread count.  Series tags:
/// "mono" = monolithic (shards = 1), "t1" = auto shards on one thread —
/// the gated series: single-threaded, the speedup is pure partition
/// quality, no scheduling luck — and "thw" = auto shards fanned over a
/// hardware-wide pool (info).  The per-row wirelength records the
/// sharded-vs-monolithic quality delta alongside the wall-clocks.
bench::perf_record bench_shard_reduce(const topo::instance& inst, int shards,
                                      int threads, int reps,
                                      calibration_kernel* calib) {
    core::router_options opt;
    opt.engine.shards = shards;
    std::unique_ptr<core::thread_pool> pool;
    if (threads > 1) {
        pool = std::make_unique<core::thread_pool>(threads);
        opt.engine.executor = pool.get();
    }
    bench::perf_record rec;
    rec.bench = "shard_reduce";
    rec.backend = shards == 1 ? "mono" : (threads > 1 ? "thw" : "t1");
    rec.n = static_cast<int>(inst.sinks.size());
    rec.seconds = std::numeric_limits<double>::infinity();
    rep_calibration cal(calib);
    for (int rep = 0; rep < reps; ++rep) {
        cal.before();
        const auto r = core::route_zst_dme(inst, opt);
        cal.after(r.cpu_seconds);
        rec.seconds = std::min(rec.seconds, r.cpu_seconds);
        rec.merges = r.stats.merges;
        rec.wirelength = r.wirelength;
    }
    rec.calib_ratio = cal.median();
    rec.merges_per_sec =
        rec.seconds > 0.0 ? static_cast<double>(rec.merges) / rec.seconds : 0.0;
    return rec;
}

/// Time a full windowed AST-DME route (embedding included).
bench::perf_record bench_route(const topo::instance& inst, int reps,
                               calibration_kernel* calib) {
    const core::router_options opt;
    bench::perf_record rec;
    rec.bench = "route_ast_windowed";
    rec.backend = "grid";
    rec.n = static_cast<int>(inst.sinks.size());
    rec.seconds = std::numeric_limits<double>::infinity();
    rep_calibration cal(calib);
    for (int rep = 0; rep < reps; ++rep) {
        cal.before();
        const auto r = core::route_ast_dme(inst, core::skew_spec::zero(), opt,
                                           core::ast_mode::windowed);
        cal.after(r.cpu_seconds);
        rec.seconds = std::min(rec.seconds, r.cpu_seconds);
        rec.merges = r.stats.merges;
        rec.wirelength = r.wirelength;
    }
    rec.calib_ratio = cal.median();
    rec.merges_per_sec =
        rec.seconds > 0.0 ? static_cast<double>(rec.merges) / rec.seconds : 0.0;
    return rec;
}

/// Resilience cost model (DESIGN.md §10): an 8-shard zero-skew route
/// with a poisoned-shard fault fired at the last shard's gate.  Rows:
///   "clean"   — the unfaulted sharded route (reference cost);
///   "salvage" — engine salvage on: the 7 completed sub-trees are kept,
///               the poisoned shard is rebuilt greedily, the stitch runs
///               — the wall-clock of producing the degraded tree (the
///               gated series: salvage must stay cheaper than rerunning);
///   "discard" — salvage off: the faulted attempt unwinds and a full
///               clean rerun recovers — the cost salvage avoids.
bench::perf_record bench_degrade_salvage(const topo::instance& inst,
                                         const std::string& mode, int reps,
                                         calibration_kernel* calib) {
    bench::perf_record rec;
    rec.bench = "degrade_salvage";
    rec.backend = mode;
    rec.n = static_cast<int>(inst.sinks.size());
    rec.seconds = std::numeric_limits<double>::infinity();
    rep_calibration cal(calib);
    for (int rep = 0; rep < reps; ++rep) {
        core::routing_request req;
        req.instance = &inst;
        req.strategy = core::strategy_id::zst_dme;
        req.options.engine.shards = 8;
        // A fresh plan per repetition: events consume when they fire.
        core::fault_plan plan = core::fault_plan::seeded(0, 0);
        if (mode != "clean") {
            plan.schedule(core::fault_site::shard, 8,
                          core::fault_kind::poisoned_shard);
            req.options.engine.cancel.set_faults(&plan);
        }
        req.options.engine.salvage = mode == "salvage";
        cal.before();
        const auto t0 = std::chrono::steady_clock::now();
        auto r = core::route(req);
        if (mode == "discard") {
            if (r.status != core::route_status::data_fault) {
                std::cerr << "degrade_salvage discard row expected a "
                             "data_fault, got "
                          << core::to_string(r.status) << "\n";
                std::exit(1);
            }
            core::routing_request rerun = req;
            rerun.options.engine.cancel = core::cancel_token{};
            rerun.options.engine.salvage = false;
            r = core::route(rerun);  // recovery-by-rerun pays full price
        }
        const double secs = now_diff(t0);
        cal.after(secs);
        if (!r.usable()) {
            std::cerr << "degrade_salvage " << mode << " row failed ("
                      << core::to_string(r.status)
                      << "): " << r.status_message << "\n";
            std::exit(1);
        }
        if (secs < rec.seconds) {
            rec.seconds = secs;
            rec.merges = r.stats.merges;
            rec.wirelength = r.wirelength;
        }
    }
    rec.calib_ratio = cal.median();
    rec.merges_per_sec =
        rec.seconds > 0.0 ? static_cast<double>(rec.merges) / rec.seconds : 0.0;
    return rec;
}

/// The table2-shaped serving workload (EXT-BST baseline + windowed
/// AST-DME per instance) shared by the batch and stream benches, so their
/// series always measure the identical request mix.  `total_n` receives
/// the summed sink count.
std::vector<core::routing_request> make_service_requests(
    const std::vector<const topo::instance*>& insts, int& total_n) {
    std::vector<core::routing_request> reqs;
    for (const topo::instance* inst : insts) {
        total_n += static_cast<int>(inst->sinks.size());
        core::routing_request ext;
        ext.instance = inst;
        ext.strategy = core::strategy_id::ext_bst;
        ext.spec = core::skew_spec::uniform(bench::kext_bst_bound);
        reqs.push_back(ext);
        core::routing_request ast;
        ast.instance = inst;
        ast.strategy = core::strategy_id::ast_dme;
        ast.mode = core::ast_mode::windowed;
        reqs.push_back(ast);
    }
    return reqs;
}

/// Aggregate throughput of a route_service batch at a given thread count;
/// instances are borrowed so every thread count routes the identical
/// batch.
bench::perf_record bench_service(
    const std::vector<const topo::instance*>& insts, int threads, int reps) {
    bench::perf_record rec;
    rec.bench = "service_batch";
    rec.backend = thread_tag(threads);
    rec.seconds = std::numeric_limits<double>::infinity();
    const auto reqs = make_service_requests(insts, rec.n);
    for (int rep = 0; rep < reps; ++rep) {
        core::service_options sopt;
        sopt.threads = threads;
        core::route_service svc(sopt);
        const auto t0 = std::chrono::steady_clock::now();
        const auto entries = svc.route_batch(reqs);
        rec.seconds = std::min(rec.seconds, now_diff(t0));
        rec.merges = 0;
        rec.wirelength = 0.0;
        for (const auto& e : entries) {
            if (!e.ok()) {
                std::cerr << "service bench request failed ("
                          << core::to_string(e.status)
                          << "): " << e.status_message << "\n";
                std::exit(1);
            }
            rec.merges += e.stats.merges;
            rec.wirelength += e.wirelength;
        }
    }
    rec.merges_per_sec =
        rec.seconds > 0.0 ? static_cast<double>(rec.merges) / rec.seconds : 0.0;
    return rec;
}

/// Streamed serving latency: the same table2-style requests submitted one
/// by one through the async API; each request's latency is submit-to-
/// completion (queueing included, stamped by the completion callback on
/// the worker), reported as p50/p95/p99 over the stream.  The percentile
/// fields of the best (lowest total wall-clock) repetition are kept —
/// bench/perf_diff.py gates the largest-n p95.
bench::perf_record bench_stream(
    const std::vector<const topo::instance*>& insts, int threads, int reps) {
    bench::perf_record rec;
    rec.bench = "service_stream";
    rec.backend = thread_tag(threads);
    rec.seconds = std::numeric_limits<double>::infinity();
    const auto reqs = make_service_requests(insts, rec.n);
    std::vector<double> latency(reqs.size());
    for (int rep = 0; rep < reps; ++rep) {
        core::service_options sopt;
        sopt.threads = threads;
        core::route_service svc(sopt);
        std::vector<core::route_handle> handles;
        handles.reserve(reqs.size());
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            core::submit_options so;
            const auto ts = std::chrono::steady_clock::now();
            so.on_complete = [&latency, i,
                              ts](const core::route_result&) {
                latency[i] = now_diff(ts);
            };
            handles.push_back(svc.submit(reqs[i], so));
        }
        int merges = 0;
        double wirelength = 0.0;
        for (auto& h : handles) {
            const auto r = h.wait();
            if (!r.ok()) {
                std::cerr << "stream bench request failed ("
                          << core::to_string(r.status)
                          << "): " << r.status_message << "\n";
                std::exit(1);
            }
            merges += r.stats.merges;
            wirelength += r.wirelength;
        }
        const double wall = now_diff(t0);
        if (wall < rec.seconds) {
            rec.seconds = wall;
            rec.merges = merges;
            rec.wirelength = wirelength;
            std::vector<double> sorted = latency;
            std::sort(sorted.begin(), sorted.end());
            rec.p50 = bench::percentile_sorted(sorted, 0.50);
            rec.p95 = bench::percentile_sorted(sorted, 0.95);
            rec.p99 = bench::percentile_sorted(sorted, 0.99);
        }
    }
    rec.merges_per_sec =
        rec.seconds > 0.0 ? static_cast<double>(rec.merges) / rec.seconds : 0.0;
    return rec;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
    // Fixed allocator thresholds.  glibc raises its mmap and trim
    // thresholds after the process frees large blocks, so by default a
    // row's page faults depend on which rows ran before it — a quick run
    // and the full run that records the baseline differ — and the
    // calibration kernel, which allocates nothing, cannot divide that out.
    mallopt(M_MMAP_THRESHOLD, 256 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_TOP_PAD, 64 << 20);
#endif
    bool quick = false;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (argv[i][0] == '-' || !out_path.empty()) {
            std::cerr << "usage: " << argv[0] << " [--quick] [output.json]\n";
            return 2;
        } else {
            out_path = argv[i];
        }
    }
    if (out_path.empty()) out_path = "BENCH_micro_perf.json";

    std::vector<int> sizes{64, 128, 256, 512, 1024, 2048, 3101};
    if (quick) sizes = {64, 128, 256, 512};

    std::cout << "micro_perf — merge-engine scaling\n\n";
    io::table t({"Bench", "n", "Series", "Wall(s)", "Merges/s", "Speedup"});
    std::vector<bench::perf_record> records;
    // The calibration kernel (rep_calibration) over the n=512 sweep
    // instance's leaves, and its own row: perf_diff's global calibration.
    calibration_kernel kernel(sweep_instance(512, 6));
    calibration_kernel* calib = &kernel;
    {
        bench::perf_record rec;
        rec.bench = "calibration";
        rec.backend = "scan";
        rec.n = kernel.size();
        rec.seconds = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 5; ++rep)
            rec.seconds = std::min(rec.seconds, kernel.time());
        t.add_row({rec.bench, std::to_string(rec.n), rec.backend,
                   io::table::fixed(rec.seconds, 4), "-", "-"});
        records.push_back(rec);
    }

    for (int n : sizes) {
        const topo::instance inst = sweep_instance(n, 6);
        const int reps = n >= 2048 ? 2 : 3;

        for (auto mk : {&bench_reduce, &bench_route}) {
            const auto rec = mk(inst, reps, calib);
            t.add_row({rec.bench, std::to_string(rec.n), rec.backend,
                       io::table::fixed(rec.seconds, 4),
                       io::table::integer(rec.merges_per_sec), "-"});
            records.push_back(rec);
        }
    }

    // Sequential nearest-pair reduce with a reused engine scratch (the
    // gated nearest_pair:t1 series).  The n=2048 row runs in quick mode
    // too, so the committed full baseline always shares an n with the CI
    // smoke run — and 2048 is deliberately the smallest size whose
    // single-thread reduce (~10 ms) is long enough for the 20% gate to
    // measure the engine instead of allocator warm-up noise.
    {
        std::vector<int> np_sizes{2048};
        if (!quick) np_sizes.push_back(3101);
        for (const int n : np_sizes) {
            const topo::instance inst = sweep_instance(n, 6);
            // More repetitions than the sweep benches: the series is gated
            // at 20% and a ~10 ms kernel needs a deeper best-of to keep
            // scheduler noise out of the committed baseline.
            const int reps = n >= 3000 ? 3 : 7;
            const auto rec = bench_nearest_pair(inst, reps, calib);
            t.add_row({rec.bench, std::to_string(rec.n), rec.backend,
                       io::table::fixed(rec.seconds, 4),
                       io::table::integer(rec.merges_per_sec), "-"});
            records.push_back(rec);
        }
    }

    // Sharded die-region reduction: r5-sized and large-family instances,
    // monolithic vs auto shards at 1 thread (the gated series — the
    // speedup is pure partition quality) and at a hardware-wide pool.
    // The quick run keeps the r5 size only, so the committed full
    // baseline always shares an n with the CI smoke run; the acceptance
    // series is the full run's n=50000 pair (l3), where the single-thread
    // sharded route must beat the monolithic grid reduce >= 2x.
    {
        struct shard_case {
            const char* family;  // "r" = paper_spec, "l" = large_spec
            const char* name;
        };
        std::vector<shard_case> cases{{"r", "r5"}};
        if (!quick) {
            cases.push_back({"l", "l2"});   // n = 20000
            cases.push_back({"l", "l3"});   // n = 50000
        }
        const int threads_hw = static_cast<int>(
            std::max(2u, std::thread::hardware_concurrency()));
        for (const auto& c : cases) {
            const gen::instance_spec spec = c.family[0] == 'r'
                                                ? gen::paper_spec(c.name)
                                                : gen::large_spec(c.name);
            const auto inst = gen::generate(spec);
            const int reps = inst.sinks.size() >= 20000 ? 2 : 3;
            const auto mono = bench_shard_reduce(inst, 1, 1, reps, nullptr);
            const auto t1 = bench_shard_reduce(inst, 0, 1, reps, calib);
            const auto thw =
                bench_shard_reduce(inst, 0, threads_hw, reps, nullptr);
            const double speedup =
                t1.seconds > 0.0 ? mono.seconds / t1.seconds : 0.0;
            t.add_row({t1.bench, std::to_string(t1.n), t1.backend,
                       io::table::fixed(t1.seconds, 4),
                       io::table::integer(t1.merges_per_sec),
                       io::table::fixed(speedup, 2) + "x"});
            t.add_row({thw.bench, std::to_string(thw.n), thw.backend,
                       io::table::fixed(thw.seconds, 4),
                       io::table::integer(thw.merges_per_sec),
                       mono.seconds > 0.0 && thw.seconds > 0.0
                           ? io::table::fixed(mono.seconds / thw.seconds, 2) +
                                 "x"
                           : "-"});
            t.add_row({mono.bench, std::to_string(mono.n), mono.backend,
                       io::table::fixed(mono.seconds, 4),
                       io::table::integer(mono.merges_per_sec), "1.00x"});
            std::cout << "shard_reduce n=" << t1.n
                      << " wirelength sharded/mono: "
                      << io::table::fixed(
                             mono.wirelength > 0.0
                                 ? t1.wirelength / mono.wirelength
                                 : 0.0,
                             4)
                      << "\n";
            records.push_back(t1);
            records.push_back(thw);
            records.push_back(mono);
        }
    }

    // Resilience: the cost of salvaging a faulted 8-shard r5 route vs
    // discarding the attempt and rerunning from scratch.  Runs in quick
    // mode too, so the committed full baseline always shares an n with
    // the CI smoke run.  perf_diff gates the salvage wall-clock (widened
    // tolerance — it includes a greedy shard rebuild) and reports the
    // clean/discard rows plus the salvage-vs-discard recovery speedup and
    // the salvaged-tree wirelength delta as info.
    {
        const auto inst = gen::generate(gen::paper_spec("r5"));
        // The gated ratio is a median over repetitions; quick mode takes
        // 7 so one noisy repetition cannot swing it (2 made it a mean).
        const int reps = quick ? 7 : 3;
        const auto clean =
            bench_degrade_salvage(inst, "clean", reps, nullptr);
        const auto salvage =
            bench_degrade_salvage(inst, "salvage", reps, calib);
        const auto discard =
            bench_degrade_salvage(inst, "discard", reps, nullptr);
        t.add_row({salvage.bench, std::to_string(salvage.n), salvage.backend,
                   io::table::fixed(salvage.seconds, 4),
                   io::table::integer(salvage.merges_per_sec),
                   salvage.seconds > 0.0
                       ? io::table::fixed(discard.seconds / salvage.seconds,
                                          2) +
                             "x"
                       : "-"});
        t.add_row({discard.bench, std::to_string(discard.n), discard.backend,
                   io::table::fixed(discard.seconds, 4),
                   io::table::integer(discard.merges_per_sec), "1.00x"});
        t.add_row({clean.bench, std::to_string(clean.n), clean.backend,
                   io::table::fixed(clean.seconds, 4),
                   io::table::integer(clean.merges_per_sec), "-"});
        std::cout << "degrade_salvage n=" << salvage.n
                  << " wirelength salvaged/clean: "
                  << io::table::fixed(clean.wirelength > 0.0
                                          ? salvage.wirelength /
                                                clean.wirelength
                                          : 0.0,
                                      4)
                  << "\n";
        records.push_back(salvage);
        records.push_back(discard);
        records.push_back(clean);
    }

    // Batched serving throughput: the same table2-style batch at 1 worker
    // thread vs 4 (results are bit-identical; only wall-clock moves).
    const auto make_batch = [](int batch_n) {
        std::vector<topo::instance> batch_insts;
        for (const char* name : {"r1", "r2"}) {
            gen::instance_spec spec = gen::paper_spec(name);
            spec.num_sinks = std::min(spec.num_sinks, batch_n);
            for (int k : bench::kpaper_group_counts) {
                auto inst = gen::generate(spec);
                gen::apply_intermingled_groups(
                    inst, k, spec.seed * 1000 + static_cast<unsigned>(k));
                batch_insts.push_back(std::move(inst));
            }
        }
        return batch_insts;
    };
    {
        const int batch_n = quick ? 256 : 862;  // r3-sized in full mode
        const auto batch_insts = make_batch(batch_n);
        std::vector<const topo::instance*> ptrs;
        for (const auto& i : batch_insts) ptrs.push_back(&i);
        const int reps = quick ? 1 : 2;
        const auto s1 = bench_service(ptrs, 1, reps);
        const auto s4 = bench_service(ptrs, 4, reps);
        const double speedup =
            s4.seconds > 0.0 ? s1.seconds / s4.seconds : 0.0;
        t.add_row({s4.bench, std::to_string(s4.n), s4.backend,
                   io::table::fixed(s4.seconds, 4),
                   io::table::integer(s4.merges_per_sec),
                   io::table::fixed(speedup, 2) + "x"});
        t.add_row({s1.bench, std::to_string(s1.n), s1.backend,
                   io::table::fixed(s1.seconds, 4),
                   io::table::integer(s1.merges_per_sec), "1.00x"});
        records.push_back(s4);
        records.push_back(s1);
    }

    // Streamed serving: per-request latency percentiles of the same
    // requests through the async submit API (perf_diff gates the
    // single-worker p95 — the deterministic series on any machine).  The
    // quick-sized batch runs in full mode too, so the committed full
    // baseline always shares an n with the CI smoke run.
    {
        std::vector<int> stream_sizes{256};
        if (!quick) stream_sizes.push_back(862);
        // Percentiles gate the perf trajectory (service_stream:t1:p95 at
        // the @0.5 tolerance in perf_diff's GATED_DEFAULT), so even the
        // quick run takes best-of-3: a single rep's p95 on a loaded
        // machine is too noisy even for that widened gate.
        const int reps = 3;
        for (const int batch_n : stream_sizes) {
            const auto batch_insts = make_batch(batch_n);
            std::vector<const topo::instance*> ptrs;
            for (const auto& i : batch_insts) ptrs.push_back(&i);
            for (const int threads : {1, 4}) {
                const auto sr = bench_stream(ptrs, threads, reps);
                t.add_row({sr.bench, std::to_string(sr.n), sr.backend,
                           io::table::fixed(sr.seconds, 4),
                           io::table::integer(sr.merges_per_sec), "-"});
                std::cout << "service_stream " << sr.backend << " n=" << sr.n
                          << " latency p50/p95/p99: "
                          << io::table::fixed(sr.p50, 4) << " / "
                          << io::table::fixed(sr.p95, 4) << " / "
                          << io::table::fixed(sr.p99, 4) << " s\n";
                records.push_back(sr);
            }
        }
    }

    t.print(std::cout);
    std::cout << "\n";
    if (!bench::write_perf_json(out_path, records)) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
