/// \file astbench.cpp
/// End-to-end benchmark of astclk on difficult (intermingled multi-group)
/// instances, driven only through the library's public API.
///
///     astbench --workload NAME --seed N --seconds S --trace 0|1
///              [--trace-out FILE]
///
/// One workload runs per process.  Set-up synthesises the workload's
/// instances into a route_service's context cache and routes every
/// distinct request once (warm-up); it is repeated five times and the
/// median is `setup_s`.  The timed phase then drives the service for S
/// seconds — a closed loop with one client, or an open loop with seeded
/// Poisson arrivals — and verifies every completed route with
/// eval::verify_route, off the clock.  Repeats of one request must return
/// the same wirelength and statistics.
///
/// `--trace 1` spends half of S on the same untraced service pass (the
/// service-side layer metrics) and half on a traced pass that records
/// spans around each call into a layer: for the two difficult workloads
/// the benchmark drives the layers itself (leaves -> reduce -> embed, or
/// partition -> shard fan-out -> graft -> stitch -> embed) and checks the
/// trees are identical to the service's; for the stream it replays the
/// arrivals with per-request spans and then decomposes every distinct
/// request once.  Spans are written to --trace-out at exit.
///
/// The last line of standard output is one JSON object:
/// {"correct", "attempted", "failed", "metrics"}.

#include "harness.hpp"
#include "workloads.hpp"

#include "core/plan_kernels.hpp"
#include "core/route_service.hpp"
#include "core/shard.hpp"
#include "core/stitch.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <ctime>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace astbench;
namespace eval = astclk::eval;
namespace rc = astclk::rc;
namespace topo = astclk::topo;

double cpu_clock(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double process_cpu() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const rc::delay_model kmodel = rc::delay_model::elmore();

core::skew_spec spec_of(const shape& s) {
    return s.bound > 0.0 ? core::skew_spec::uniform(s.bound)
                         : core::skew_spec::zero();
}

core::routing_request request_of(const shape& s, const topo::instance& inst) {
    core::routing_request req;
    req.instance = &inst;
    req.strategy = s.strategy;
    req.mode = s.mode;
    req.spec = spec_of(s);
    req.options.model = kmodel;
    req.options.engine.shards = s.shards;
    return req;
}

/// What must repeat exactly between two routes of one request shape.
struct fingerprint {
    double wirelength = 0.0;
    int merges = 0;
    int rejected_pairs = 0;
    int forced_merges = 0;
    double snake_wire = 0.0;
    double worst_violation = 0.0;
    int shards = 0;

    static fingerprint of(const core::route_result& r) {
        return {r.wirelength,          r.stats.merges,
                r.stats.rejected_pairs, r.stats.forced_merges,
                r.stats.snake_wire,    r.stats.worst_violation,
                std::max(r.resolved_shards, 1)};
    }
    bool operator==(const fingerprint&) const = default;
};

/// A workload's shapes bound to their instances, plus per-shape reference
/// fingerprints and the run's correctness book.
struct bench_state {
    workload w;
    std::vector<const topo::instance*> inst;  ///< per shape, context-owned
    std::vector<std::optional<fingerprint>> ref;
    std::vector<double> excess_ps;  ///< per shape: worst skew beyond bound
    std::vector<double> gen_s;      ///< instance synthesis samples
    std::vector<double> verify_s;   ///< verification samples
    long long attempted = 0;
    long long failed = 0;
    std::string first_failure;

    void fail(const std::string& why) {
        ++failed;
        if (first_failure.empty()) first_failure = why;
    }
};

/// Verify a completed route against its own spec and the shape's
/// reference fingerprint; returns whether it is ok (and books failures).
bool check_route(bench_state& st, std::size_t si,
                 const core::route_result& r) {
    const shape& s = st.w.shapes[si];
    const std::string where = st.w.name + " shape " + std::to_string(si);
    if (!r.ok()) {
        st.fail(where + ": status " + core::to_string(r.status) + " " +
                r.status_message);
        return false;
    }
    eval::verify_options vo;
    vo.skew_tolerance =
        s.windowed() ? r.stats.worst_violation + 1e-15 : 1e-15;
    const auto t0 = steady::now();
    const eval::verify_result v =
        eval::verify_route(r, *st.inst[si], kmodel, spec_of(s), vo);
    st.verify_s.push_back(seconds_between(t0, steady::now()));
    if (!v.ok) {
        st.fail(where + ": verify_route: " + v.message);
        return false;
    }
    const double excess = std::max(0.0, v.max_group_violation) * 1e12;
    const fingerprint fp = fingerprint::of(r);
    if (!st.ref[si]) {
        st.ref[si] = fp;
        st.excess_ps[si] = excess;
    } else if (!(*st.ref[si] == fp) || st.excess_ps[si] != excess) {
        st.fail(where + ": route differs from the first route of this shape");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- set-up

/// Synthesise the instances into a fresh service's context cache and route
/// every distinct request once, verifying each.  Returns the service.
std::unique_ptr<core::route_service> set_up(bench_state& st) {
    core::service_options so;
    so.threads = st.w.workers;
    so.model = kmodel;
    auto svc = std::make_unique<core::route_service>(so);
    st.inst.assign(st.w.shapes.size(), nullptr);
    for (std::size_t i = 0; i < st.w.shapes.size(); ++i) {
        const shape& s = st.w.shapes[i];
        st.inst[i] = &svc->context().instance(s.instance_key(), [&] {
            const auto t0 = steady::now();
            topo::instance inst = gen::generate(s.spec);
            astclk::gen::apply_intermingled_groups(inst, s.groups,
                                                   s.grouping_seed);
            st.gen_s.push_back(seconds_between(t0, steady::now()));
            return inst;
        });
    }
    std::vector<core::routing_request> reqs;
    for (std::size_t i = 0; i < st.w.shapes.size(); ++i)
        reqs.push_back(request_of(st.w.shapes[i], *st.inst[i]));
    const auto results = svc->route_batch(reqs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        ++st.attempted;
        check_route(st, i, results[i]);
    }
    return svc;
}

// ---------------------------------------------------- service-side passes

/// Everything one service pass measures.
struct pass_result {
    std::vector<double> latency;     ///< per ok request
    std::vector<double> queue_wait;  ///< latency - cpu_seconds
    std::vector<double> route_s;     ///< route_result::cpu_seconds
    std::vector<double> late;        ///< send time - due time
    double window = 0.0;             ///< timed wall-clock
    double cpu = 0.0;                ///< process CPU in the window, checks excluded
    double sinks = 0.0;              ///< sinks of ok requests
    long long attempted = 0;
    long long ok = 0;
    long long slo_ok = 0;
    int inflight_max = 0;
};

/// Request order of a closed loop: consecutive seeded shuffles of the
/// shapes, one per cycle.
class cycle_order {
  public:
    cycle_order(std::size_t n, std::uint64_t seed) : n_(n), seed_(seed) {}
    std::size_t next() {
        if (pos_ == order_.size()) {
            order_ = seeded_order(n_, derive_seed(seed_, cycle_++));
            pos_ = 0;
        }
        return order_[pos_++];
    }

  private:
    std::size_t n_;
    std::uint64_t seed_;
    std::uint64_t cycle_ = 0;
    std::vector<std::size_t> order_;
    std::size_t pos_ = 0;
};

/// Closed loop, one client: submit, wait, then verify off the clock.
pass_result closed_loop(bench_state& st, core::route_service& svc,
                        cycle_order& order, double seconds) {
    pass_result p;
    p.inflight_max = 1;
    const auto end = steady::now() + std::chrono::duration_cast<steady::duration>(
                                         std::chrono::duration<double>(seconds));
    while (steady::now() < end) {
        const std::size_t si = order.next();
        const core::routing_request req =
            request_of(st.w.shapes[si], *st.inst[si]);
        const auto due = steady::now();
        const double cpu0 = process_cpu();
        const auto sent = steady::now();
        core::route_handle h = svc.submit(req);
        core::route_result r = h.wait();
        const auto done = steady::now();
        p.cpu += process_cpu() - cpu0;
        const double lat = seconds_between(sent, done);
        p.window += lat;
        p.late.push_back(seconds_between(due, sent));
        ++p.attempted;
        ++st.attempted;
        if (!check_route(st, si, r)) continue;
        ++p.ok;
        p.latency.push_back(lat);
        p.route_s.push_back(r.cpu_seconds);
        p.queue_wait.push_back(std::max(0.0, lat - r.cpu_seconds));
        p.sinks += static_cast<double>(st.inst[si]->sinks.size());
        if (lat <= st.w.slo_s) ++p.slo_ok;
    }
    return p;
}

/// Open loop: seeded Poisson arrivals for `seconds`, latency from each
/// request's due time to its completion.  The client thread verifies
/// completed routes while it waits for the next due time; the CPU it
/// spends doing so is excluded from `cpu`.  With a recorder, every request
/// also records a span tree (request -> service.queue, strategy.route).
pass_result open_loop(bench_state& st, core::route_service& svc,
                      std::uint64_t seed, double seconds,
                      span_recorder* rec, int& next_request_id) {
    pass_result p;
    const std::vector<double> at =
        poisson_arrivals(st.w.rate, seconds, derive_seed(seed, 0x5eed));
    cycle_order order(st.w.shapes.size(), derive_seed(seed, 0x0dd));
    struct slot {
        std::size_t shape = 0;
        steady::time_point due;
        steady::time_point done_at;
        std::atomic<bool> done{false};
        core::route_handle handle;
    };
    std::vector<slot> slots(at.size());
    std::atomic<int> inflight{0};
    std::vector<std::size_t> outstanding;
    double check_cpu = 0.0;

    const auto start = steady::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < at.size(); ++i) {
        slots[i].shape = order.next();
        slots[i].due = start + std::chrono::duration_cast<steady::duration>(
                                   std::chrono::duration<double>(at[i]));
    }
    const double cpu0 = process_cpu();
    steady::time_point last_done = start;

    const auto finish = [&](std::size_t i) {
        slot& s = slots[i];
        core::route_result r = s.handle.wait();
        const double c0 = thread_cpu();
        const bool ok = check_route(st, s.shape, r);
        check_cpu += thread_cpu() - c0;
        last_done = std::max(last_done, s.done_at);
        if (!ok) return;
        const double lat = seconds_between(s.due, s.done_at);
        ++p.ok;
        p.latency.push_back(lat);
        p.route_s.push_back(r.cpu_seconds);
        p.queue_wait.push_back(std::max(0.0, lat - r.cpu_seconds));
        p.sinks += static_cast<double>(st.inst[s.shape]->sinks.size());
        if (lat <= st.w.slo_s) ++p.slo_ok;
        if (rec != nullptr) {
            const int id = next_request_id++;
            const double t_due = rec->at(s.due);
            const double t_done = rec->at(s.done_at);
            const double t_run = std::max(t_due, t_done - r.cpu_seconds);
            const int root = rec->add("request", t_due, t_done, -1, id);
            rec->add("service.queue", t_due, t_run, root, id);
            rec->add("strategy.route", t_run, t_done, root, id);
        }
    };

    std::size_t next = 0;
    while (next < slots.size() || !outstanding.empty()) {
        const auto now = steady::now();
        if (next < slots.size() && now >= slots[next].due) {
            slot& s = slots[next];
            const core::routing_request req =
                request_of(st.w.shapes[s.shape], *st.inst[s.shape]);
            core::submit_options so;
            // The done flag is the callback's last access: once the
            // client observes it, nothing here touches `s` or `inflight`.
            so.on_complete = [&s, &inflight](const core::route_result&) {
                s.done_at = steady::now();
                inflight.fetch_sub(1, std::memory_order_relaxed);
                s.done.store(true, std::memory_order_release);
            };
            p.late.push_back(seconds_between(s.due, steady::now()));
            p.inflight_max = std::max(
                p.inflight_max,
                inflight.fetch_add(1, std::memory_order_relaxed) + 1);
            s.handle = svc.submit(req, std::move(so));
            outstanding.push_back(next);
            ++p.attempted;
            ++st.attempted;
            ++next;
            continue;
        }
        // Idle until the next due time: verify one completed route when
        // at least 2 ms remain, otherwise sleep.
        const bool time_to_check =
            next >= slots.size() ||
            slots[next].due - now > std::chrono::milliseconds(2);
        bool checked = false;
        if (time_to_check) {
            for (std::size_t k = 0; k < outstanding.size(); ++k) {
                const std::size_t i = outstanding[k];
                if (!slots[i].done.load(std::memory_order_acquire)) continue;
                outstanding.erase(outstanding.begin() + static_cast<long>(k));
                finish(i);
                checked = true;
                break;
            }
        }
        if (checked) continue;
        if (next < slots.size())
            std::this_thread::sleep_until(
                std::min(slots[next].due, now + std::chrono::milliseconds(1)));
        else
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    p.window = seconds_between(start, last_done);
    p.cpu = process_cpu() - cpu0 - check_cpu;
    return p;
}

pass_result service_pass(bench_state& st, core::route_service& svc,
                         std::uint64_t seed, double seconds,
                         span_recorder* rec, int& next_request_id) {
    if (st.w.open_loop)
        return open_loop(st, svc, seed, seconds, rec, next_request_id);
    cycle_order order(st.w.shapes.size(), derive_seed(seed, 0x0dd));
    return closed_loop(st, svc, order, seconds);
}

// --------------------------------------------------- traced decomposition

/// One request's layer figures from the traced decomposition.
struct layer_sample {
    double latency = 0.0;
    double reduce_s = 0.0;
    double partition_s = -1.0;  ///< < 0: layer not called
    double fanout_s = -1.0;
    double subreduce_max_s = -1.0;
    double subreduce_sum_s = -1.0;
    double graft_s = -1.0;
    double stitch_s = -1.0;
    double stitch_rejected = -1.0;
    double embed_s = 0.0;
    double replay_s = -1.0;
    core::engine_stats stats;
    int shards = 1;
};

/// Drives one request's layers directly through public functions, with a
/// span around each call.  Runs as a task on a pool as wide as the
/// service's, so the shard fan-out has the caller on a worker exactly as a
/// served request does.
class decomposer {
  public:
    decomposer(core::routing_context& ctx, core::thread_pool& pool,
               span_recorder& rec)
        : ctx_(ctx), pool_(pool), rec_(rec) {}

    core::route_result route(const shape& s, const topo::instance& inst,
                             int id, layer_sample& ls) {
        // The task owns the promise, so it stays alive until the worker has
        // left set_value; the references are not used after that call.
        auto done = std::make_shared<std::promise<core::route_result>>();
        auto fut = done->get_future();
        pool_.submit(0, [this, done, &s, &inst, id, &ls] {
            try {
                done->set_value(run(s, inst, id, ls));
            } catch (...) {
                done->set_exception(std::current_exception());
            }
        });
        return fut.get();
    }

  private:
    /// Time `fn` as a span `name` under `parent`; returns its duration.
    template <class Fn>
    double timed(const char* name, int parent, int id, Fn&& fn) {
        const double t0 = rec_.now();
        fn();
        const double t1 = rec_.now();
        rec_.add(name, t0, t1, parent, id);
        return t1 - t0;
    }

    std::vector<topo::node_id> leaves(const topo::instance& inst,
                                      topo::clock_tree& t,
                                      const std::vector<std::int32_t>& sinks,
                                      bool collapse) {
        std::vector<topo::node_id> roots;
        roots.reserve(sinks.size());
        for (const std::int32_t i : sinks) {
            const topo::node_id n = t.add_leaf(inst, i);
            if (collapse) t.node(n).delays = topo::group_delays::single(0);
            roots.push_back(n);
        }
        return roots;
    }

    static std::vector<std::int32_t> all_sinks(const topo::instance& inst) {
        std::vector<std::int32_t> v(inst.sinks.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<std::int32_t>(i);
        return v;
    }

    void embed(const topo::instance& inst, topo::clock_tree t,
               topo::node_id root, core::route_result& res, int parent,
               int id, layer_sample& ls) {
        ls.embed_s = timed("embed", parent, id, [&] {
            t.set_root(root);
            res.embed = core::embed_tree(t, inst.source);
            res.tree = std::move(t);
            res.wirelength = res.tree.total_wirelength();
        });
    }

    /// Monolithic path (leaves -> reduce -> embed) or the sharded one,
    /// resolved exactly as the strategies resolve the shard knob.
    core::route_result reduce_path(const topo::instance& inst,
                                   const core::merge_solver& solver,
                                   const core::engine_options& eopt,
                                   bool collapse, int root_span, int id,
                                   layer_sample& ls) {
        core::route_result res;
        const int k = core::effective_shard_count(eopt, solver,
                                                  inst.sinks.size());
        ls.shards = k;
        res.resolved_shards = k;
        if (k <= 1) {
            topo::clock_tree t;
            std::vector<topo::node_id> roots;
            timed("leaves", root_span, id,
                  [&] { roots = leaves(inst, t, all_sinks(inst), collapse); });
            topo::node_id root = topo::knull_node;
            const core::bottom_up_engine engine(solver, eopt);
            ls.reduce_s = timed("reduce", root_span, id, [&] {
                auto lease = ctx_.scratch();
                root = engine.reduce(t, std::move(roots), &res.stats,
                                     lease.get());
            });
            embed(inst, std::move(t), root, res, root_span, id, ls);
            return res;
        }

        core::shard_partition parts;
        ls.partition_s = timed("shard.partition", root_span, id, [&] {
            parts = core::partition_sinks(inst, k);
        });
        // Per-shard engine configuration of core::sharded_route: shards
        // reduce sequentially (the shard is the unit of parallelism).
        core::engine_options sopt = eopt;
        sopt.executor = nullptr;
        sopt.shards = 1;
        sopt.speculate_k = 0;
        const core::bottom_up_engine shard_engine(solver, sopt);
        struct shard_run {
            topo::clock_tree tree;
            topo::node_id root = topo::knull_node;
            core::engine_stats stats;
            double seconds = 0.0;
        };
        std::vector<shard_run> runs(parts.size());
        const int fan = rec_.open("shard.fanout", root_span, id);
        pool_.parallel_for(parts.size(), [&](std::size_t i) {
            shard_run& run = runs[i];
            run.seconds = timed("shard.reduce", fan, id, [&] {
                auto lease = ctx_.scratch();
                auto roots = leaves(inst, run.tree, parts[i], collapse);
                run.root = shard_engine.reduce(run.tree, std::move(roots),
                                               &run.stats, lease.get());
            });
        });
        rec_.close(fan);
        ls.fanout_s = rec_.duration(fan);
        ls.subreduce_max_s = 0.0;
        ls.subreduce_sum_s = 0.0;
        for (const shard_run& run : runs) {
            res.stats.accumulate(run.stats);
            ls.subreduce_max_s = std::max(ls.subreduce_max_s, run.seconds);
            ls.subreduce_sum_s += run.seconds;
        }
        ls.reduce_s = ls.subreduce_sum_s;
        res.stats.shards = static_cast<int>(parts.size());

        topo::clock_tree t;
        std::vector<topo::node_id> roots;
        ls.graft_s = timed("shard.graft", root_span, id, [&] {
            std::size_t total = runs.size() - 1;
            for (const shard_run& run : runs) total += run.tree.size();
            t.reserve_nodes(total);
            for (const shard_run& run : runs)
                roots.push_back(t.absorb(run.tree) + run.root);
        });
        // The stitch accumulates into the route's stats block, as
        // core::sharded_route does (snake wire sums in the same order).
        topo::node_id root = topo::knull_node;
        const int rejected_before = res.stats.rejected_pairs;
        ls.stitch_s = timed("stitch", root_span, id, [&] {
            auto lease = ctx_.scratch();
            root = core::stitch_roots(solver, eopt, t, std::move(roots),
                                      &res.stats, lease.get());
        });
        ls.stitch_rejected = res.stats.rejected_pairs - rejected_before;
        embed(inst, std::move(t), root, res, root_span, id, ls);
        return res;
    }

    core::route_result separate_stitch(const topo::instance& inst,
                                       const core::engine_options& eopt,
                                       int root_span, int id,
                                       layer_sample& ls) {
        core::route_result res;
        res.resolved_shards = 1;
        topo::clock_tree t;
        std::vector<topo::node_id> all;
        timed("leaves", root_span, id,
              [&] { all = leaves(inst, t, all_sinks(inst), false); });
        core::offset_ledger ledger(inst.num_groups);
        const core::merge_solver solver(kmodel, core::skew_spec::zero(),
                                        &ledger,
                                        core::consistency_mode::exact);
        const core::bottom_up_engine engine(solver, eopt);
        auto lease = ctx_.scratch();
        std::vector<topo::node_id> group_roots;
        ls.reduce_s = timed("reduce", root_span, id, [&] {
            for (topo::group_id g = 0; g < inst.num_groups; ++g) {
                std::vector<topo::node_id> members;
                for (std::size_t i = 0; i < inst.sinks.size(); ++i)
                    if (inst.sinks[i].group == g) members.push_back(all[i]);
                if (members.empty()) continue;
                group_roots.push_back(engine.reduce(
                    t, std::move(members), &res.stats, lease.get()));
            }
        });
        topo::node_id root = topo::knull_node;
        const int rejected_before = res.stats.rejected_pairs;
        ls.stitch_s = timed("stitch", root_span, id, [&] {
            root = core::stitch_roots(solver, eopt, t, std::move(group_roots),
                                      &res.stats, lease.get());
        });
        ls.stitch_rejected = res.stats.rejected_pairs - rejected_before;
        embed(inst, std::move(t), root, res, root_span, id, ls);
        return res;
    }

    core::route_result run(const shape& s, const topo::instance& inst,
                           int id, layer_sample& ls) {
        core::engine_options eopt;
        eopt.shards = s.shards;
        eopt.executor = &pool_;  // what the service hands a served request
        const int root_span = rec_.open("request", -1, id);
        core::route_result res;
        switch (s.strategy) {
            case core::strategy_id::ast_dme:
                if (s.mode == core::ast_mode::windowed) {
                    const core::merge_solver solver(kmodel, spec_of(s));
                    res = reduce_path(inst, solver, eopt, false, root_span,
                                      id, ls);
                } else {  // automatic on a zero spec: the exact ledger
                    core::offset_ledger ledger(inst.num_groups);
                    const core::merge_solver solver(
                        kmodel, spec_of(s), &ledger,
                        core::consistency_mode::exact);
                    res = reduce_path(inst, solver, eopt, false, root_span,
                                      id, ls);
                }
                break;
            case core::strategy_id::ext_bst: {
                const core::merge_solver solver(
                    kmodel, core::skew_spec::uniform(s.bound));
                res = reduce_path(inst, solver, eopt, true, root_span, id,
                                  ls);
                break;
            }
            case core::strategy_id::separate_stitch:
                res = separate_stitch(inst, eopt, root_span, id, ls);
                break;
            default:
                throw std::invalid_argument("strategy without decomposition");
        }
        rec_.close(root_span);
        ls.latency = rec_.duration(root_span);
        ls.stats = res.stats;
        return res;
    }

    core::routing_context& ctx_;
    core::thread_pool& pool_;
    span_recorder& rec_;
};

/// Replay the accepted merge stream of a ledger-free route through the
/// batch plan kernels (as micro_perf's plan_batch series does): every
/// internal node's (left, right) pair in creation order, solved on the
/// finished tree.  Returns the seconds, or -1 for ledger-backed routes.
double replay_plans(const shape& s, const core::route_result& r) {
    const bool ledger_free =
        s.windowed() || s.strategy == core::strategy_id::ext_bst;
    if (!ledger_free) return -1.0;
    const core::merge_solver solver(
        kmodel, s.strategy == core::strategy_id::ext_bst
                    ? core::skew_spec::uniform(s.bound)
                    : spec_of(s));
    std::vector<std::pair<topo::node_id, topo::node_id>> pairs;
    for (std::size_t i = 0; i < r.tree.size(); ++i) {
        const auto& nd = r.tree.node(static_cast<topo::node_id>(i));
        if (!nd.is_leaf()) pairs.emplace_back(nd.left, nd.right);
    }
    std::vector<std::optional<core::merge_plan>> out(pairs.size());
    const auto t0 = steady::now();
    core::solve_plan_batch(solver, r.tree, pairs.data(), pairs.size(),
                           out.data());
    return seconds_between(t0, steady::now());
}

/// Decompose one request (traced), verify it off the clock, check it
/// against the service's fingerprint and replay its plans.
bool traced_request(bench_state& st, decomposer& dec, span_recorder& rec,
                    std::size_t si, int id, std::vector<layer_sample>& out) {
    layer_sample ls;
    const shape& s = st.w.shapes[si];
    ++st.attempted;
    core::route_result r;
    try {
        r = dec.route(s, *st.inst[si], id, ls);
    } catch (const std::exception& e) {
        st.fail(st.w.name + " traced shape " + std::to_string(si) + ": " +
                e.what());
        return false;
    }
    const double t0 = rec.now();
    const bool ok = check_route(st, si, r);
    rec.add("verify", t0, rec.now(), -1, id);
    if (!ok) return false;
    const double r0 = rec.now();
    ls.replay_s = replay_plans(s, r);
    if (ls.replay_s >= 0.0) rec.add("solver.replay", r0, rec.now(), -1, id);
    out.push_back(ls);
    return true;
}

// ---------------------------------------------------------------- output

double median_of(const std::vector<layer_sample>& xs,
                 double layer_sample::*field) {
    std::vector<double> v;
    for (const layer_sample& x : xs)
        if (x.*field >= 0.0) v.push_back(x.*field);
    return v.empty() ? 0.0 : median(v);
}

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string trace_out;
    std::string commit = "unknown";
    bool list_metrics = false;
};

int usage() {
    std::cerr << "usage: astbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--commit ID]\n"
                 "       astbench --list-metrics\n";
    return 2;
}

std::optional<options> parse(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            o.list_metrics = true;
            continue;
        }
        if (i + 1 >= argc) return std::nullopt;
        const std::string v = argv[++i];
        try {
            if (a == "--workload") o.workload = v;
            else if (a == "--seed") o.seed = std::stoull(v);
            else if (a == "--seconds") o.seconds = std::stod(v);
            else if (a == "--trace") o.trace = std::stoi(v);
            else if (a == "--trace-out") o.trace_out = v;
            else if (a == "--commit") o.commit = v;
            else return std::nullopt;
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (o.list_metrics) return o;
    if (o.workload.empty() || !(o.seconds > 0.0) ||
        (o.trace != 0 && o.trace != 1))
        return std::nullopt;
    return o;
}

int run(const options& o) {
    bench_state st;
    st.w = make_workload(o.workload);
    // The machine context every output records.
    const std::string context =
        "\"workload\": \"" + st.w.name + "\", \"seed\": " +
        std::to_string(o.seed) + ", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"workers\": " + std::to_string(st.w.workers) +
        ", \"build\": \"" ASTBENCH_BUILD_TYPE "\", \"commit\": \"" +
        o.commit + "\"";
    st.ref.assign(st.w.shapes.size(), std::nullopt);
    st.excess_ps.assign(st.w.shapes.size(), 0.0);

    // Set-up, five times; the median is setup_s, the last one is kept.
    std::vector<double> setups;
    std::unique_ptr<core::route_service> svc;
    for (int rep = 0; rep < 5; ++rep) {
        svc.reset();
        const auto t0 = steady::now();
        svc = set_up(st);
        setups.push_back(seconds_between(t0, steady::now()));
    }

    int request_ids = 0;
    const double untraced_s = o.trace ? 0.5 * o.seconds : o.seconds;
    const pass_result a =
        service_pass(st, *svc, o.seed, untraced_s, nullptr, request_ids);

    std::vector<metric> out;
    const auto put = [&](const char* name, double v) {
        for (const auto& d : o.trace ? per_layer_metrics()
                                     : end_to_end_metrics())
            if (name == std::string(d.name)) {
                out.push_back({d.name, d.unit, v});
                return;
            }
        throw std::logic_error(std::string("undeclared metric ") + name);
    };

    if (!o.trace) {
        if (!tail_reportable(a.latency.size(), 0.9)) {
            st.fail("fewer than ten samples beyond p90 (" +
                    std::to_string(a.latency.size()) + " samples)");
        }
        double wirelength = 0.0, forced = 0.0, excess = 0.0;
        for (std::size_t i = 0; i < st.w.shapes.size(); ++i) {
            if (!st.ref[i]) continue;
            wirelength += st.ref[i]->wirelength;
            forced += st.ref[i]->forced_merges;
            excess = std::max(excess, st.excess_ps[i]);
        }
        put("latency_p50_s", median(a.latency));
        put("latency_p90_s", percentile(a.latency, 0.9));
        put("sinks_per_s", a.sinks / a.window);
        put("cpu_s_per_req", a.cpu / static_cast<double>(std::max(a.ok, 1LL)));
        put("ok_frac", static_cast<double>(a.ok) /
                           static_cast<double>(std::max(a.attempted, 1LL)));
        put("slo_met_frac", static_cast<double>(a.slo_ok) /
                                static_cast<double>(std::max(a.attempted, 1LL)));
        put("wirelength", wirelength);
        put("forced_merges", forced);
        put("max_skew_violation_ps", excess);
        put("setup_s", median(setups));
        put("peak_rss_mb", peak_rss_mb());
    } else {
        // Traced half: spans around each call into a layer.
        span_recorder rec;
        std::vector<layer_sample> layers;
        double traced_p50 = 0.0;
        core::thread_pool pool(st.w.workers);
        decomposer dec(svc->context(), pool, rec);
        if (st.w.open_loop) {
            const pass_result b = service_pass(st, *svc, o.seed,
                                               0.5 * o.seconds, &rec,
                                               request_ids);
            traced_p50 = median(b.latency);
            // Then every distinct request once through the decomposition.
            for (const std::size_t si :
                 seeded_order(st.w.shapes.size(), derive_seed(o.seed, 0xc)))
                traced_request(st, dec, rec, si, request_ids++, layers);
        } else {
            cycle_order order(st.w.shapes.size(), derive_seed(o.seed, 0x0dd));
            const auto end =
                steady::now() + std::chrono::duration_cast<steady::duration>(
                                    std::chrono::duration<double>(
                                        0.5 * o.seconds));
            std::vector<double> lat;
            while (steady::now() < end) {
                if (traced_request(st, dec, rec, order.next(), request_ids++,
                                   layers))
                    lat.push_back(layers.back().latency);
            }
            traced_p50 = median(lat);
        }

        double merges = 0.0, rejected = 0.0, planned = 0.0, fallbacks = 0.0;
        std::vector<double> v_merges, v_rejected, v_snake, v_shards;
        for (const layer_sample& ls : layers) {
            merges += ls.stats.merges;
            rejected += ls.stats.rejected_pairs;
            planned += ls.stats.batch_planned;
            fallbacks += ls.stats.kernel_fallbacks;
            v_merges.push_back(ls.stats.merges);
            v_rejected.push_back(ls.stats.rejected_pairs);
            v_snake.push_back(ls.stats.snake_wire);
            v_shards.push_back(ls.shards);
        }
        double busy = 0.0;
        for (const double x : a.route_s) busy += x;

        put("gen.instance_s", median(st.gen_s));
        put("service.queue_wait_p50_s", median(a.queue_wait));
        put("service.queue_wait_p90_s", percentile(a.queue_wait, 0.9));
        put("service.busy_frac",
            busy / (static_cast<double>(st.w.workers) * a.window));
        put("service.inflight_max", a.inflight_max);
        put("strategy.route_p50_s", median(a.route_s));
        put("engine.reduce_s", median_of(layers, &layer_sample::reduce_s));
        put("engine.merges", median(v_merges));
        put("engine.rejected_pairs", median(v_rejected));
        put("engine.accept_ratio", merges / std::max(1.0, merges + rejected));
        put("engine.snake_wire", median(v_snake));
        put("solver.replay_s", median_of(layers, &layer_sample::replay_s));
        put("solver.fast_path_ratio",
            planned / std::max(1.0, planned + fallbacks));
        put("shard.count", median(v_shards));
        put("shard.partition_s", median_of(layers, &layer_sample::partition_s));
        put("shard.fanout_s", median_of(layers, &layer_sample::fanout_s));
        put("shard.subreduce_max_s",
            median_of(layers, &layer_sample::subreduce_max_s));
        put("shard.subreduce_sum_s",
            median_of(layers, &layer_sample::subreduce_sum_s));
        put("shard.graft_s", median_of(layers, &layer_sample::graft_s));
        put("stitch.s", median_of(layers, &layer_sample::stitch_s));
        put("stitch.rejected_pairs",
            median_of(layers, &layer_sample::stitch_rejected));
        put("embed.s", median_of(layers, &layer_sample::embed_s));
        put("eval.verify_s", median(st.verify_s));
        put("context.scratch_allocated",
            static_cast<double>(svc->context().allocated_scratch()));
        put("context.cached_instances",
            static_cast<double>(svc->context().cached_instances()));
        put("loadgen.late_p90_s", percentile(a.late, 0.9));
        put("loadgen.offered_rps",
            static_cast<double>(a.attempted) / std::max(a.window, 1e-9));
        put("trace.overhead_frac", traced_p50 / median(a.latency) - 1.0);

        if (!o.trace_out.empty()) {
            std::ofstream f(o.trace_out);
            f << "{\"context\": {" << context << "}, \"spans\": ";
            write_spans(f, rec.snapshot());
            f << "}\n";
            if (!f) st.fail("cannot write " + o.trace_out);
        }
    }

    svc.reset();  // drain the service before reporting
    for (const metric& m : out)
        if (!std::isfinite(m.value)) st.fail("metric " + m.name + " is not finite");
    const bool correct = st.failed == 0;
    if (!correct) std::cerr << "astbench: " << st.first_failure << "\n";
    std::cerr << "astbench: " << st.w.name << " seed " << o.seed << ": "
              << a.latency.size() << " timed requests, p90 has "
              << samples_beyond(a.latency.size(), 0.9)
              << " samples beyond it\n";
    std::cout << "{\"context\": {" << context << "}}\n";
    std::cout << result_json(correct, std::max(st.attempted, 1LL), st.failed,
                             out)
              << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const auto o = parse(argc, argv);
    if (!o) return usage();
    if (o->list_metrics) {
        for (const auto& m : end_to_end_metrics())
            std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
        for (const auto& m : per_layer_metrics())
            std::cout << "per_layer " << m.name << " " << m.unit << "\n";
        return 0;
    }
    try {
        return run(*o);
    } catch (const std::exception& e) {
        std::cerr << "astbench: " << e.what() << "\n";
        return 1;
    }
}
