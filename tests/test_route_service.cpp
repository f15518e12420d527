// Service-layer tests: batched and streamed route_service runs must be
// bit-identical to direct single-threaded router calls for all four
// strategies on both NN backends, deterministic across thread counts, and
// isolate a failing request from the rest of its batch.  Also covers the
// streaming API (async submit, priority ordering, per-request deadlines,
// cooperative cancellation with one-round latency, scratch-pool recovery),
// strategy names, uniform timing/threads bookkeeping, scratch reuse, and
// the parallel multi-merge fan-out.

#include "core/route_service.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace astclk::core {
namespace {

topo::instance small_instance(int n, int k, std::uint64_t seed,
                              bool intermingled) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    spec.seed = seed;
    auto inst = gen::generate(spec);
    if (k > 1) {
        if (intermingled)
            gen::apply_intermingled_groups(inst, k, seed + 1);
        else
            gen::apply_clustered_groups(inst, k);
    }
    return inst;
}

/// Bit-exact comparison: every statistic the engine reports and every
/// node's topology/geometry (the acceptance bar for threaded execution).
void expect_same_route(const route_result& a, const route_result& b,
                       const std::string& what) {
    EXPECT_TRUE(a.ok()) << what << ": " << a.status_message;
    EXPECT_TRUE(b.ok()) << what << ": " << b.status_message;
    EXPECT_EQ(a.wirelength, b.wirelength) << what;
    EXPECT_EQ(a.stats.merges, b.stats.merges) << what;
    EXPECT_EQ(a.stats.snake_wire, b.stats.snake_wire) << what;
    EXPECT_EQ(a.stats.rejected_pairs, b.stats.rejected_pairs) << what;
    EXPECT_EQ(a.stats.forced_merges, b.stats.forced_merges) << what;
    EXPECT_EQ(a.stats.worst_violation, b.stats.worst_violation) << what;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << what;
    ASSERT_EQ(a.tree.size(), b.tree.size()) << what;
    for (std::size_t i = 0; i < a.tree.size(); ++i) {
        const auto& an = a.tree.node(static_cast<topo::node_id>(i));
        const auto& bn = b.tree.node(static_cast<topo::node_id>(i));
        ASSERT_EQ(an.left, bn.left) << what << " node " << i;
        ASSERT_EQ(an.right, bn.right) << what << " node " << i;
        ASSERT_EQ(an.arc, bn.arc) << what << " node " << i;
        ASSERT_EQ(an.edge_left, bn.edge_left) << what << " node " << i;
        ASSERT_EQ(an.edge_right, bn.edge_right) << what << " node " << i;
    }
}

/// All four strategies on both NN backends against one instance.
std::vector<routing_request> all_requests(const topo::instance& inst) {
    std::vector<routing_request> reqs;
    for (const nn_backend be : {nn_backend::grid, nn_backend::linear}) {
        for (const strategy_id s :
             {strategy_id::zst_dme, strategy_id::ext_bst,
              strategy_id::ast_dme, strategy_id::separate_stitch}) {
            routing_request r;
            r.instance = &inst;
            r.options.engine.backend = be;
            r.strategy = s;
            if (s == strategy_id::ext_bst)
                r.spec = skew_spec::uniform(10e-12);
            reqs.push_back(r);
        }
    }
    return reqs;
}

/// The legacy direct call for a request (always executor-free, i.e. the
/// sequential single-threaded reference).
route_result direct_call(const routing_request& r) {
    switch (r.strategy) {
        case strategy_id::zst_dme:
            return route_zst_dme(*r.instance, r.options);
        case strategy_id::ext_bst:
            return route_ext_bst(*r.instance, r.spec.default_bound,
                                 r.options);
        case strategy_id::ast_dme:
            return route_ast_dme(*r.instance, r.spec, r.options, r.mode);
        case strategy_id::separate_stitch:
            return route_separate_stitch(*r.instance, r.options);
    }
    throw std::logic_error("unknown strategy");
}

// --------------------------------------------------------- gate probe
// A cancel_probe whose first poll after a gate reset parks the worker at
// the dispatch checkpoint until the test releases it — the deterministic
// way to pin a single-worker pool at a known point while submissions
// queue up behind it.  Later polls pass straight through, so the pinned
// request then routes normally.

struct worker_gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    bool entered = false;
    cancel_probe probe;

    worker_gate() {
        probe.on_poll = [this](std::uint64_t) { park_once(); };
    }
    void reset() {
        std::lock_guard<std::mutex> lk(mu);
        open = false;
        entered = false;
    }
    void wait_entered() {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return entered; });
    }
    void release() {
        {
            std::lock_guard<std::mutex> lk(mu);
            open = true;
        }
        cv.notify_all();
    }
    void park_once() {
        std::unique_lock<std::mutex> lk(mu);
        if (entered) return;
        entered = true;
        cv.notify_all();
        cv.wait(lk, [&] { return open; });
    }
};

worker_gate& blocker_gate() {
    static worker_gate g;
    return g;
}

/// A request on `inst` that parks its worker on the gate at dispatch.
routing_request blocker_request(const topo::instance& inst) {
    routing_request r;
    r.instance = &inst;
    r.options.engine.cancel.set_probe(&blocker_gate().probe);
    return r;
}

// ------------------------------------------------------------- the tests

TEST(RouteService, BatchedMatchesDirectCallsBitExact) {
    const auto mix = small_instance(90, 5, 21, true);
    const auto box = small_instance(70, 4, 22, false);
    for (const topo::instance* inst : {&mix, &box}) {
        const auto reqs = all_requests(*inst);
        service_options sopt;
        sopt.threads = 4;
        route_service svc(sopt);
        const auto got = svc.route_batch(reqs);
        ASSERT_EQ(got.size(), reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            ASSERT_TRUE(got[i].ok()) << got[i].status_message;
            const auto ref = direct_call(reqs[i]);
            expect_same_route(got[i], ref, to_string(reqs[i].strategy));
        }
    }
}

TEST(RouteService, StreamingSubmitMatchesDirectCallsBitExact) {
    // The full identity matrix: all 4 strategies x both backends x
    // {batch wrapper, streaming submit} x thread counts {1, 2, hw}.
    const auto inst = small_instance(90, 5, 21, true);
    const auto reqs = all_requests(inst);
    std::vector<route_result> refs;
    refs.reserve(reqs.size());
    for (const auto& r : reqs) refs.push_back(direct_call(r));

    const std::vector<int> counts{
        1, 2,
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))};
    for (const int threads : counts) {
        service_options sopt;
        sopt.threads = threads;
        route_service svc(sopt);

        const auto batch = svc.route_batch(reqs);
        std::vector<route_handle> handles;
        handles.reserve(reqs.size());
        for (const auto& r : reqs) handles.push_back(svc.submit(r));

        ASSERT_EQ(batch.size(), reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const std::string what =
                std::string(to_string(reqs[i].strategy)) + " threads=" +
                std::to_string(threads) + " req " + std::to_string(i);
            expect_same_route(batch[i], refs[i], "batch " + what);
            const auto streamed = handles[i].wait();
            expect_same_route(streamed, refs[i], "stream " + what);
        }
    }
}

TEST(RouteService, DeterministicAcrossThreadCounts) {
    const auto inst = small_instance(110, 6, 33, true);
    auto reqs = all_requests(inst);
    // Multi-merge requests exercise the engine-level fan-out as well.
    for (auto r : all_requests(inst)) {
        r.options.engine.order = merge_order::multi_merge;
        reqs.push_back(r);
    }
    std::vector<int> counts{1, 2,
                            static_cast<int>(std::max(
                                1u, std::thread::hardware_concurrency()))};
    std::vector<std::vector<route_result>> runs;
    for (const int threads : counts) {
        service_options sopt;
        sopt.threads = threads;
        route_service svc(sopt);
        runs.push_back(svc.route_batch(reqs));
    }
    for (std::size_t run = 1; run < runs.size(); ++run) {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            ASSERT_TRUE(runs[run][i].ok()) << runs[run][i].status_message;
            expect_same_route(
                runs[run][i], runs[0][i],
                "threads=" + std::to_string(counts[run]) + " req " +
                    std::to_string(i));
        }
    }
}

TEST(RouteService, ParallelMultiMergeMatchesSequentialEngine) {
    const auto inst = small_instance(150, 6, 44, true);
    for (const strategy_id s : {strategy_id::zst_dme, strategy_id::ast_dme,
                                strategy_id::separate_stitch}) {
        routing_request r;
        r.instance = &inst;
        r.strategy = s;
        if (s == strategy_id::ast_dme) r.mode = ast_mode::windowed;
        r.options.engine.order = merge_order::multi_merge;

        const auto sequential = direct_call(r);  // executor-free reference
        service_options sopt;
        sopt.threads = 4;
        route_service svc(sopt);
        const auto threaded = svc.submit(r).wait();
        EXPECT_GT(threaded.stats.rounds, 0);
        expect_same_route(threaded, sequential,
                          std::string("multi_merge ") + to_string(s));
    }
}

TEST(RouteService, ErrorInOneRequestIsIsolatedWithStatus) {
    const auto inst = small_instance(60, 4, 55, true);
    auto good = all_requests(inst);
    std::vector<routing_request> reqs{good[0], routing_request{}, good[1]};
    // reqs[1].instance is null: that slot alone must report
    // route_status::error — no string matching needed to classify it.
    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    const auto got = svc.route_batch(reqs);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[0].ok()) << got[0].status_message;
    EXPECT_EQ(got[1].status, route_status::error);
    EXPECT_FALSE(got[1].ok());
    EXPECT_NE(got[1].status_message.find("instance"), std::string::npos)
        << got[1].status_message;
    EXPECT_TRUE(got[2].ok()) << got[2].status_message;
    expect_same_route(got[0], direct_call(reqs[0]), "isolated[0]");
    expect_same_route(got[2], direct_call(reqs[2]), "isolated[2]");
}

TEST(RouteService, InvalidRequestIsNeitherRetriedNorDegraded) {
    const auto inst = small_instance(60, 4, 55, true);
    auto bad_inst = inst;
    bad_inst.sinks[7].group = 9;  // out of range for num_groups == 4
    routing_request base;
    base.instance = &inst;
    std::vector<std::pair<routing_request, const char*>> cases;
    cases.emplace_back(base, "invalid instance");
    cases.back().first.instance = &bad_inst;
    for (const skew_spec& spec :
         {skew_spec::uniform(std::numeric_limits<double>::quiet_NaN()),
          skew_spec::uniform(-5e-12),
          skew_spec{0.0, {{4, 1e-12}}}}) {  // group 4 of 4
        for (const strategy_id s :
             {strategy_id::ext_bst, strategy_id::ast_dme}) {
            cases.emplace_back(base, "invalid skew spec");
            cases.back().first.strategy = s;
            cases.back().first.spec = spec;
        }
    }
    submit_options sub;
    sub.max_attempts = 3;
    sub.degrade = true;
    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    for (const auto& [req, why] : cases) {
        const route_result r = svc.submit(req, sub).wait();
        EXPECT_EQ(r.status, route_status::error) << why;
        EXPECT_EQ(r.attempts, 1) << why;
        EXPECT_EQ(r.degradation.rung, degrade_rung::none) << why;
        EXPECT_NE(r.status_message.find(why), std::string::npos)
            << r.status_message;
    }
}

TEST(RouteService, ScratchAndInstanceReuseAreBitIdentical) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = 80;
    spec.seed = 66;
    routing_context ctx;
    const topo::instance& inst = ctx.intermingled(spec, 5, 67);
    EXPECT_EQ(&inst, &ctx.intermingled(spec, 5, 67));  // cache hit
    EXPECT_EQ(ctx.cached_instances(), 1u);

    routing_request r;
    r.instance = &inst;
    r.mode = ast_mode::windowed;  // rejections populate the ban/starved sets
    const auto first = route(r, ctx);   // fresh scratch, returned to pool
    const auto second = route(r, ctx);  // reused scratch
    expect_same_route(first, second, "scratch reuse");
    expect_same_route(first, route(r), "transient context");
}

TEST(RouteService, TimingAndThreadsRecordedUniformly) {
    const auto inst = small_instance(80, 4, 77, true);
    routing_request r;
    r.instance = &inst;
    const auto direct = route(r);
    EXPECT_GT(direct.cpu_seconds, 0.0);
    EXPECT_EQ(direct.threads_used, 1);

    service_options sopt;
    sopt.threads = 3;
    route_service svc(sopt);
    EXPECT_EQ(svc.threads(), 3);
    const auto served = svc.submit(r).wait();
    EXPECT_GT(served.cpu_seconds, 0.0);
    EXPECT_EQ(served.threads_used, 3);
    const auto batch = svc.route_batch({r});
    ASSERT_TRUE(batch[0].ok());
    EXPECT_GT(batch[0].cpu_seconds, 0.0);
    EXPECT_EQ(batch[0].threads_used, 3);
}

TEST(RouteService, StrategyNamesRoundTripAndUnknownIdsThrow) {
    for (const strategy_id s :
         {strategy_id::zst_dme, strategy_id::ext_bst, strategy_id::ast_dme,
          strategy_id::separate_stitch})
        EXPECT_EQ(parse_strategy(to_string(s)), s) << to_string(s);
    EXPECT_STREQ(to_string(strategy_id::ext_bst), "ext_bst");
    EXPECT_EQ(parse_strategy("ast_dme"), strategy_id::ast_dme);
    EXPECT_EQ(parse_strategy("ast"), strategy_id::ast_dme);
    EXPECT_EQ(parse_strategy("zst"), strategy_id::zst_dme);
    EXPECT_EQ(parse_strategy("bst"), strategy_id::ext_bst);
    EXPECT_EQ(parse_strategy("sep"), strategy_id::separate_stitch);
    for (const char* unknown : {"nonesuch", "", "AST", "ast "})
        EXPECT_FALSE(parse_strategy(unknown).has_value()) << unknown;
    EXPECT_STREQ(to_string(static_cast<strategy_id>(99)), "?");

    const auto inst = small_instance(24, 1, 88, false);
    routing_request r;
    r.instance = &inst;
    r.strategy = static_cast<strategy_id>(99);
    EXPECT_THROW((void)route(r), std::out_of_range);
    routing_request null_req;
    EXPECT_THROW((void)route(null_req), std::invalid_argument);
}

TEST(RouteService, BatchedResultsStillVerify) {
    // The service path must hand back trees the independent evaluator
    // accepts, exactly like the direct path.
    const auto inst = small_instance(100, 5, 99, true);
    routing_request r;
    r.instance = &inst;
    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    const auto got = svc.route_batch({r});
    ASSERT_TRUE(got[0].ok()) << got[0].status_message;
    const router_options opt;
    const auto vr = eval::verify_route(got[0], inst, opt.model,
                                       skew_spec::zero());
    EXPECT_TRUE(vr.ok) << vr.message;
}

TEST(RouteService, StatusNamesAreStable) {
    EXPECT_STREQ(to_string(route_status::ok), "ok");
    EXPECT_STREQ(to_string(route_status::cancelled), "cancelled");
    EXPECT_STREQ(to_string(route_status::deadline_exceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(to_string(route_status::error), "error");
}

TEST(RouteService, CompletionCallbackAndTryGet) {
    const auto inst = small_instance(60, 4, 12, true);
    routing_request r;
    r.instance = &inst;
    const auto ref = direct_call(r);

    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    std::atomic<int> callbacks{0};
    std::atomic<double> seen_wl{0.0};
    submit_options so;
    so.on_complete = [&](const route_result& res) {
        ++callbacks;
        seen_wl.store(res.wirelength);
    };
    route_handle h = svc.submit(r, so);
    ASSERT_TRUE(h.valid());
    std::optional<route_result> got;
    while (!got.has_value()) {  // streaming consumption: poll try_get
        got = h.try_get();
        if (!got.has_value())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(h.done());
    EXPECT_EQ(callbacks.load(), 1);
    EXPECT_EQ(seen_wl.load(), got->wirelength);
    expect_same_route(*got, ref, "try_get stream");
    EXPECT_FALSE(h.try_get().has_value());  // one-shot retrieval
    EXPECT_FALSE(h.cancel());               // already completed
}

TEST(RouteService, PriorityOrderIsClaimedFirstBySingleWorker) {
    // A single-worker pool makes claim order observable: hold the worker
    // on the gate, queue a low-priority backlog, then a late
    // high-priority submit — the high one must complete before the
    // backlog.
    blocker_gate().reset();
    const auto inst = small_instance(40, 3, 7, true);

    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);

    std::mutex order_mu;
    std::vector<std::string> order;
    const auto tagged = [&](const char* label, int priority) {
        submit_options so;
        so.priority = priority;
        so.on_complete = [&, label](const route_result&) {
            std::lock_guard<std::mutex> lk(order_mu);
            order.emplace_back(label);
        };
        return so;
    };

    auto hgate = svc.submit(blocker_request(inst), tagged("gate", 100));
    blocker_gate().wait_entered();  // the worker is now pinned

    routing_request r;
    r.instance = &inst;
    auto hlow1 = svc.submit(r, tagged("low1", 0));
    auto hlow2 = svc.submit(r, tagged("low2", 0));
    auto hhigh = svc.submit(r, tagged("high", 7));  // late but urgent

    blocker_gate().release();
    (void)hgate.wait();
    const auto rhigh = hhigh.wait();
    const auto rlow1 = hlow1.wait();
    const auto rlow2 = hlow2.wait();
    EXPECT_TRUE(rhigh.ok() && rlow1.ok() && rlow2.ok());

    const std::vector<std::string> expected{"gate", "high", "low1", "low2"};
    EXPECT_EQ(order, expected);
    expect_same_route(rhigh, direct_call(r), "priority result");
}

TEST(RouteService, CancelQueuedRequestCompletesImmediately) {
    blocker_gate().reset();
    const auto inst = small_instance(40, 3, 8, true);

    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);

    auto hgate = svc.submit(blocker_request(inst));
    blocker_gate().wait_entered();

    routing_request r;
    r.instance = &inst;
    auto h = svc.submit(r);
    EXPECT_FALSE(h.done());
    EXPECT_TRUE(h.cancel());  // still queued: completes inside the call
    EXPECT_TRUE(h.done());    // did not wait for the pinned worker
    auto res = h.try_get();
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, route_status::cancelled);
    EXPECT_EQ(res->status_message, "cancelled");
    EXPECT_EQ(res->tree.size(), 0u);

    blocker_gate().release();
    EXPECT_TRUE(hgate.wait().ok());
    // The cancelled slot never perturbed the service: the same request
    // routes normally afterwards.
    expect_same_route(svc.submit(r).wait(), direct_call(r),
                      "post-cancel resubmit");
}

TEST(RouteService, CancelMidReduceStopsWithinOneRoundAndFreesScratch) {
    const auto inst = small_instance(150, 6, 44, true);
    routing_request base;
    base.instance = &inst;
    base.mode = ast_mode::windowed;

    // Count the checkpoints of an unperturbed run (poll 1 is the dispatch
    // pre-check; each engine selection step polls once before working).
    cancel_probe counting;
    routing_context warm;
    {
        routing_request r = base;
        r.options.engine.cancel.set_probe(&counting);
        ASSERT_TRUE(route(r, warm).ok());
    }
    ASSERT_GT(counting.polls, 20u);
    const std::uint64_t trip = counting.polls / 2;

    // Trip the cancel flag at checkpoint `trip`: the same poll must
    // observe it — cancellation latency is bounded by one merge round.
    std::atomic<bool> flag{false};
    cancel_probe probe;
    probe.on_poll = [&](std::uint64_t k) {
        if (k == trip) flag.store(true, std::memory_order_relaxed);
    };
    routing_context ctx;
    routing_request r = base;
    r.options.engine.cancel =
        cancel_token(&flag, cancel_token::no_deadline());
    r.options.engine.cancel.set_probe(&probe);
    const auto res = route(r, ctx);
    EXPECT_EQ(res.status, route_status::cancelled);
    EXPECT_EQ(res.status_message, "cancelled");
    EXPECT_EQ(res.tree.size(), 0u);
    EXPECT_EQ(probe.polls, trip);          // stopped at that checkpoint
    // Polls 2..trip-1 each preceded at most one commit, so the burned
    // work (reported via the interrupt's stats) is bounded by the
    // checkpoint count — and non-zero, proving a genuine mid-reduce stop.
    EXPECT_GT(res.stats.merges, 0);
    EXPECT_LE(res.stats.merges, static_cast<int>(trip) - 2);
    EXPECT_EQ(ctx.pooled_scratch(), 1u);   // lease released by the unwind

    // The pool is reusable: an identical request on the same context is
    // bit-identical to a fresh transient-context run.
    const auto again = route(base, ctx);
    expect_same_route(again, route(base), "post-cancel scratch reuse");
}

TEST(RouteService, CancelMidMultiMergeStopsAtRoundBoundary) {
    const auto inst = small_instance(150, 6, 44, true);
    routing_request base;
    base.instance = &inst;
    base.mode = ast_mode::windowed;
    base.options.engine.order = merge_order::multi_merge;

    cancel_probe counting;
    routing_context warm;
    {
        routing_request r = base;
        r.options.engine.cancel.set_probe(&counting);
        ASSERT_TRUE(route(r, warm).ok());
    }
    ASSERT_GT(counting.polls, 4u);
    const std::uint64_t trip = counting.polls / 2;

    std::atomic<bool> flag{false};
    cancel_probe probe;
    probe.on_poll = [&](std::uint64_t k) {
        if (k == trip) flag.store(true, std::memory_order_relaxed);
    };
    routing_context ctx;
    routing_request r = base;
    r.options.engine.cancel =
        cancel_token(&flag, cancel_token::no_deadline());
    r.options.engine.cancel.set_probe(&probe);
    const auto res = route(r, ctx);
    EXPECT_EQ(res.status, route_status::cancelled);
    EXPECT_EQ(probe.polls, trip);
    // Polls 2..trip-1 each completed exactly one multi-merge round before
    // the flag was observed at `trip` — one-round latency, by count.
    EXPECT_EQ(res.stats.rounds, static_cast<int>(trip - 2));
}

TEST(RouteService, CallerTokenFlagIsHonoredThroughSubmit) {
    // A request arriving with its own cancel flag keeps it working on the
    // async path: the service chains the request token behind the
    // handle-wired one, so either flag stops the run.
    const auto inst = small_instance(150, 6, 44, true);
    routing_request r;
    r.instance = &inst;
    r.mode = ast_mode::windowed;
    std::atomic<bool> my_flag{false};
    cancel_probe probe;
    probe.on_poll = [&](std::uint64_t k) {
        if (k == 30) my_flag.store(true, std::memory_order_relaxed);
    };
    r.options.engine.cancel =
        cancel_token(&my_flag, cancel_token::no_deadline());
    r.options.engine.cancel.set_probe(&probe);

    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    const auto res = svc.submit(r).wait();
    EXPECT_EQ(res.status, route_status::cancelled);
    EXPECT_EQ(probe.polls, 30u);  // probe forwarded, counted once per poll
    EXPECT_EQ(res.tree.size(), 0u);
}

TEST(RouteService, ExpiredDeadlineSkipsReduceEntirely) {
    const auto inst = small_instance(80, 4, 9, true);
    routing_request r;
    r.instance = &inst;
    cancel_probe probe;
    r.options.engine.cancel.set_probe(&probe);

    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    submit_options so;
    so.deadline = std::chrono::steady_clock::now();  // already expired
    const auto res = svc.submit(r, so).wait();
    EXPECT_EQ(res.status, route_status::deadline_exceeded);
    EXPECT_EQ(res.status_message, "deadline exceeded");
    EXPECT_EQ(res.stats.merges, 0);
    EXPECT_EQ(res.tree.size(), 0u);
    EXPECT_EQ(probe.polls, 1u);  // only the dispatch pre-check ran

    // Same contract on the direct path: a request whose own token carries
    // an expired deadline never enters the strategy.
    routing_request direct = r;
    direct.options.engine.cancel =
        cancel_token(nullptr, std::chrono::steady_clock::now());
    const auto dres = route(direct);
    EXPECT_EQ(dres.status, route_status::deadline_exceeded);
    EXPECT_EQ(dres.stats.merges, 0);
}

TEST(RouteService, DeadlineFiringMidReduceReportsDeadlineExceeded) {
    const auto inst = small_instance(120, 5, 10, true);
    routing_request r;
    r.instance = &inst;
    r.mode = ast_mode::windowed;
    // Park the reduce at its second checkpoint until the deadline is
    // safely in the past, so the mid-run expiry is deterministic.
    cancel_probe probe;
    probe.on_poll = [](std::uint64_t k) {
        if (k == 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
    };
    r.options.engine.cancel.set_probe(&probe);

    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    submit_options so;
    so.deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(100);
    const auto res = svc.submit(r, so).wait();
    EXPECT_EQ(res.status, route_status::deadline_exceeded);
    EXPECT_EQ(res.stats.merges, 0);
    EXPECT_EQ(res.tree.size(), 0u);
}

TEST(RouteService, CancelMidReduceNeverPerturbsSiblings) {
    const auto inst = small_instance(150, 6, 44, true);
    routing_request req;
    req.instance = &inst;
    req.mode = ast_mode::windowed;
    const auto ref = direct_call(req);

    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);

    // The victim cancels *itself* from an engine checkpoint through its
    // public handle — exactly a cancel() racing a running reduce, made
    // deterministic (the checkpoint blocks until the handle exists).
    std::mutex hmu;
    std::condition_variable hcv;
    bool hset = false;
    route_handle victim;
    cancel_probe probe;
    probe.on_poll = [&](std::uint64_t k) {
        if (k != 40) return;
        std::unique_lock<std::mutex> lk(hmu);
        hcv.wait(lk, [&] { return hset; });
        EXPECT_TRUE(victim.cancel());  // running: cooperative
    };
    routing_request vreq = req;
    vreq.options.engine.cancel.set_probe(&probe);
    auto h = svc.submit(vreq);
    {
        std::lock_guard<std::mutex> lk(hmu);
        victim = h;
        hset = true;
    }
    hcv.notify_all();
    auto sibling = svc.submit(req);  // identical, uncancelled

    const auto vres = h.wait();
    EXPECT_EQ(vres.status, route_status::cancelled);
    EXPECT_EQ(vres.tree.size(), 0u);
    const auto sres = sibling.wait();
    expect_same_route(sres, ref, "sibling of a cancelled request");
    // And the service remains pristine for the victim's request too.
    expect_same_route(svc.submit(req).wait(), ref, "victim resubmitted");
}

TEST(RouteService, DestructionDrainsAndHandlesOutliveTheService) {
    const auto inst = small_instance(70, 4, 13, true);
    routing_request r;
    r.instance = &inst;
    const auto ref = direct_call(r);
    std::vector<route_handle> handles;
    {
        service_options sopt;
        sopt.threads = 2;
        route_service svc(sopt);
        for (int i = 0; i < 3; ++i) handles.push_back(svc.submit(r));
    }  // destructor drains the queue; results stay reachable
    for (auto& h : handles) {
        const auto res = h.wait();  // must not block or dangle
        expect_same_route(res, ref, "post-destruction result");
    }
}

TEST(RouteHandle, OnCompleteExceptionIsSwallowed) {
    const auto inst = small_instance(60, 1, 31, false);
    routing_request r;
    r.instance = &inst;
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    submit_options sub;
    std::atomic<int> called{0};
    sub.on_complete = [&](const route_result& res) {
        ++called;
        EXPECT_TRUE(res.ok());
        throw std::runtime_error("callback bomb");
    };
    route_handle h = svc.submit(r, sub);
    // The throwing callback must neither kill the worker nor leave the
    // waiter blocked: wait() returns the stored result normally.
    const route_result res = h.wait();
    EXPECT_TRUE(res.ok()) << res.status_message;
    EXPECT_EQ(called.load(), 1);
    // The worker survived: the service still serves.
    EXPECT_TRUE(svc.submit(r).wait().ok());
}

TEST(RouteHandle, SecondRetrievalThrowsLogicError) {
    const auto inst = small_instance(60, 1, 32, false);
    routing_request r;
    r.instance = &inst;
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    route_handle h = svc.submit(r);
    route_handle copy = h;  // all copies address the same submission
    const route_result res = h.wait();
    EXPECT_TRUE(res.ok());
    EXPECT_THROW(h.wait(), std::logic_error);
    EXPECT_THROW(copy.wait(), std::logic_error);
    EXPECT_EQ(copy.try_get(), std::nullopt);  // try_get stays non-throwing
    EXPECT_TRUE(copy.done());
    EXPECT_THROW(route_handle{}.wait(), std::logic_error);  // empty handle
}

TEST(RouteHandle, TicketRevokeRacesWorkerClaim) {
    // A cancel storm against a single busy worker: while the blocker pins
    // the one worker, a sibling thread cancels queued submissions as the
    // gate opens and the worker starts claiming them.  Whoever wins each
    // state's claimed-exchange completes it — every handle resolves
    // exactly once, as `cancelled` or as a full result, never both and
    // never neither.
    const auto inst = small_instance(40, 1, 33, false);
    routing_request work;
    work.instance = &inst;
    const routing_request blocker = blocker_request(inst);
    for (int round = 0; round < 5; ++round) {
        blocker_gate().reset();
        service_options sopt;
        sopt.threads = 1;
        route_service svc(sopt);
        route_handle pin = svc.submit(blocker);
        blocker_gate().wait_entered();
        std::vector<route_handle> handles;
        for (int i = 0; i < 16; ++i) handles.push_back(svc.submit(work));
        std::thread canceller([&] {
            for (auto& h : handles) h.cancel();
        });
        blocker_gate().release();
        canceller.join();
        EXPECT_TRUE(pin.wait().ok());
        int cancelled = 0, completed = 0;
        for (auto& h : handles) {
            const route_result res = h.wait();  // exactly one result each
            if (res.status == route_status::cancelled) {
                EXPECT_EQ(res.tree.size(), 0u);
                ++cancelled;
            } else {
                EXPECT_TRUE(res.ok()) << res.status_message;
                ++completed;
            }
        }
        EXPECT_EQ(cancelled + completed, 16);
    }
}

}  // namespace
}  // namespace astclk::core
