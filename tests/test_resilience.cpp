// Resilience-layer tests (DESIGN.md §10): deterministic fault injection
// through seeded/scheduled fault plans, retry with bounded backoff,
// the graceful-degradation ladder and partial-result salvage of sharded
// reduces.  The acceptance bar: every cell of the fault matrix (kind ×
// site × retry × degrade) terminates with a valid tree (ok or verified
// degraded) or a typed fault status — never a crash, hang or leaked
// scratch lease — and identical fault seeds reproduce bit-identical
// outcomes.

#include "core/route_service.hpp"
#include "core/shard.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
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

/// Bit-exact tree + stats comparison (no status expectations — callers
/// compare degraded results too).
void expect_same_tree(const route_result& a, const route_result& b,
                      const std::string& what) {
    EXPECT_EQ(a.wirelength, b.wirelength) << what;
    EXPECT_EQ(a.stats.merges, b.stats.merges) << what;
    EXPECT_EQ(a.stats.snake_wire, b.stats.snake_wire) << what;
    EXPECT_EQ(a.stats.worst_violation, b.stats.worst_violation) << what;
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

void expect_verified(const route_result& res, const topo::instance& inst,
                     const skew_spec& spec, const std::string& what) {
    eval::verify_options vopt;
    vopt.skew_tolerance += res.stats.worst_violation;
    const auto vr = eval::verify_route(res, inst, rc::delay_model::elmore(),
                                       spec, vopt);
    EXPECT_TRUE(vr.ok) << what << ": " << vr.message;
}

routing_request zst_request(const topo::instance& inst) {
    routing_request req;
    req.instance = &inst;
    req.strategy = strategy_id::zst_dme;
    return req;
}

// ---------------------------------------------------------- plan basics

TEST(FaultPlan, SeededIsDeterministic) {
    const fault_plan p1 = fault_plan::seeded(42, 4, 32);
    const fault_plan p2 = fault_plan::seeded(42, 4, 32);
    const auto e1 = p1.events();
    const auto e2 = p2.events();
    ASSERT_EQ(e1.size(), 4u);
    ASSERT_EQ(e1.size(), e2.size());
    for (std::size_t i = 0; i < e1.size(); ++i) {
        EXPECT_EQ(e1[i].site, e2[i].site) << i;
        EXPECT_EQ(e1[i].index, e2[i].index) << i;
        EXPECT_EQ(e1[i].kind, e2[i].kind) << i;
        EXPECT_NE(e1[i].kind, fault_kind::none) << i;
        EXPECT_GE(e1[i].index, 1u) << i;
        EXPECT_LE(e1[i].index, 32u) << i;
    }
    // A different seed must not reproduce the same schedule.
    const auto e3 = fault_plan::seeded(43, 4, 32).events();
    bool differs = false;
    for (std::size_t i = 0; i < e1.size(); ++i)
        differs = differs || e3[i].site != e1[i].site ||
                  e3[i].index != e1[i].index || e3[i].kind != e1[i].kind;
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, EventsConsumeOnce) {
    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::selection, 3, fault_kind::transient_solver);
    EXPECT_TRUE(plan.armed());
    EXPECT_EQ(plan.fire(fault_site::selection, 2), fault_kind::none);
    EXPECT_EQ(plan.fire(fault_site::round, 3), fault_kind::none);
    EXPECT_EQ(plan.fire(fault_site::selection, 3),
              fault_kind::transient_solver);
    // One-shot: the retried run sails past the same checkpoint.
    EXPECT_EQ(plan.fire(fault_site::selection, 3), fault_kind::none);
    EXPECT_FALSE(plan.armed());
    EXPECT_EQ(plan.fired(), 1);
}

TEST(FaultPlan, DispatchIndexesByOccurrence) {
    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::dispatch, 2, fault_kind::transient_solver);
    // index 0 asks the plan for its per-site occurrence counter: the
    // first dispatch is occurrence 1, the second (the retry) fires.
    EXPECT_EQ(plan.fire(fault_site::dispatch, 0), fault_kind::none);
    EXPECT_EQ(plan.fire(fault_site::dispatch, 0),
              fault_kind::transient_solver);
}

TEST(FaultPlan, PollAtMapsKindsToStatuses) {
    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::selection, 1, fault_kind::transient_solver);
    plan.schedule(fault_site::selection, 2, fault_kind::alloc_failure);
    plan.schedule(fault_site::selection, 3, fault_kind::poisoned_shard);
    cancel_token tok;
    tok.set_faults(&plan);
    EXPECT_TRUE(tok.armed());
    EXPECT_EQ(tok.poll_at(fault_site::selection, 1),
              route_status::transient_fault);
    EXPECT_EQ(tok.poll_at(fault_site::selection, 2),
              route_status::transient_fault);
    EXPECT_EQ(tok.poll_at(fault_site::selection, 3),
              route_status::data_fault);
    EXPECT_EQ(tok.poll_at(fault_site::selection, 4), route_status::ok);
}

TEST(Degrade, CoarseShardCountBounds) {
    EXPECT_GE(coarse_shard_count(100, 1), 2);
    EXPECT_LE(coarse_shard_count(100, 1), 100);
    EXPECT_GT(coarse_shard_count(4096, 1), auto_shard_count(4096, 1));
    EXPECT_EQ(coarse_shard_count(2, 1), 2);
}

// ------------------------------------------------ determinism of faults

TEST(Resilience, SameSeedBitIdenticalOutcome) {
    const auto inst = small_instance(120, 1, 7, false);
    auto run = [&](std::uint64_t seed) {
        fault_plan plan = fault_plan::seeded(seed, 2, 32);
        routing_request req = zst_request(inst);
        req.options.engine.cancel.set_faults(&plan);
        return core::route(req);
    };
    for (const std::uint64_t seed : {11ull, 42ull, 99ull}) {
        const route_result a = run(seed);
        const route_result b = run(seed);
        EXPECT_EQ(a.status, b.status) << "seed " << seed;
        EXPECT_EQ(a.stats.merges, b.stats.merges) << "seed " << seed;
        if (a.usable() && b.usable())
            expect_same_tree(a, b, "seed " + std::to_string(seed));
    }
}

// ------------------------------------------------------- retry/backoff

TEST(Resilience, TransientFaultRetriesToBitIdenticalTree) {
    const auto inst = small_instance(150, 1, 9, false);
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);

    routing_request clean = zst_request(inst);
    const route_result ref = svc.submit(clean).wait();
    ASSERT_TRUE(ref.ok());

    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::selection, 5, fault_kind::transient_solver);
    routing_request req = zst_request(inst);
    req.options.engine.cancel.set_faults(&plan);
    submit_options sub;
    sub.max_attempts = 3;
    route_result res = svc.submit(req, sub).wait();
    ASSERT_TRUE(res.ok()) << res.status_message;
    EXPECT_EQ(res.attempts, 2);  // attempt 1 faulted, attempt 2 clean
    EXPECT_EQ(plan.fired(), 1);
    expect_same_tree(ref, res, "retry");
}

TEST(Resilience, RetryExhaustionReportsTransientFault) {
    const auto inst = small_instance(80, 1, 10, false);
    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::dispatch, 1, fault_kind::transient_solver);
    plan.schedule(fault_site::dispatch, 2, fault_kind::transient_solver);
    plan.schedule(fault_site::dispatch, 3, fault_kind::transient_solver);
    routing_request req = zst_request(inst);
    req.options.engine.cancel.set_faults(&plan);
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    submit_options sub;
    sub.max_attempts = 2;
    route_result res = svc.submit(req, sub).wait();
    EXPECT_EQ(res.status, route_status::transient_fault);
    EXPECT_EQ(res.attempts, 2);
    EXPECT_EQ(plan.fired(), 2);
}

TEST(Resilience, RetryExhaustionStepsDownTheLadder) {
    const auto inst = small_instance(100, 1, 11, false);
    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::dispatch, 1, fault_kind::transient_solver);
    plan.schedule(fault_site::dispatch, 2, fault_kind::transient_solver);
    routing_request req = zst_request(inst);
    req.options.engine.cancel.set_faults(&plan);
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    submit_options sub;
    sub.max_attempts = 2;
    sub.degrade = true;
    route_result res = svc.submit(req, sub).wait();
    ASSERT_EQ(res.status, route_status::degraded) << res.status_message;
    EXPECT_EQ(res.attempts, 3);  // 2 faulted attempts + 1 rung-1 rerun
    EXPECT_EQ(res.degradation.rung, degrade_rung::coarse_shards);
    EXPECT_GE(res.resolved_shards, 2);
    EXPECT_TRUE(res.degradation.verified);
    expect_verified(res, inst, req.spec, "ladder rung 1");
}

TEST(Resilience, RungOneRerunOfAnUnshardedRouteIsOk) {
    // Rung 1 only re-partitions, and ledger-backed AST (automatic at zero
    // skew) and separate-stitch never shard: their rung-1 rerun is the
    // full-fidelity configuration, so it publishes `ok`, not `degraded`.
    auto inst = gen::generate(gen::paper_spec("r3"));
    gen::apply_intermingled_groups(inst, 6, 1);
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    for (const strategy_id s :
         {strategy_id::ast_dme, strategy_id::separate_stitch}) {
        routing_request req;
        req.instance = &inst;
        req.strategy = s;
        const route_result clean = svc.submit(req).wait();
        ASSERT_TRUE(clean.ok()) << clean.status_message;
        fault_plan plan = fault_plan::seeded(0, 0);
        plan.schedule(fault_site::selection, 10,
                      fault_kind::transient_solver);
        req.options.engine.cancel.set_faults(&plan);
        submit_options sub;
        sub.degrade = true;  // one attempt, then the ladder
        const route_result res = svc.submit(req, sub).wait();
        const std::string what = to_string(s);
        EXPECT_EQ(plan.fired(), 1) << what;
        ASSERT_EQ(res.status, route_status::ok)
            << what << ": " << res.status_message;
        EXPECT_TRUE(res.status_message.empty()) << what;
        EXPECT_EQ(res.attempts, 2) << what;
        EXPECT_LE(res.resolved_shards, 1) << what;
        EXPECT_EQ(res.degradation.rung, degrade_rung::none) << what;
        expect_same_tree(clean, res, what + " rung-1 rerun");
    }
}

/// Submit a degrade-enabled ZST request with a `budget` deadline to a
/// single-worker service whose worker is pinned, and release the worker
/// once `fraction` of the budget has passed: the request is claimed no
/// earlier than that point of its budget.  The worker is pinned inside a
/// first request's completion callback (invoked on the worker), so no
/// test strategy is needed.
route_result claimed_past(const topo::instance& inst,
                          std::chrono::milliseconds budget, double fraction) {
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    std::promise<void> entered;
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    submit_options hold;
    hold.on_complete = [&](const route_result&) {
        entered.set_value();
        released.wait();
    };
    route_handle pin = svc.submit(zst_request(inst), hold);
    entered.get_future().wait();  // the only worker is now pinned

    submit_options sub;
    sub.degrade = true;
    sub.deadline = std::chrono::steady_clock::now() + budget;
    route_handle h = svc.submit(zst_request(inst), sub);
    // Measured from after the submit, so the claim lands at least
    // `fraction` into the budget however late this thread wakes.
    std::this_thread::sleep_until(
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::milliseconds>(budget *
                                                              fraction));
    release.set_value();
    (void)pin.wait();
    return h.wait();
}

TEST(Resilience, DeadlineWatermarkStartsOnCoarseShards) {
    // Claimed just past the 0.5 watermark: rung 1.  It stays rung 1 unless
    // the claim slips past 0.75 of the budget (~450 ms of slack at 2 s),
    // and the rerouted request has ~950 ms to finish.
    const auto inst = small_instance(300, 1, 17, false);
    const route_result res =
        claimed_past(inst, std::chrono::milliseconds(2000), 0.52);
    ASSERT_EQ(res.status, route_status::degraded) << res.status_message;
    EXPECT_EQ(res.degradation.rung, degrade_rung::coarse_shards);
    EXPECT_GE(res.resolved_shards, 2);
    EXPECT_EQ(res.attempts, 1);
    EXPECT_TRUE(res.degradation.verified);
    expect_verified(res, inst, skew_spec::zero(), "watermark rung 1");
}

TEST(Resilience, DeadlinePastRemainderMidpointStartsGreedy) {
    // Claimed past the midpoint of what the watermark leaves (0.75 of the
    // budget): straight to rung 2, with ~450 ms left to route.
    const auto inst = small_instance(300, 1, 17, false);
    const route_result res =
        claimed_past(inst, std::chrono::milliseconds(2000), 0.77);
    ASSERT_EQ(res.status, route_status::degraded) << res.status_message;
    EXPECT_EQ(res.degradation.rung, degrade_rung::greedy_fallback);
    EXPECT_EQ(res.attempts, 1);
    EXPECT_TRUE(res.degradation.verified);
    expect_verified(res, inst, skew_spec::zero(), "watermark rung 2");
}

// -------------------------------------------------------------- salvage

TEST(Resilience, PoisonedShardWithoutDegradeIsDataFault) {
    const auto inst = small_instance(200, 1, 12, false);
    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::shard, 2, fault_kind::poisoned_shard);
    routing_request req = zst_request(inst);
    req.options.engine.shards = 4;
    req.options.engine.cancel.set_faults(&plan);
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    route_result res = svc.submit(req, {}).wait();
    EXPECT_EQ(res.status, route_status::data_fault);
    EXPECT_EQ(res.attempts, 1);
}

TEST(Resilience, PoisonedShardSalvagesCompletedSubtrees) {
    const auto inst = small_instance(220, 1, 13, false);
    auto run = [&](int threads) {
        // Each run needs a fresh plan: events consume when they fire.
        fault_plan plan = fault_plan::seeded(0, 0);
        plan.schedule(fault_site::shard, 2, fault_kind::poisoned_shard);
        routing_request req = zst_request(inst);
        req.options.engine.shards = 4;
        req.options.engine.cancel.set_faults(&plan);
        service_options sopt;
        sopt.threads = threads;
        route_service svc(sopt);
        submit_options sub;
        sub.degrade = true;
        route_result res = svc.submit(req, sub).wait();
        EXPECT_EQ(res.status, route_status::degraded)
            << res.status_message;
        EXPECT_EQ(res.degradation.rung, degrade_rung::salvaged);
        EXPECT_EQ(res.degradation.salvaged_shards, 3);
        EXPECT_EQ(res.degradation.greedy_shards, 1);
        EXPECT_TRUE(res.degradation.verified);
        expect_verified(res, inst, req.spec, "salvage");
        return res;
    };
    const route_result seq = run(1);
    const route_result rerun = run(1);
    expect_same_tree(seq, rerun, "salvage repeatability");
    // The shard-site fault is keyed by the partition index, not arrival
    // order, so fanned execution salvages the same shards and the greedy
    // completion + stitch reproduce the same tree bit-exactly.
    const route_result fanned = run(4);
    expect_same_tree(seq, fanned, "salvage across thread counts");
}

TEST(Resilience, StallBurnsDeadlineAndSalvages) {
    const auto inst = small_instance(240, 1, 14, false);
    fault_plan plan = fault_plan::seeded(0, 0);
    plan.schedule(fault_site::shard, 3, fault_kind::worker_stall);
    routing_request req = zst_request(inst);
    req.options.engine.shards = 3;
    req.options.engine.cancel.set_faults(&plan);
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    submit_options sub;
    sub.degrade = true;
    sub.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    route_result res = svc.submit(req, sub).wait();
    ASSERT_EQ(res.status, route_status::degraded) << res.status_message;
    EXPECT_EQ(res.degradation.rung, degrade_rung::salvaged);
    EXPECT_EQ(res.degradation.salvaged_shards, 2);
    EXPECT_EQ(res.degradation.greedy_shards, 1);
    EXPECT_TRUE(res.degradation.verified);
    expect_verified(res, inst, req.spec, "stall salvage");
}

TEST(Resilience, ResolvedShardsRecorded) {
    const auto inst = small_instance(150, 1, 15, false);
    routing_request req = zst_request(inst);
    route_result mono = core::route(req);
    EXPECT_EQ(mono.resolved_shards, 1);
    req.options.engine.shards = 4;
    route_result sharded = core::route(req);
    EXPECT_EQ(sharded.resolved_shards, 4);
    EXPECT_EQ(sharded.stats.shards, 4);
    // Reproducibility closure: pinning engine.shards to the recorded
    // count reproduces the run bit-exactly.
    route_result pinned = core::route(req);
    expect_same_tree(sharded, pinned, "pinned shard count");
}

// --------------------------------------------------------- fault matrix

TEST(Resilience, FaultMatrixAlwaysTerminatesWithTypedOutcome) {
    const auto inst = small_instance(140, 1, 16, false);
    const fault_kind kinds[] = {
        fault_kind::transient_solver, fault_kind::alloc_failure,
        fault_kind::worker_stall, fault_kind::poisoned_shard};
    const fault_site sites[] = {fault_site::dispatch, fault_site::selection,
                                fault_site::round, fault_site::shard};
    service_options sopt;
    sopt.threads = 1;
    route_service svc(sopt);
    for (const fault_kind kind : kinds) {
        for (const fault_site site : sites) {
            for (const int attempts : {1, 3}) {
                for (const bool degrade : {false, true}) {
                    const std::string what =
                        std::string(to_string(kind)) + "@" +
                        to_string(site) + " retries=" +
                        std::to_string(attempts) +
                        (degrade ? " degrade" : "");
                    fault_plan plan = fault_plan::seeded(0, 0);
                    const std::uint64_t index =
                        site == fault_site::selection ? 5 : site ==
                        fault_site::shard ? 2 : 1;
                    plan.schedule(site, index, kind);
                    routing_request req = zst_request(inst);
                    if (site == fault_site::round)
                        req.options.engine.order = merge_order::multi_merge;
                    if (site == fault_site::shard)
                        req.options.engine.shards = 4;
                    req.options.engine.cancel.set_faults(&plan);
                    submit_options sub;
                    sub.max_attempts = attempts;
                    sub.degrade = degrade;
                    route_result res = svc.submit(req, sub).wait();
                    EXPECT_NE(res.status, route_status::error)
                        << what << ": " << res.status_message;
                    EXPECT_NE(res.status, route_status::cancelled) << what;
                    EXPECT_NE(res.status, route_status::deadline_exceeded)
                        << what;  // no deadline in the matrix
                    if (res.usable()) {
                        EXPECT_GT(res.tree.size(), 0u) << what;
                        expect_verified(res, inst, req.spec, what);
                        if (res.status == route_status::degraded) {
                            EXPECT_TRUE(res.degradation.verified) << what;
                        }
                    } else {
                        EXPECT_TRUE(res.status ==
                                        route_status::transient_fault ||
                                    res.status == route_status::data_fault)
                            << what << ": " << to_string(res.status);
                    }
                }
            }
        }
    }
    // Sequential service: every scratch lease went back to the pool and
    // the whole matrix ran off a single pooled scratch.
    EXPECT_EQ(svc.context().pooled_scratch(), 1u);
}

}  // namespace
}  // namespace astclk::core
