// Sharded die-region reduction tests (DESIGN.md §4): partition the sink
// set into spatial shards, sub-reduce every shard independently, stitch
// the shard roots with the phase-2 associative machinery.  Covered here:
//
//  * the partitioner: every sink in exactly one shard, no empty shards,
//    deterministic emission, population clamping, the auto heuristic;
//  * determinism: a fixed shard count yields bit-identical trees across
//    worker-thread counts {1, 2, hw} (direct calls and service
//    submissions alike);
//  * quality: sharded wirelength within a stated bound (25%) of the
//    monolithic reduce on r1–r5, and the skew spec still met after the
//    stitch (independent eval pass, windowed-mode violation contract);
//  * accounting: per-shard engine_stats sum exactly — a complete run
//    reports exactly n-1 merges and the shard count, and a cancellation
//    unwinding mid-shard counts every shard's work exactly once (merges
//    bounded by the observed checkpoint count — double counting would
//    break the bound);
//  * cancellation: a cancel flag or deadline firing mid-shard stops the
//    route at the next engine checkpoint (counted through cancel_probe),
//    releases the scratch lease, and leaves the context reusable.

#include "core/route_service.hpp"
#include "core/shard.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace astclk::core {
namespace {

topo::instance paper_instance(const char* name, int groups) {
    gen::instance_spec spec = gen::paper_spec(name);
    auto inst = gen::generate(spec);
    if (groups > 1)
        gen::apply_intermingled_groups(inst, groups, spec.seed + 1);
    return inst;
}

void expect_same_tree(const route_result& got, const route_result& ref,
                      const std::string& what) {
    ASSERT_TRUE(got.ok()) << what << ": " << got.status_message;
    ASSERT_TRUE(ref.ok()) << what << ": " << ref.status_message;
    EXPECT_EQ(got.wirelength, ref.wirelength) << what;
    EXPECT_EQ(got.stats.merges, ref.stats.merges) << what;
    EXPECT_EQ(got.stats.snake_wire, ref.stats.snake_wire) << what;
    EXPECT_EQ(got.stats.rejected_pairs, ref.stats.rejected_pairs) << what;
    EXPECT_EQ(got.stats.forced_merges, ref.stats.forced_merges) << what;
    EXPECT_EQ(got.stats.worst_violation, ref.stats.worst_violation) << what;
    EXPECT_EQ(got.stats.shards, ref.stats.shards) << what;
    ASSERT_EQ(got.tree.size(), ref.tree.size()) << what;
    for (std::size_t i = 0; i < got.tree.size(); ++i) {
        const auto& gn = got.tree.node(static_cast<topo::node_id>(i));
        const auto& rn = ref.tree.node(static_cast<topo::node_id>(i));
        ASSERT_EQ(gn.left, rn.left) << what << " node " << i;
        ASSERT_EQ(gn.right, rn.right) << what << " node " << i;
        ASSERT_EQ(gn.arc, rn.arc) << what << " node " << i;
        ASSERT_EQ(gn.edge_left, rn.edge_left) << what << " node " << i;
        ASSERT_EQ(gn.edge_right, rn.edge_right) << what << " node " << i;
    }
}

routing_request sharded_request(const topo::instance& inst, strategy_id s,
                                int shards) {
    routing_request r;
    r.instance = &inst;
    r.strategy = s;
    if (s == strategy_id::ast_dme) r.mode = ast_mode::windowed;
    if (s == strategy_id::ext_bst) r.spec = skew_spec::uniform(10e-12);
    r.options.engine.shards = shards;
    return r;
}

// ------------------------------------------------------------ partitioner

TEST(ShardPartition, CoversEverySinkExactlyOnce) {
    const auto inst = paper_instance("r3", 8);
    const auto n = static_cast<std::int32_t>(inst.sinks.size());
    for (const int k : {1, 2, 4, 7, 16, 61}) {
        const shard_partition parts = partition_sinks(inst, k);
        ASSERT_EQ(parts.size(), static_cast<std::size_t>(k));
        std::vector<int> seen(static_cast<std::size_t>(n), 0);
        for (const auto& shard : parts) {
            ASSERT_FALSE(shard.empty());
            EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
            for (const std::int32_t s : shard) {
                ASSERT_GE(s, 0);
                ASSERT_LT(s, n);
                ++seen[static_cast<std::size_t>(s)];
            }
        }
        for (const int c : seen) EXPECT_EQ(c, 1) << "k=" << k;
        // Deterministic: a second partition is identical.
        EXPECT_EQ(parts, partition_sinks(inst, k));
    }
    // More shards than sinks clamps to one sink per shard.
    gen::instance_spec tiny = gen::paper_spec("r1");
    tiny.num_sinks = 5;
    const auto small = gen::generate(tiny);
    EXPECT_EQ(partition_sinks(small, 64).size(), 5u);
    // A sink-less instance partitions into zero shards, never an empty one.
    tiny.num_sinks = 0;
    EXPECT_TRUE(partition_sinks(gen::generate(tiny), 8).empty());
}

TEST(ShardPartition, AutoHeuristicTracksPopulationAndConcurrency) {
    // Small populations stay monolithic regardless of pool width.
    EXPECT_EQ(auto_shard_count(267, 1), 1);
    EXPECT_EQ(auto_shard_count(1024, 16), 1);
    // Past the engagement threshold the count tracks ~512 sinks/shard.
    const int k50 = auto_shard_count(50000, 1);
    EXPECT_GE(k50, 64);
    EXPECT_LE(k50, 128);
    // A wide executor raises the count (up to the per-shard floor) so the
    // pool is saturated even when the size heuristic says fewer shards.
    EXPECT_GT(auto_shard_count(4096, 16), auto_shard_count(4096, 1));
    // ...but never below ~192 sinks per shard.
    EXPECT_LE(auto_shard_count(2000, 64), 2000 / 192);

    // effective_shard_count: the default knob is monolithic, a ledger-
    // backed solver is always monolithic, a forced count is clamped.
    engine_options opt;  // shards = 1
    const merge_solver free_solver(rc::delay_model::elmore(),
                                   skew_spec::zero());
    EXPECT_EQ(effective_shard_count(opt, free_solver, 50000), 1);
    opt.shards = 8;
    EXPECT_EQ(effective_shard_count(opt, free_solver, 50000), 8);
    EXPECT_EQ(effective_shard_count(opt, free_solver, 3), 3);
    offset_ledger ledger(4);
    const merge_solver ledgered(rc::delay_model::elmore(), skew_spec::zero(),
                                &ledger, consistency_mode::exact);
    EXPECT_EQ(effective_shard_count(opt, ledgered, 50000), 1);
}

// ------------------------------------------------------------ determinism

TEST(ShardedEngine, FixedShardCountBitIdenticalAcrossThreads) {
    const auto inst = paper_instance("r3", 8);
    const std::vector<int> counts{
        1, 2,
        static_cast<int>(std::max(2u, std::thread::hardware_concurrency()))};
    for (const strategy_id s : {strategy_id::zst_dme, strategy_id::ast_dme}) {
        const auto ref = route(sharded_request(inst, s, 4));
        ASSERT_TRUE(ref.ok()) << ref.status_message;
        EXPECT_EQ(ref.stats.shards, 4);
        for (const int threads : counts) {
            service_options sopt;
            sopt.threads = threads;
            route_service svc(sopt);
            const auto got = svc.route_batch({sharded_request(inst, s, 4)});
            expect_same_tree(got[0], ref,
                             std::string(to_string(s)) + " threads=" +
                                 std::to_string(threads));
        }
    }
}

TEST(ShardedEngine, MultiMergeOrderShardsDeterministically) {
    const auto inst = paper_instance("r2", 6);
    auto req = sharded_request(inst, strategy_id::zst_dme, 4);
    req.options.engine.order = merge_order::multi_merge;
    const auto ref = route(req);
    ASSERT_TRUE(ref.ok()) << ref.status_message;
    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    expect_same_tree(svc.route_batch({req})[0], ref, "multi-merge sharded");
}

// ----------------------------------------------------------- quality (b/c)

TEST(ShardedEngine, WirelengthWithinBoundOfMonolithicOnPaperSuite) {
    // Stated bound: spatial sharding costs at most 25% wirelength against
    // the monolithic greedy reduce on the paper suite (measured: within
    // -7%..+18% — bisection keeps merges local, and the stitch pays only
    // at the k shard seams; sharding may even *beat* the greedy
    // monolithic order).
    for (const char* name : {"r1", "r2", "r3", "r4", "r5"}) {
        const auto inst = paper_instance(name, 1);
        for (const int k : {4, 8}) {
            const auto mono =
                route(sharded_request(inst, strategy_id::zst_dme, 1));
            const auto shard =
                route(sharded_request(inst, strategy_id::zst_dme, k));
            ASSERT_TRUE(mono.ok());
            ASSERT_TRUE(shard.ok());
            EXPECT_GT(shard.wirelength, 0.0);
            EXPECT_LE(shard.wirelength, 1.25 * mono.wirelength)
                << name << " k=" << k;
        }
    }
}

TEST(ShardedEngine, SkewSpecStillMetPostStitch) {
    // The stitch must not destroy the skew budget: the independent
    // evaluator re-derives every intra-group skew on the stitched tree.
    // Windowed-mode contract as in route_cli: residual violations of
    // forced endgame merges are reported in stats.worst_violation and
    // tolerated exactly up to that amount.
    for (const char* name : {"r2", "r3"}) {
        const auto inst = paper_instance(name, 6);
        const auto res = route(sharded_request(inst, strategy_id::ast_dme, 8));
        ASSERT_TRUE(res.ok()) << res.status_message;
        eval::verify_options vopt;
        vopt.skew_tolerance = res.stats.worst_violation + 1e-15;
        const auto vr =
            eval::verify_route(res, inst, rc::delay_model::elmore(),
                               skew_spec::zero(), vopt);
        EXPECT_TRUE(vr.ok) << name << ": " << vr.message;
    }
    // Zero-skew single-group routes stitch without any violation budget.
    const auto inst = paper_instance("r3", 1);
    const auto res = route(sharded_request(inst, strategy_id::zst_dme, 8));
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.stats.worst_violation, 0.0);
    const auto vr = eval::verify_route(res, inst, rc::delay_model::elmore(),
                                       skew_spec::zero());
    EXPECT_TRUE(vr.ok) << vr.message;
}

// ------------------------------------------------------------- accounting

TEST(ShardedEngine, StatsSumExactlyAcrossShardsAndStitch) {
    const auto inst = paper_instance("r3", 6);
    const auto n = static_cast<int>(inst.sinks.size());
    for (const int k : {2, 8}) {
        const auto res = route(sharded_request(inst, strategy_id::ast_dme, k));
        ASSERT_TRUE(res.ok()) << res.status_message;
        // k sub-reductions of n_i roots plus one stitch of k roots merge
        // sum(n_i - 1) + (k - 1) = n - 1 times: the per-shard counters
        // summed exactly once, no merge lost or double-counted.
        EXPECT_EQ(res.stats.merges, n - 1) << "k=" << k;
        EXPECT_EQ(res.stats.shards, k);
        EXPECT_EQ(res.stats.disjoint_merges + res.stats.shared_merges,
                  res.stats.merges);
        // The tree really contains every sink exactly once.
        EXPECT_EQ(res.tree.check_structure(inst.sinks.size()), "");
    }
    // Monolithic reference reports the same total and no shard count.
    const auto mono = route(sharded_request(inst, strategy_id::ast_dme, 1));
    EXPECT_EQ(mono.stats.merges, n - 1);
    EXPECT_EQ(mono.stats.shards, 0);
}

// ------------------------------------------------- cancellation (d) + (2)

TEST(ShardedEngine, MidShardCancelStopsAtCheckpointWithExactAccounting) {
    const auto inst = paper_instance("r1", 1);  // 267 sinks
    routing_request base = sharded_request(inst, strategy_id::zst_dme, 4);

    // Checkpoint census of an unperturbed sharded run: poll 1 is the
    // dispatch pre-check, then every shard's selection steps and the
    // stitch poll once each (the shard loop runs inline — no executor —
    // so the probe counts every checkpoint).
    cancel_probe counting;
    routing_context warm;
    {
        routing_request r = base;
        r.options.engine.cancel.set_probe(&counting);
        ASSERT_TRUE(route(r, warm).ok());
    }
    ASSERT_GT(counting.polls, 40u);
    // Half-way lands inside a middle shard: well past shard 1 (~1/4 of
    // the polls), well before the stitch.
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
    EXPECT_EQ(res.tree.size(), 0u);
    // Prompt: the tripping poll observed the flag — no checkpoint ran
    // after it.
    EXPECT_EQ(probe.polls, trip);
    // Exact accounting across the unwind: every poll from 2..trip-1
    // preceded at most one merge, and each shard's stats block was summed
    // exactly once — a double count would break this bound.
    EXPECT_GT(res.stats.merges, 0);
    EXPECT_LE(res.stats.merges, static_cast<int>(trip) - 2);
    // Mid-shard, not endgame: completed shards' work is included (shard 1
    // alone merges ~1/4 of the sinks).
    EXPECT_GT(res.stats.merges,
              static_cast<int>(inst.sinks.size()) / 8);
    EXPECT_EQ(res.stats.shards, 4);  // the interrupt carries the sums
    EXPECT_EQ(ctx.pooled_scratch(), 1u);  // shard lease released by unwind

    // The context is immediately reusable and bit-identical afterwards.
    expect_same_tree(route(base, ctx), route(base), "post-cancel reuse");
}

TEST(ShardedEngine, MidShardDeadlineCancelsPromptly) {
    const auto inst = paper_instance("r1", 1);
    routing_request r = sharded_request(inst, strategy_id::zst_dme, 4);
    // Deadline 40 ms out; checkpoint 10 (inside shard 1) stalls past it —
    // the very same poll must observe the expiry.
    cancel_probe probe;
    probe.on_poll = [](std::uint64_t k) {
        if (k == 10)
            std::this_thread::sleep_for(std::chrono::milliseconds(120));
    };
    r.options.engine.cancel = cancel_token(
        nullptr,
        std::chrono::steady_clock::now() + std::chrono::milliseconds(40));
    r.options.engine.cancel.set_probe(&probe);
    routing_context ctx;
    const auto res = route(r, ctx);
    EXPECT_EQ(res.status, route_status::deadline_exceeded);
    EXPECT_EQ(probe.polls, 10u);
    EXPECT_EQ(res.tree.size(), 0u);
    EXPECT_EQ(ctx.pooled_scratch(), 1u);
}

TEST(ShardedEngine, FannedShardCancelUnwindsCleanlyThroughThePool) {
    // With a real pool the shard sub-reductions run inside parallel_for;
    // a deadline firing mid-run must propagate the route_interrupt out of
    // the fan-out (one shard's interrupt wins, the siblings observe the
    // same token and stop too), report deadline_exceeded, and leave the
    // service context immediately reusable.
    const auto inst = paper_instance("r4", 1);  // 1903 sinks, several ms
    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    auto req = sharded_request(inst, strategy_id::zst_dme, 8);
    submit_options tight;
    tight.deadline = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(500);
    const auto res = svc.submit(req, tight).wait();
    EXPECT_EQ(res.status, route_status::deadline_exceeded);
    EXPECT_EQ(res.tree.size(), 0u);
    EXPECT_LT(res.stats.merges, static_cast<int>(inst.sinks.size()) - 1);
    // The pool and scratches survived the unwind: the same request with
    // room to finish is bit-identical to a direct call.
    const auto again = svc.submit(req).wait();
    expect_same_tree(again, route(req), "post-deadline fanned reuse");
}

TEST(ShardedEngine, ServiceDeadlineBoundsTheWholeShardSubBatch) {
    // A sharded submission is one request to the service: an expired
    // deadline stops it before any shard work, a live one routes all
    // shards under the handle's token.
    const auto inst = paper_instance("r2", 1);
    service_options sopt;
    sopt.threads = 2;
    route_service svc(sopt);
    auto req = sharded_request(inst, strategy_id::zst_dme, 4);
    submit_options expired;
    expired.deadline = std::chrono::steady_clock::now();
    const auto dead = svc.submit(req, expired).wait();
    EXPECT_EQ(dead.status, route_status::deadline_exceeded);
    EXPECT_EQ(dead.stats.merges, 0);

    submit_options roomy;
    roomy.deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    roomy.priority = 3;
    const auto ok = svc.submit(req, roomy).wait();
    ASSERT_TRUE(ok.ok()) << ok.status_message;
    expect_same_tree(ok, route(req), "sharded submit with deadline");
}

// --------------------------------------------------------------- grafting

TEST(ShardedEngine, AbsorbRemapsNodeReferences) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = 6;
    const auto inst = gen::generate(spec);
    topo::clock_tree a;
    const auto a0 = a.add_leaf(inst, 0);
    const auto a1 = a.add_leaf(inst, 1);
    const auto ar = a.add_internal(a0, a1, a.node(a0).arc.hull(a.node(a1).arc),
                                   1.0, 2.0, 0.0, a.node(a0).delays);
    topo::clock_tree b;
    const auto b0 = b.add_leaf(inst, 2);
    const auto b1 = b.add_leaf(inst, 3);
    const auto br = b.add_internal(b0, b1, b.node(b0).arc.hull(b.node(b1).arc),
                                   3.0, 4.0, 0.0, b.node(b0).delays);
    topo::clock_tree t;
    const auto off_a = t.absorb(a);
    const auto off_b = t.absorb(b);
    EXPECT_EQ(off_a, 0);
    EXPECT_EQ(off_b, static_cast<topo::node_id>(a.size()));
    ASSERT_EQ(t.size(), a.size() + b.size());
    const auto& ga = t.node(off_a + ar);
    EXPECT_EQ(ga.left, off_a + a0);
    EXPECT_EQ(ga.right, off_a + a1);
    EXPECT_EQ(t.node(off_a + a0).parent, off_a + ar);
    const auto& gb = t.node(off_b + br);
    EXPECT_EQ(gb.left, off_b + b0);
    EXPECT_EQ(gb.right, off_b + b1);
    EXPECT_EQ(t.node(off_b + b1).parent, off_b + br);
    EXPECT_EQ(gb.edge_left, 3.0);
    EXPECT_EQ(gb.edge_right, 4.0);
    EXPECT_EQ(t.node(off_b + b0).sink_index, 2);
}

}  // namespace
}  // namespace astclk::core
