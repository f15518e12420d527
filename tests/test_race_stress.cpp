// Race-stress suite (DESIGN.md §12): the workload the TSan configuration
// (-DASTCLK_SANITIZE=thread) exists for.  Small instances are routed
// through every concurrent path at once — the service's worker pool, the
// multi-merge rounds' NN and plan fan-out, the sharded sub-reduce fan-out,
// concurrent cancellation and deterministic fault injection — so a data
// race in any of the synchronization layers has maximal opportunity to
// surface under the race detector.
//
// The suite runs (cheaply) in the plain configuration too, where it
// doubles as a determinism matrix: whatever the thread count or
// submission interleaving, every completed tree must be bit-identical to
// the sequential reference for its merge order and shard count.

#include "core/route_service.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace astclk::core {
namespace {

topo::instance stress_instance(int n, int groups, std::uint64_t seed) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    spec.seed = seed;
    auto inst = gen::generate(spec);
    if (groups > 1) gen::apply_intermingled_groups(inst, groups, seed + 1);
    return inst;
}

constexpr merge_order korders[] = {merge_order::nearest_pair,
                                   merge_order::multi_merge};
constexpr int kshard_counts[] = {1, 4};

routing_request make_request(const topo::instance& inst, merge_order order,
                             int shards) {
    routing_request r;
    r.instance = &inst;
    r.strategy = strategy_id::ast_dme;
    // Windowed mode keeps the solver ledger-free: sharding and the
    // multi-merge plan fan-out (two of the fan-outs this suite stresses)
    // disable themselves behind a ledger.
    r.mode = ast_mode::windowed;
    r.options.engine.order = order;
    r.options.engine.shards = shards;
    return r;
}

void expect_same_tree(const route_result& got, const route_result& ref,
                      const std::string& what) {
    ASSERT_TRUE(got.ok()) << what << ": " << got.status_message;
    ASSERT_TRUE(ref.ok()) << what << ": " << ref.status_message;
    EXPECT_EQ(got.wirelength, ref.wirelength) << what;
    EXPECT_EQ(got.stats.merges, ref.stats.merges) << what;
    EXPECT_EQ(got.stats.snake_wire, ref.stats.snake_wire) << what;
    ASSERT_EQ(got.tree.size(), ref.tree.size()) << what;
    for (std::size_t i = 0; i < got.tree.size(); ++i) {
        const auto& gn = got.tree.node(static_cast<topo::node_id>(i));
        const auto& rn = ref.tree.node(static_cast<topo::node_id>(i));
        ASSERT_EQ(gn.left, rn.left) << what << " node " << i;
        ASSERT_EQ(gn.right, rn.right) << what << " node " << i;
        ASSERT_EQ(gn.edge_left, rn.edge_left) << what << " node " << i;
        ASSERT_EQ(gn.edge_right, rn.edge_right) << what << " node " << i;
    }
}

/// Every fan-out at once: for each worker count, one service routes the
/// full {merge order} × {shards} matrix over two instances concurrently,
/// and each completion must be bit-identical to the sequential reference
/// of its (instance, merge order, shard count) cell.  The service hands
/// its pool to every request, so monolithic multi-merge rounds fan their
/// NN queries and plans out over the same workers that run the requests.
TEST(RaceStress, ConcurrentMatrixIsBitIdentical) {
    const auto small = stress_instance(40, 4, 7);
    const auto medium = stress_instance(72, 4, 11);
    const std::vector<const topo::instance*> instances{&small, &medium};

    // Sequential references, one per (instance, merge order, shard count).
    route_result refs[2][2][2];
    for (int ii = 0; ii < 2; ++ii)
        for (int oi = 0; oi < 2; ++oi)
            for (int si = 0; si < 2; ++si) {
                route_result& ref = refs[ii][oi][si];
                ref = route(make_request(*instances[ii], korders[oi],
                                         kshard_counts[si]));
                ASSERT_TRUE(ref.ok()) << ref.status_message;
            }

    for (const int threads : {2, 4}) {
        service_options sopt;
        sopt.threads = threads;
        route_service svc(sopt);
        struct pending {
            route_handle h;
            const route_result* ref;
            std::string what;
        };
        std::vector<pending> inflight;
        for (int rep = 0; rep < 2; ++rep)
            for (int ii = 0; ii < 2; ++ii)
                for (int oi = 0; oi < 2; ++oi)
                    for (int si = 0; si < 2; ++si) {
                        submit_options so;
                        so.priority = rep;  // exercise the priority queue
                        inflight.push_back(
                            {svc.submit(make_request(*instances[ii],
                                                     korders[oi],
                                                     kshard_counts[si]),
                                        so),
                             &refs[ii][oi][si],
                             "threads=" + std::to_string(threads) +
                                 " inst=" + std::to_string(ii) +
                                 " order=" + std::to_string(oi) +
                                 " shards=" +
                                 std::to_string(kshard_counts[si])});
                    }
        for (auto& p : inflight) expect_same_tree(p.h.wait(), *p.ref, p.what);
    }
}

/// Deterministic fault injection under concurrency: seeded fault plans
/// fire mid-route on several workers at once while healthy submissions
/// share the pool.  Faulted requests may retry; every terminal status must
/// be coherent, and any attempt that ends ok must still be bit-identical
/// to the sequential reference.  Every third plan routes multi-merge, so
/// its round-site faults fire too.
TEST(RaceStress, ConcurrentFaultInjectionStaysCoherent) {
    const auto inst = stress_instance(48, 4, 3);
    // Sequential references, one per (merge order, shard count).
    route_result refs[2][2];
    for (int oi = 0; oi < 2; ++oi)
        for (int si = 0; si < 2; ++si) {
            refs[oi][si] =
                route(make_request(inst, korders[oi], kshard_counts[si]));
            ASSERT_TRUE(refs[oi][si].ok()) << refs[oi][si].status_message;
        }

    service_options sopt;
    sopt.threads = 4;
    route_service svc(sopt);

    std::vector<std::unique_ptr<fault_plan>> plans;  // outlive every poll
    std::vector<route_handle> handles;
    std::vector<const route_result*> ref_of;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto plan = std::make_unique<fault_plan>();
        plan->schedule(fault_site::selection, 3 * seed,
                       fault_kind::transient_solver);
        plan->schedule(fault_site::round, seed, fault_kind::alloc_failure);
        if (seed % 2 == 0)
            plan->schedule(fault_site::shard, (seed / 2) % 4 + 1,
                           fault_kind::poisoned_shard);
        plans.push_back(std::move(plan));
        const int si = seed % 2 == 0 ? 1 : 0;
        const int oi = seed % 3 == 0 ? 1 : 0;
        routing_request req =
            make_request(inst, korders[oi], kshard_counts[si]);
        req.options.engine.cancel.set_faults(plans.back().get());
        submit_options so;
        so.max_attempts = 2;
        handles.push_back(svc.submit(req, so));
        ref_of.push_back(&refs[oi][si]);
        // Interleave healthy traffic so fault unwinds race completions.
        handles.push_back(svc.submit(
            make_request(inst, merge_order::nearest_pair, kshard_counts[si])));
        ref_of.push_back(&refs[0][si]);
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
        route_result res = handles[i].wait();
        switch (res.status) {
            case route_status::ok:
                expect_same_tree(res, *ref_of[i],
                                 "fault matrix #" + std::to_string(i));
                break;
            case route_status::transient_fault:
            case route_status::data_fault:
            case route_status::degraded:
                EXPECT_FALSE(res.status_message.empty());
                break;
            default:
                FAIL() << "unexpected terminal status "
                       << res.status_message;
        }
    }
    // The pool survived every unwind: the service still routes cleanly.
    expect_same_tree(
        svc.submit(make_request(inst, merge_order::multi_merge, 1)).wait(),
        refs[1][0], "post-fault");
}

/// Concurrent cancellation: handles cancelled from the driving thread
/// while workers are mid-route (or before they start).  Whatever the
/// interleaving, each result is ok (bit-identical) or cancelled, the
/// scratch pool stays balanced, and the service remains usable.
TEST(RaceStress, ConcurrentCancellationIsClean) {
    const auto inst = stress_instance(72, 4, 5);
    route_result refs[2];  // one per merge order
    for (int oi = 0; oi < 2; ++oi) {
        refs[oi] = route(make_request(inst, korders[oi], 1));
        ASSERT_TRUE(refs[oi].ok()) << refs[oi].status_message;
    }

    service_options sopt;
    sopt.threads = 4;
    route_service svc(sopt);
    for (int round = 0; round < 3; ++round) {
        std::vector<route_handle> handles;
        // Orders alternate in pairs, so the cancelled (even) handles cover
        // both merge orders.
        for (int i = 0; i < 8; ++i)
            handles.push_back(
                svc.submit(make_request(inst, korders[(i / 2) % 2], 1)));
        for (std::size_t i = 0; i < handles.size(); i += 2)
            handles[i].cancel();
        for (std::size_t i = 0; i < handles.size(); ++i) {
            route_result res = handles[i].wait();
            if (res.status == route_status::ok)
                expect_same_tree(res, refs[(i / 2) % 2],
                                 "cancel round " + std::to_string(round));
            else
                EXPECT_EQ(res.status, route_status::cancelled)
                    << res.status_message;
        }
    }
    expect_same_tree(
        svc.submit(make_request(inst, merge_order::nearest_pair, 1)).wait(),
        refs[0], "post-cancel");
}

}  // namespace
}  // namespace astclk::core
