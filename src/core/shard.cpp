#include "core/shard.hpp"

#include "core/router_detail.hpp"
#include "core/stitch.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace astclk::core {

namespace {

/// Sink tilted coordinates, precomputed once per partition: the
/// comparator and the slab hull both index this instead of re-deriving
/// to_tilted() per comparison (~log2(k) full passes otherwise).
using tilted_points = std::vector<geom::tilted_point>;

/// Bounding slab of the sinks in idx[lo, hi) as a tilted_rect (the hull of
/// their tilted points) — the geometry the bisection splits.
geom::tilted_rect slab_of(const tilted_points& tp,
                          const std::vector<std::int32_t>& idx,
                          std::size_t lo, std::size_t hi) {
    geom::tilted_rect slab = geom::tilted_rect::empty_set();
    for (std::size_t i = lo; i < hi; ++i) {
        const geom::tilted_point& p = tp[static_cast<std::size_t>(idx[i])];
        slab = slab.hull(geom::tilted_rect::at(p));
    }
    return slab;
}

/// Recursive bisection of idx[lo, hi) into k shards, emitted left to
/// right.  Splits the longer axis of the slab at the population-
/// proportional rank; nth_element with (coordinate, sink index) keeps the
/// split deterministic under duplicate coordinates.  k <= hi - lo holds on
/// every call (the caller clamps, and the proportional rank preserves it),
/// so no shard comes out empty.
void bisect(const tilted_points& tp, std::vector<std::int32_t>& idx,
            std::size_t lo, std::size_t hi, int k, shard_partition& out) {
    if (k <= 1) {
        std::vector<std::int32_t> shard(idx.begin() + static_cast<long>(lo),
                                        idx.begin() + static_cast<long>(hi));
        std::sort(shard.begin(), shard.end());
        out.push_back(std::move(shard));
        return;
    }
    const int kl = (k + 1) / 2;
    const int kr = k - kl;
    const geom::tilted_rect slab = slab_of(tp, idx, lo, hi);
    const bool by_u = slab.u().length() >= slab.v().length();
    const auto coord = [&](std::int32_t s) {
        const geom::tilted_point& p = tp[static_cast<std::size_t>(s)];
        return by_u ? p.u : p.v;
    };
    const std::size_t m = hi - lo;
    const std::size_t left =
        std::clamp(m * static_cast<std::size_t>(kl) /
                       static_cast<std::size_t>(k),
                   static_cast<std::size_t>(kl),
                   m - static_cast<std::size_t>(kr));
    std::nth_element(idx.begin() + static_cast<long>(lo),
                     idx.begin() + static_cast<long>(lo + left),
                     idx.begin() + static_cast<long>(hi),
                     [&](std::int32_t a, std::int32_t b) {
                         const double ca = coord(a), cb = coord(b);
                         if (ca != cb) return ca < cb;
                         return a < b;
                     });
    bisect(tp, idx, lo, lo + left, kl, out);
    bisect(tp, idx, lo + left, hi, kr, out);
}

}  // namespace

shard_partition partition_sinks(const topo::instance& inst, int shards) {
    const std::size_t n = inst.sinks.size();
    if (n == 0) return {};  // no sinks, no shards (never an empty shard)
    const int k = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(shards, 1)), n));
    std::vector<std::int32_t> idx(n);
    tilted_points tp(n);
    for (std::size_t i = 0; i < n; ++i) {
        idx[i] = static_cast<std::int32_t>(i);
        tp[i] = inst.sinks[i].loc.to_tilted();
    }
    shard_partition out;
    out.reserve(static_cast<std::size_t>(k));
    bisect(tp, idx, 0, n, k, out);
    return out;
}

int auto_shard_count(std::size_t population, int concurrency) {
    /// ~512 sinks per shard keeps each sub-reduction deep in the regime
    /// where the grid rings stay local and the heaps shallow (measured on
    /// the large family: the single-thread win peaks around 500-sink
    /// shards and erodes past ~2000); 192 is the floor below which
    /// per-shard fixed costs eat the gain, and below ~3 shards' worth of
    /// sinks the partition cannot pay for itself at all.
    constexpr std::size_t ktarget = 512;
    constexpr std::size_t kmin_population = 192;
    if (population < 3 * ktarget) return 1;
    std::size_t k = (population + ktarget / 2) / ktarget;
    const std::size_t cap = population / kmin_population;
    const auto conc =
        static_cast<std::size_t>(std::max(concurrency, 1));
    k = std::max(k, std::min(conc, cap));
    return static_cast<int>(std::min(k, cap));
}

int coarse_shard_count(std::size_t population, int concurrency) {
    /// The degradation ladder's rung-1 partition: ~128 sinks per shard —
    /// four times finer than auto_shard_count's sweet spot, trading stitch
    /// seams (solution fidelity) for much shallower sub-reductions when a
    /// deadline is chasing the run.  Always at least 2 shards (rung 1 must
    /// actually change the configuration), never more than the population.
    constexpr std::size_t ktarget = 128;
    std::size_t k = (population + ktarget / 2) / ktarget;
    const auto conc = static_cast<std::size_t>(std::max(concurrency, 1));
    k = std::max({k, conc, static_cast<std::size_t>(2)});
    return static_cast<int>(
        std::min(k, std::max<std::size_t>(population, 2)));
}

int effective_shard_count(const engine_options& opt,
                          const merge_solver& solver,
                          std::size_t population) {
    // Ledger-backed solvers share one offset state across every merge;
    // independent sub-reductions would each bind their own copy, so the
    // knob silently degrades to the monolithic front.
    if (solver.ledger() != nullptr) return 1;
    int k = opt.shards;
    if (k == 1) return 1;
    if (k < 1)
        k = auto_shard_count(
            population,
            opt.executor != nullptr ? opt.executor->concurrency() : 1);
    return static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(k, 1)),
        std::max<std::size_t>(population, 1)));
}

route_result sharded_route(const topo::instance& inst,
                           const merge_solver& solver,
                           const engine_options& opt, bool collapse_groups,
                           int shards, routing_context& ctx) {
    assert(shards >= 2);
    const shard_partition parts = partition_sinks(inst, shards);
    const std::size_t k = parts.size();
    if (k == 0)  // sink-less instance: nothing to reduce, nothing to stitch
        throw std::invalid_argument("sharded_route: instance has no sinks");

    struct shard_run {
        topo::clock_tree tree;
        topo::node_id root = topo::knull_node;
        engine_stats stats;
    };
    std::vector<shard_run> runs(k);

    // Per-shard engine configuration: the shard is the unit of
    // parallelism, so shard reduces run sequentially (no nested executor)
    // and never re-shard.  Each shard sub-reduce plans and commits only
    // on its own tree, so shard trees do not depend on how the shards are
    // scheduled.  When the shard loop fans out, the cancel probe is
    // dropped from the shard tokens — probes are test instrumentation
    // counted on the driving thread only — while the flag/deadline checks
    // stay live at every shard's checkpoints.
    engine_options sopt = opt;
    sopt.executor = nullptr;
    sopt.shards = 1;
    // Inner shard tokens never carry the fault plan: selection/round
    // checkpoint indexes are per-run, so concurrent shards would race for
    // the same scheduled events.  Shard-level faults fire at the per-shard
    // gate below, keyed by the partition index — deterministic under any
    // worker schedule.
    sopt.cancel.set_faults(nullptr);
    const bool fanned =
        opt.executor != nullptr && opt.executor->concurrency() > 1 && k > 1;
    if (fanned) sopt.cancel.set_probe(nullptr);
    const bottom_up_engine shard_engine(solver, sopt);

    // Each shard records its own stop status instead of throwing out of
    // the fan-out: the fanned run_jobs path completes every index after an
    // exception while the sequential fallback aborts at the first one, and
    // salvage semantics (which shards completed) must not depend on that.
    std::vector<route_status> shard_stop(k, route_status::ok);
    run_indexed(opt.executor, k, [&](std::size_t i) {
        shard_run& run = runs[i];
        cancel_token gate = opt.cancel;
        gate.set_probe(nullptr);  // gate polls stay out of probe counts
        const route_status pre = gate.poll_at(
            fault_site::shard, static_cast<std::uint64_t>(i) + 1);
        if (pre != route_status::ok) {
            shard_stop[i] = pre;
            return;
        }
        try {
            auto lease = ctx.scratch();
            auto leaves =
                detail::make_leaves(inst, run.tree, parts[i], collapse_groups);
            run.root = shard_engine.reduce(run.tree, std::move(leaves),
                                           &run.stats, lease.get());
        } catch (const route_interrupt& e) {
            shard_stop[i] = e.status();
        }
    });

    // Combine per-shard stops by severity: an explicit cancel wins (it is
    // never salvaged), then the poisoned-data fault, then transient, then
    // the deadline; ties and other statuses keep the first one seen.
    const auto severity = [](route_status s) {
        switch (s) {
            case route_status::ok: return 0;
            case route_status::deadline_exceeded: return 2;
            case route_status::transient_fault: return 3;
            case route_status::data_fault: return 4;
            case route_status::cancelled: return 5;
            default: return 1;
        }
    };
    route_status stop = route_status::ok;
    for (const route_status s : shard_stop)
        if (severity(s) > severity(stop)) stop = s;

    // Exact aggregation: every shard wrote its own stats block — the
    // completed ones fully, an interrupted one up to its last checkpoint,
    // never-started ones not at all — so summing the blocks once counts
    // each shard's work exactly once, cancellation unwinds included.
    engine_stats total;
    for (const shard_run& run : runs) total.accumulate(run.stats);
    total.shards = static_cast<int>(k);
#ifdef ASTCLK_AUDIT
    // Per-shard books and their fold, audited on the driving thread after
    // the fan-out joined (workers are quiesced; each block is stable).
    for (const shard_run& run : runs)
        audit::checkpoint("shard/stats",
                          audit::verify_stats_books(run.stats));
    audit::checkpoint("shard/total", audit::verify_stats_books(total));
#endif

    // Partial-result salvage (DESIGN.md §10): instead of discarding the
    // completed shard sub-trees on an interrupt, keep them, rebuild the
    // unfinished shards with a cheap greedy configuration under a *grace*
    // token (explicit cancel still honored; the fired deadline and the
    // fault plan are dropped — salvage must be allowed to finish), and
    // stitch as usual.  Only non-retryable stops salvage: an explicit
    // cancel always discards (the caller asked for the work to stop, not
    // for a cheaper answer), and a transient fault propagates so the
    // service's retry policy can recover it at *full* fidelity — stepping
    // down is the last resort, not the first response.
    int salvaged = 0;
    int greedy = 0;
    engine_options stitch_opt = opt;
    if (stop != route_status::ok) {
        const bool salvageable = stop == route_status::deadline_exceeded ||
                                 stop == route_status::data_fault;
        if (!opt.salvage || !salvageable)
            throw route_interrupt(stop, total);
        const cancel_token grace(opt.cancel.flag(),
                                 cancel_token::no_deadline());
        engine_options gopt = opt;
        gopt.executor = nullptr;
        gopt.shards = 1;
        gopt.true_cost_ordering = false;  // pure arc-distance: cheapest order
        gopt.cancel = grace;
        const bottom_up_engine rescue(solver, gopt);
        for (std::size_t i = 0; i < k; ++i) {
            shard_run& run = runs[i];
            if (run.root != topo::knull_node) {
                ++salvaged;
                continue;
            }
            // The interrupted partial tree is unusable (its live roots died
            // with the unwind) — rebuild the shard from fresh leaves.
            run.tree = topo::clock_tree{};
            engine_stats gst;
            auto lease = ctx.scratch();
            auto leaves =
                detail::make_leaves(inst, run.tree, parts[i], collapse_groups);
            run.root = rescue.reduce(run.tree, std::move(leaves), &gst,
                                     lease.get());
            total.accumulate(gst);
            ++greedy;
        }
        stitch_opt.cancel = grace;  // stitch under the grace token too
    }

    // Graft the shard trees into one arena in partition order (node ids —
    // and with them every downstream tie-break — depend only on the
    // partition, not on which worker reduced which shard), then stitch
    // the shard roots with the phase-2 associative machinery.  The stitch
    // keeps the caller's executor and the full cancel token (the grace
    // token when salvaging); an interrupt here carries `total`, which the
    // stitch was accumulating into.
    route_result res;
    topo::clock_tree t;
    std::vector<topo::node_id> roots;
    roots.reserve(k);
    std::size_t total_nodes = k - 1;  // the stitch adds k - 1 internal nodes
    for (const shard_run& run : runs) total_nodes += run.tree.size();
    t.reserve_nodes(total_nodes);
    for (const shard_run& run : runs)
        roots.push_back(t.absorb(run.tree) + run.root);
    topo::node_id root;
    {
        auto lease = ctx.scratch();
        root = stitch_roots(solver, stitch_opt, t, std::move(roots), &total,
                            lease.get());
    }
    res.stats = total;
    detail::finalize_result(inst, std::move(t), root, res);
    if (stop != route_status::ok) {
        res.status = route_status::degraded;
        res.status_message =
            std::string("salvaged ") + std::to_string(salvaged) + " of " +
            std::to_string(k) + " shard sub-trees after " + to_string(stop) +
            "; " + std::to_string(greedy) + " completed greedily";
        res.degradation.rung = degrade_rung::salvaged;
        res.degradation.reason =
            std::string("sharded reduce interrupted: ") + to_string(stop);
        res.degradation.salvaged_shards = salvaged;
        res.degradation.greedy_shards = greedy;
    }
    return res;
}

}  // namespace astclk::core
