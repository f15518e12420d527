#include "core/engine.hpp"

#include "core/audit.hpp"
#include "core/dary_heap.hpp"
#include "core/plan_kernels.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>


namespace astclk::core {

/// The buffers behind engine_scratch: everything a reduce run allocates
/// that is independent of the instance being routed.  reset() fully
/// reinitialises the *contents* while keeping the capacity, so a reused
/// scratch produces bit-identical runs and merely skips the allocations.
struct engine_scratch::impl {
    struct sel_entry {
        double key;   ///< ordering key: distance lower bound or cached cost
        double dist;  ///< arc distance (stats baseline)
        topo::node_id a, b;
        std::uint32_t gen;  ///< gen[a] at push; mismatch = stale
        bool cached;        ///< key is the true plan cost
    };
    struct rad_entry {
        double dist;
        topo::node_id a;
        std::uint32_t gen;
    };

    /// One speculative plan() job: a pair drained off the heap top, the
    /// generation stamps taken at dispatch, and the slot its result is
    /// written into (each job writes only its own slot — the determinism
    /// rule of executor.hpp).
    struct spec_job {
        topo::node_id a, b;  ///< solve orientation: alpha goes to `a`
        std::uint32_t gen_a, gen_b;
        std::optional<merge_plan> plan;
    };

    std::unordered_set<std::uint64_t> banned;
    /// id -> number of banned pairs the id participates in.  A pair can be
    /// banned only if *both* endpoints have nonzero degree, so the NN hot
    /// loops answer almost every ban probe with two array loads instead of
    /// a hash walk (bans are rare: one per rejected pair).  Grown lazily by
    /// ban_pair(); ids beyond the vector have degree zero by construction.
    std::vector<std::uint32_t> ban_deg;
    pair_cost_cache cost_cache;
    plan_cache plans;  ///< generation-stamped cross-step plan memo
    std::vector<topo::node_id> nn_to;  ///< id -> current NN (knull: none)
    std::vector<double> nn_dist;       ///< id -> distance to nn_to
    std::vector<std::uint32_t> gen;    ///< id -> generation counter
    std::vector<std::vector<topo::node_id>> rev;  ///< id -> roots whose NN it is
    std::unordered_set<topo::node_id> starved;    ///< all partners banned
    std::vector<sel_entry> heap;    ///< selection min-heap (4-ary, dary_heap)
    std::vector<rad_entry> radius;  ///< influence-radius max-heap (4-ary)
    // Speculation buffers: the top-k entries drained for peeking and the
    // plan jobs fanned out per step (reused across steps and runs).
    std::vector<sel_entry> spec_peek;
    std::vector<spec_job> spec_jobs;
    // Multi-merge round buffers (slot-indexed NN records, pre-solved plans).
    std::vector<std::pair<topo::node_id, double>> round_nn;
    std::vector<std::optional<merge_plan>> round_plans;
    // Plan-kernel buffers: the pair/result/fallback-count arrays the
    // chunked solve_plan_batch dispatches write into (disjoint slots per
    // chunk, so parallel chunks stay deterministic).
    std::vector<std::pair<topo::node_id, topo::node_id>> kernel_pairs;
    std::vector<std::optional<merge_plan>> kernel_out;
    std::vector<int> kernel_fb;
    // Per-step work lists reused across the run (integrate's affected
    // roots, pop_cheapest's equal-key losers): both are cleared before
    // use, so reuse only spares the per-call allocation.
    std::vector<topo::node_id> affected;
    std::vector<sel_entry> losers;

    /// Reinitialise for a run over a tree that currently has `ids` nodes.
    void reset(std::size_t ids) {
        banned.clear();
        ban_deg.clear();
        cost_cache.clear();
        plans.clear();
        starved.clear();
        heap.clear();
        radius.clear();
        spec_peek.clear();
        spec_jobs.clear();
        kernel_pairs.clear();
        kernel_out.clear();
        kernel_fb.clear();
        nn_to.assign(ids, topo::knull_node);
        nn_dist.assign(ids, 0.0);
        gen.assign(ids, 0);
        if (rev.size() < ids) rev.resize(ids);
        for (auto& r : rev) r.clear();
    }
};

engine_scratch::engine_scratch() : p_(std::make_unique<impl>()) {}
engine_scratch::~engine_scratch() = default;
engine_scratch::engine_scratch(engine_scratch&&) noexcept = default;
engine_scratch& engine_scratch::operator=(engine_scratch&&) noexcept = default;

namespace {

constexpr double kcost_slack = 1e-9;  // layout units

using sel_entry = engine_scratch::impl::sel_entry;
using rad_entry = engine_scratch::impl::rad_entry;

struct sel_order {  // min-heap on (key, a, b)
    bool operator()(const sel_entry& x, const sel_entry& y) const {
        if (x.key != y.key) return x.key > y.key;
        if (x.a != y.a) return x.a > y.a;
        return x.b > y.b;
    }
};
struct rad_order {  // max-heap on dist
    bool operator()(const rad_entry& x, const rad_entry& y) const {
        return x.dist < y.dist;
    }
};

// The heaps are 4-ary implicit heaps over the scratch vectors
// (dary_heap.hpp).  Pop order under sel_order — a *total* order on
// (key, a, b) — is the sorted drain of the multiset regardless of arity,
// so the switch from the former std::push_heap/pop_heap binary layout is
// bit-identical by construction (and asserted by tests/test_dary_heap.cpp);
// rad_order ties are resolved arbitrarily, but current_radius only reads
// the dist *value*, which is the same for every tied top.
template <class Cmp, class T>
void heap_push(std::vector<T>& h, const T& e) {
    dary_push<Cmp>(h, e);
}
template <class Cmp, class T>
void heap_pop(std::vector<T>& h) {
    dary_pop<Cmp>(h);
}

/// Inlined ban predicate (no std::function on the hot path): the packed
/// pair key carries both endpoint ids (pair_key, nn_index.hpp), so the
/// degree table short-circuits the hash walk whenever either endpoint has
/// never been part of a ban — the overwhelmingly common case, since bans
/// accrue one rejected pair at a time while the NN loops probe every
/// candidate pair they scan.  Exact: a pair is in `bans` only if both
/// endpoints' degrees are nonzero (ban_pair bumps both).
struct ban_table_fast {
    const std::unordered_set<std::uint64_t>* bans;
    const std::vector<std::uint32_t>* deg;
    [[nodiscard]] bool operator()(std::uint64_t k) const {
        const auto hi = static_cast<std::size_t>(k >> 32);
        if (hi >= deg->size()) return false;  // id newer than every ban
        if ((*deg)[hi] == 0 ||
            (*deg)[static_cast<std::size_t>(k & 0xffffffffu)] == 0)
            return false;
        return bans->count(k) != 0;
    }
};

/// Record a banned pair: the hash set answers exact probes, the degree
/// table powers ban_table_fast's short-circuit.  The degree vector grows
/// lazily to the larger endpoint (merged roots mint fresh ids mid-run).
void ban_pair(engine_scratch::impl& s, topo::node_id a, topo::node_id b) {
    s.banned.insert(pair_key(a, b));
    const auto need = static_cast<std::size_t>(std::max(a, b)) + 1;
    if (s.ban_deg.size() < need) s.ban_deg.resize(need, 0);
    ++s.ban_deg[static_cast<std::size_t>(a)];
    ++s.ban_deg[static_cast<std::size_t>(b)];
}

/// Nearest unbanned partner of `i` — the one NN query of both merge
/// orders.  A pair can be banned only if *both* endpoints have nonzero ban
/// degree, so a centre that takes part in no ban runs with the fully
/// inlined no_bans predicate and skips every per-candidate probe; a
/// centre that does carry bans gets the degree-pruned probe.  Almost every
/// query qualifies for the former.  Reads the ban state only, so
/// concurrent queries between commits are safe.
template <class Index>
std::optional<std::pair<topo::node_id, double>> nearest_unbanned(
    const Index& idx, const engine_scratch::impl& s, topo::node_id i) {
    const auto si = static_cast<std::size_t>(i);
    if (si >= s.ban_deg.size() || s.ban_deg[si] == 0)
        return idx.nearest_if(i, no_bans{});
    return idx.nearest_if(i, ban_table_fast{&s.banned, &s.ban_deg});
}

/// Solve `pairs` through the batch kernels in kplan_lanes chunks, fanned
/// over `exec` when present (null runs inline).  Each chunk writes its
/// plans into `out` and its fallback count into `fb` at disjoint slots, so
/// the result is deterministic under any schedule.  Books the kernel
/// counters.
void solve_chunks(const merge_solver& solver, const topo::clock_tree& t,
                  task_executor* exec,
                  const std::vector<std::pair<topo::node_id, topo::node_id>>&
                      pairs,
                  std::optional<merge_plan>* out, std::vector<int>& fb,
                  engine_stats& st) {
    const std::size_t chunks = (pairs.size() + kplan_lanes - 1) / kplan_lanes;
    fb.assign(chunks, 0);
    run_indexed(exec, chunks, [&](std::size_t c) {
        const std::size_t lo = c * kplan_lanes;
        const std::size_t n = std::min(kplan_lanes, pairs.size() - lo);
        fb[c] = solve_plan_batch(solver, t, pairs.data() + lo, n, out + lo);
    });
    int total_fb = 0;
    for (const int f : fb) total_fb += f;
    st.kernel_fallbacks += total_fb;
    st.batch_planned += static_cast<int>(pairs.size()) - total_fb;
}

void note_plan(const merge_plan& p, double dist, engine_stats& st) {
    ++st.merges;
    if (p.shared_groups == 0)
        ++st.disjoint_merges;
    else if (p.shared_groups == 1)
        ++st.shared_merges;
    else {
        ++st.shared_merges;
        ++st.multi_shared_merges;
    }
    if (p.alpha + p.beta > dist + kcost_slack) ++st.root_snakes;
    st.interior_snakes += static_cast<int>(p.snakes.size());
    st.snake_wire += p.cost - dist;
    if (p.violation > 0.0) {
        ++st.forced_merges;
        st.worst_violation = std::max(st.worst_violation, p.violation);
    }
}

/// Globally nearest active pair ignoring bans — the forced-merge fallback.
/// Deliberately the seed's literal O(n^2) scan (slot-major, first strictly
/// smaller distance wins): forced merges are rare endgame events with small
/// active sets, and keeping the scan verbatim preserves bit-identical
/// results with the pre-grid engine.
template <class Index>
std::pair<topo::node_id, topo::node_id> forced_nearest_pair(
    const topo::clock_tree& t, const Index& idx) {
    topo::node_id ba = topo::knull_node, bb = topo::knull_node;
    double bd = std::numeric_limits<double>::infinity();
    for (topo::node_id i : idx.active()) {
        for (topo::node_id j : idx.active()) {
            if (j <= i) continue;
            const double d = t.node(i).arc.distance(t.node(j).arc);
            if (d < bd) {
                bd = d;
                ba = i;
                bb = j;
            }
        }
    }
    return {ba, bb};
}

/// One nearest-pair reduction run: the heap-driven selection loop with
/// incremental neighbour maintenance, templated over the NN backend so the
/// ban predicate and distance loops fully inline for both.  All mutable
/// run state lives in the borrowed engine_scratch::impl.
template <class Index>
class nearest_reducer {
  public:
    nearest_reducer(const merge_solver& solver, const engine_options& opt,
                    topo::clock_tree& t, const std::vector<topo::node_id>& roots,
                    engine_stats& st, engine_scratch::impl& s)
        : solver_(solver), opt_(opt), t_(t), st_(st), s_(s), idx_(&t, roots),
          // The plan cache (and with it speculation) requires ledger-free
          // planning: ledger-backed plans read offsets that commits bind,
          // so a memoised plan could go stale without a generation moving.
          cache_on_(opt.plan_cache && solver.ledger() == nullptr),
          spec_on_(cache_on_ && opt.speculate_k > 0 &&
                   opt.executor != nullptr && opt.executor->concurrency() > 1),
          // The batch kernels' fast path requires ledger-free planning
          // (plan_kernels.hpp); a ledger-backed run would bounce every
          // lane anyway, so it calls plan() directly and keeps the kernel
          // counters at zero.
          batch_on_(solver.ledger() == nullptr) {
        s_.reset(t_.size());
        for (topo::node_id r : roots) recompute(r);
    }

    topo::node_id run() {
        const bool watched = opt_.cancel.armed();
        std::uint64_t step = 0;  // deterministic fault-site index
#ifdef ASTCLK_AUDIT
        std::uint64_t audit_step = 0;
#endif
        while (idx_.size() > 1) {
            // The checkpoint precedes the speculative dispatch, so a fired
            // token never fans out another plan batch; the batch below is a
            // blocking parallel_for, so no plan() task can outlive the step
            // that dispatched it — cancellation strands nothing.
            if (watched) {
                if (const route_status rs =
                        opt_.cancel.poll_at(fault_site::selection, ++step);
                    rs != route_status::ok)
                    interrupt(rs);
            }
#ifdef ASTCLK_AUDIT
            audit_checkpoint(++audit_step);
#endif
            if (spec_on_) speculate();
            const auto popped = pop_cheapest();
            if (!popped.has_value()) {
                forced_step();
                continue;
            }
            const auto [key, dist, a, b, gen, cached] = *popped;
            (void)gen;
            auto plan = obtain_plan(a, b);
            if (!plan.has_value()) {
                ban_pair(s_, a, b);
                ++st_.rejected_pairs;
                release_plans(a, b);  // terminal: banned pairs never return
                recompute(a);
                recompute(b);
                continue;
            }
            if (opt_.true_cost_ordering && !cached &&
                plan->order_cost > key + kcost_slack) {
                // Lazy re-key: the true cost (snaking and any deferral bias
                // included) exceeds the distance bound — another pair may
                // now be cheaper.  The solved plan is memoised here — the
                // re-keyed re-pop is the only consumer of an inline solve
                // (committed and banned pairs are released immediately), so
                // this is the one store the sequential path needs.
                s_.cost_cache.store(pair_key(a, b), plan->order_cost);
                heap_push<sel_order>(
                    s_.heap, {plan->order_cost, dist, a, b, gen_at(a), true});
                if (cache_on_)
                    s_.plans.store(ordered_pair_key(a, b), gen_at(a),
                                   gen_at(b), /*speculative=*/false,
                                   std::move(plan));
                continue;
            }
            const topo::node_id c = solver_.commit(t_, a, b, *plan);
            note_plan(*plan, dist, st_);
            release_plans(a, b);  // terminal: merged roots leave the set
            integrate(a, b, c);
        }
        finalize_stats();
        return idx_.active().front();
    }

  private:
    void grow(topo::node_id max_id) {
        const auto need = static_cast<std::size_t>(max_id) + 1;
        if (s_.nn_to.size() >= need) return;
        s_.nn_to.resize(need, topo::knull_node);
        s_.nn_dist.resize(need, 0.0);
        s_.gen.resize(need, 0);
        if (s_.rev.size() < need) s_.rev.resize(need);
    }

    [[nodiscard]] std::uint32_t gen_at(topo::node_id i) const {
        return s_.gen[static_cast<std::size_t>(i)];
    }

#ifdef ASTCLK_AUDIT
    /// Audit-build hook riding the selection checkpoint (DESIGN.md §12):
    /// cheap structural checks every step — both scratch heaps ordered,
    /// the stats books internally consistent, no plan-cache entry stamped
    /// from the future — and the full grid-vs-live-set cross-check (which
    /// walks every cell) every 64th step and on the first.
    void audit_checkpoint(std::uint64_t step) {
        audit::checkpoint("selection/heap",
                          audit::verify_heap_invariant<sel_order>(s_.heap));
        audit::checkpoint(
            "selection/radius",
            audit::verify_heap_invariant<rad_order>(s_.radius));
        audit::checkpoint("selection/stats", audit::verify_stats_books(st_));
        audit::checkpoint(
            "selection/plan-cache",
            audit::verify_plan_cache_generations(s_.plans, s_.gen));
        if constexpr (std::is_same_v<Index, grid_index>) {
            if (step % 64 == 1)
                audit::checkpoint("selection/grid",
                                  audit::verify_grid_vs_live_set(idx_, t_));
        }
    }
#endif


    /// Close the speculation books (wasted = dispatched − consumed); runs
    /// once per reduce, at the normal end and before an interrupt unwinds.
    void finalize_stats() {
        st_.wasted_speculation = st_.speculated_plans - st_.speculative_hits;
    }

    /// One plan solve: through the batch kernel for ledger-free solvers (a
    /// chunk of one: the SoA fast path still skips the scalar path's
    /// working-state copies and shared-group allocation), plan() for
    /// ledger-backed ones.
    std::optional<merge_plan> solve_one(topo::node_id a, topo::node_id b) {
        if (!batch_on_) return solver_.plan(t_, a, b);
        const std::pair<topo::node_id, topo::node_id> pr{a, b};
        std::optional<merge_plan> plan;
        const int fb = solve_plan_batch(solver_, t_, &pr, 1, &plan);
        st_.kernel_fallbacks += fb;
        st_.batch_planned += 1 - fb;
        return plan;
    }

    [[noreturn]] void interrupt(route_status rs) {
        finalize_stats();
        throw route_interrupt(rs, st_);
    }

    /// Drop both orientations of a pair from the plan memo — called at the
    /// pair's terminal event (commit or ban), after which it can never be
    /// proposed again.  Keeps the memo's live population proportional to
    /// the speculation in flight (wasted speculative entries for still-
    /// active pairs linger until their own terminal event or run end)
    /// rather than to the total merge count.
    void release_plans(topo::node_id a, topo::node_id b) {
        if (!cache_on_) return;
        s_.plans.erase(ordered_pair_key(a, b));
        s_.plans.erase(ordered_pair_key(b, a));
    }

    /// The plan for (a, b): served from the generation-stamped memo when
    /// the stamps still match (speculative results and re-keyed survivors),
    /// solved inline otherwise.  Inline solves are *not* stored here — a
    /// popped pair either commits, gets banned (both terminal) or re-keys,
    /// and only the re-key path can consult the memo again, so run() stores
    /// exactly there and the hot loop skips a store+erase round trip per
    /// merge.  Bit-identical to a direct plan() call: ledger-free plans
    /// depend only on the two subtrees, which are immutable while both
    /// roots are active, and stale stamps fall back to the inline solve.
    std::optional<merge_plan> obtain_plan(topo::node_id a, topo::node_id b) {
        if (!cache_on_) return solve_one(a, b);
        const std::uint64_t key = ordered_pair_key(a, b);
        if (plan_cache::entry* e = s_.plans.find(key, gen_at(a), gen_at(b))) {
            ++st_.plan_cache_hits;
            if (e->speculative && !e->consumed) ++st_.speculative_hits;
            e->consumed = true;
            return e->plan;  // copied: a re-keyed pair consults it twice
        }
        ++st_.plan_cache_misses;
        return solve_one(a, b);
    }

    /// Speculative top-k planning: drain the k cheapest *live* entries off
    /// the selection heap (an exact peek — stale entries met on the way
    /// are dropped, which selection would do anyway), push them straight
    /// back, and fan the plan() calls of every distinct pair that lacks a
    /// live memo entry out over the executor.  The heap's multiset of live
    /// entries is untouched and each job writes only its own slot, so the
    /// subsequent pops — and therefore trees, stats and tie-breaks — are
    /// bit-identical to the sequential engine; the only effect is that the
    /// pops' obtain_plan() calls hit the memo instead of solving inline.
    void speculate() {
        auto& peek = s_.spec_peek;
        auto& jobs = s_.spec_jobs;
        peek.clear();
        jobs.clear();
        const auto k = static_cast<std::size_t>(opt_.speculate_k);
        while (peek.size() < k && !s_.heap.empty()) {
            const sel_entry e = s_.heap.front();
            heap_pop<sel_order>(s_.heap);
            if (e.gen != gen_at(e.a)) continue;  // stale: drop for good
            peek.push_back(e);
        }
        for (const sel_entry& e : peek) heap_push<sel_order>(s_.heap, e);
        for (const sel_entry& e : peek) {
            // Jobs are keyed and solved in the entry's own (a, b)
            // orientation — exactly the call the pop would make — because
            // plans are orientation-sensitive (alpha goes to the first
            // root); when both orientations of one pair are live, each
            // gets its own entry.
            const std::uint64_t key = ordered_pair_key(e.a, e.b);
            if (s_.plans.find(key, gen_at(e.a), gen_at(e.b)) != nullptr)
                continue;
            bool queued = false;
            for (const auto& j : jobs)
                queued = queued || ordered_pair_key(j.a, j.b) == key;
            if (queued) continue;
            jobs.push_back({e.a, e.b, gen_at(e.a), gen_at(e.b),
                            std::nullopt});
        }
        if (jobs.empty()) return;
        // Speculation implies a ledger-free solver, so the jobs go through
        // the batch kernels, chunk-parallel over the executor.
        auto& pairs = s_.kernel_pairs;
        auto& outs = s_.kernel_out;
        pairs.resize(jobs.size());
        outs.assign(jobs.size(), std::nullopt);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            pairs[i] = {jobs[i].a, jobs[i].b};
        solve_chunks(solver_, t_, opt_.executor, pairs, outs.data(),
                     s_.kernel_fb, st_);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            jobs[i].plan = std::move(outs[i]);
        for (auto& j : jobs) {
            s_.plans.store(ordered_pair_key(j.a, j.b), j.gen_a, j.gen_b,
                           /*speculative=*/true, std::move(j.plan));
            ++st_.speculated_plans;
        }
    }

    /// Point i's nearest-neighbour record at (j, d); maintains the reverse
    /// lists, the generation counter, and both heaps.  j == knull means
    /// "no eligible partner" (all banned) and parks i in the starved set.
    void set_nn(topo::node_id i, topo::node_id j, double d) {
        const auto si = static_cast<std::size_t>(i);
        const topo::node_id old = s_.nn_to[si];
        if (old != topo::knull_node) {
            auto& r = s_.rev[static_cast<std::size_t>(old)];
            r.erase(std::find(r.begin(), r.end(), i));
        }
        s_.nn_to[si] = j;
        s_.nn_dist[si] = d;
        ++s_.gen[si];
        if (j == topo::knull_node) {
            s_.starved.insert(i);
            return;
        }
        // Starvation is an endgame phenomenon (every partner banned), so
        // the set is empty for almost the whole run — the one-load probe
        // spares a hash erase per neighbour update.
        if (!s_.starved.empty()) s_.starved.erase(i);
        s_.rev[static_cast<std::size_t>(j)].push_back(i);
        const auto cv = s_.cost_cache.lookup(pair_key(i, j));
        heap_push<sel_order>(s_.heap,
                             {cv.value_or(d), d, i, j, s_.gen[si],
                              cv.has_value()});
        heap_push<rad_order>(s_.radius, {d, i, s_.gen[si]});
    }

    void recompute(topo::node_id i) {
        const auto n = nearest_unbanned(idx_, s_, i);
        if (n.has_value())
            set_nn(i, n->first, n->second);
        else
            set_nn(i, topo::knull_node, 0.0);
    }

    /// Pop one live entry off the heap: skips superseded generations and
    /// lazily re-keys entries whose cached true cost exceeds their key.
    std::optional<sel_entry> pop_valid() {
        while (!s_.heap.empty()) {
            const sel_entry e = s_.heap.front();
            heap_pop<sel_order>(s_.heap);
            if (e.gen != gen_at(e.a)) continue;  // superseded or erased
            if (!e.cached) {
                if (const auto cv = s_.cost_cache.lookup(pair_key(e.a, e.b));
                    cv.has_value() && *cv > e.key) {
                    heap_push<sel_order>(s_.heap,
                                         {*cv, e.dist, e.a, e.b, e.gen, true});
                    continue;
                }
            }
            return e;
        }
        return std::nullopt;
    }

    /// Pop the cheapest live candidate; nullopt when every remaining pair
    /// is banned (the forced-merge endgame).  Equal-key groups are drained
    /// and resolved by the owner's active-slot order — exactly the
    /// tie-break of the former O(n) selection sweep, so the heap engine
    /// reproduces its trees bit-for-bit.  Losers go straight back on the
    /// heap (generations untouched), so the drain is O(group * log n).
    std::optional<sel_entry> pop_cheapest() {
        auto best = pop_valid();
        if (!best.has_value()) return std::nullopt;
        auto& losers = s_.losers;
        losers.clear();
        while (!s_.heap.empty() && s_.heap.front().key == best->key) {
            const sel_entry e = s_.heap.front();
            heap_pop<sel_order>(s_.heap);
            if (e.gen != gen_at(e.a)) continue;
            if (!e.cached) {
                if (const auto cv = s_.cost_cache.lookup(pair_key(e.a, e.b));
                    cv.has_value() && *cv > e.key) {
                    heap_push<sel_order>(s_.heap,
                                         {*cv, e.dist, e.a, e.b, e.gen, true});
                    continue;  // re-keyed above the group; out of contention
                }
            }
            if (idx_.slot_of(e.a) < idx_.slot_of(best->a)) {
                losers.push_back(*best);
                best = e;
            } else {
                losers.push_back(e);
            }
        }
        for (const sel_entry& l : losers) heap_push<sel_order>(s_.heap, l);
        return best;
    }

    /// Current nearest-neighbour influence radius: the largest up-to-date
    /// nn distance over active roots (stale heap tops are discarded; any
    /// survivor only overestimates, which is admissible).
    double current_radius() {
        while (!s_.radius.empty()) {
            const rad_entry e = s_.radius.front();
            if (e.gen == gen_at(e.a)) return e.dist;
            heap_pop<rad_order>(s_.radius);
        }
        return 0.0;
    }

    void erase_node(topo::node_id i) {
        idx_.erase(i);
        const auto si = static_cast<std::size_t>(i);
        const topo::node_id old = s_.nn_to[si];
        if (old != topo::knull_node) {
            auto& r = s_.rev[static_cast<std::size_t>(old)];
            r.erase(std::find(r.begin(), r.end(), i));
        }
        s_.nn_to[si] = topo::knull_node;
        ++s_.gen[si];  // invalidates every heap entry owned by i
        if (!s_.starved.empty()) s_.starved.erase(i);
    }

    /// Post-commit maintenance: merged pair out, new root in, and only the
    /// affected neighbourhoods touched —
    ///   * roots whose NN was a or b (reverse lists): full recompute;
    ///   * starved roots: the new root is their only unbanned partner;
    ///   * roots within the influence radius of c's arc: fold c in when
    ///     strictly closer (ties keep the older, smaller id — exactly the
    ///     backends' tie-break, since c has the largest id).
    void integrate(topo::node_id a, topo::node_id b, topo::node_id c) {
        grow(c);
        auto& affected = s_.affected;
        affected.clear();
        for (topo::node_id i : s_.rev[static_cast<std::size_t>(a)])
            if (i != b) affected.push_back(i);
        for (topo::node_id i : s_.rev[static_cast<std::size_t>(b)])
            if (i != a) affected.push_back(i);
        erase_node(a);
        erase_node(b);
        s_.rev[static_cast<std::size_t>(a)].clear();
        s_.rev[static_cast<std::size_t>(b)].clear();
        // The affected roots' reverse-list entries died with those clears;
        // void their records so the recompute below doesn't unlink twice.
        for (topo::node_id i : affected)
            s_.nn_to[static_cast<std::size_t>(i)] = topo::knull_node;
        idx_.insert(c);
        for (topo::node_id i : affected) recompute(i);
        if (!s_.starved.empty()) {
            const std::vector<topo::node_id> snapshot(s_.starved.begin(),
                                                      s_.starved.end());
            const geom::tilted_rect& arc_c = t_.node(c).arc;
            for (topo::node_id i : snapshot)
                set_nn(i, c, t_.node(i).arc.distance(arc_c));
        }
        const double radius = current_radius();
        idx_.for_each_within(
            t_.node(c).arc, radius, [&](topo::node_id i, double d) {
                if (i == c) return;
                const auto si = static_cast<std::size_t>(i);
                if (s_.nn_to[si] == c) return;  // already folded (duplicate)
                if (d < s_.nn_dist[si]) set_nn(i, c, d);
            });
        recompute(c);
    }

    /// Every remaining pair is banned: forced minimax merge of the globally
    /// nearest pair (keeps the algorithm total; the residual violation is
    /// recorded).
    void forced_step() {
        const auto [a, b] = forced_nearest_pair(t_, idx_);
        assert(a != topo::knull_node);
        const double bd = t_.node(a).arc.distance(t_.node(b).arc);
        const merge_plan p = solver_.plan_forced(t_, a, b);
        const topo::node_id c = solver_.commit(t_, a, b, p);
        note_plan(p, bd, st_);
        if (p.violation <= 0.0) ++st_.forced_merges;  // count the fallback
        integrate(a, b, c);
    }

    const merge_solver& solver_;
    const engine_options& opt_;
    topo::clock_tree& t_;
    engine_stats& st_;
    engine_scratch::impl& s_;
    Index idx_;
    const bool cache_on_;  ///< plan memo enabled (knob on, ledger-free)
    const bool spec_on_;   ///< top-k dispatch enabled (memo + wide executor)
    const bool batch_on_;  ///< SoA plan kernels (ledger-free solver)
};

template <class Index>
topo::node_id reduce_nearest_impl(const merge_solver& solver,
                                  const engine_options& opt,
                                  topo::clock_tree& t,
                                  const std::vector<topo::node_id>& roots,
                                  engine_stats& st, engine_scratch::impl& s) {
    nearest_reducer<Index> r(solver, opt, t, roots, st, s);
    return r.run();
}

/// Edahiro-style multi-merge rounds.  Per round, the nearest-neighbour
/// queries are pure reads over the tree and index and fan out across the
/// executor; the plan() calls of the round's candidates do too when the
/// solver carries no offset ledger (mutually-nearest pairs are
/// vertex-disjoint — each root has exactly one NN — so their plans read
/// disjoint subtrees, and commits of one pair cannot change another pair's
/// plan).  Ledger-backed solvers keep planning sequential, because plans
/// read offsets that earlier commits of the same round bind.  Commits are
/// always applied sequentially in the deterministic (d, a, b) candidate
/// order, so threaded rounds are bit-identical to sequential ones.
template <class Index>
topo::node_id reduce_multi_impl(const merge_solver& solver,
                                const engine_options& opt,
                                topo::clock_tree& t,
                                const std::vector<topo::node_id>& roots,
                                engine_stats& st, engine_scratch::impl& s) {
    Index idx(&t, roots);
    s.banned.clear();
    s.ban_deg.clear();
    task_executor* exec = opt.executor;
    // Pre-solving a round's plans before any of its commits is exact for
    // ledger-free solvers whether or not an executor is present: the
    // round's mutually-nearest pairs are vertex-disjoint, and a commit
    // mutates only its own pair's nodes (snake side-roots are the pair
    // roots themselves), so no plan reads state another commit of the
    // same round writes.  The batch kernels solve the round in
    // kplan_lanes chunks on that argument, fanned out when an executor is
    // present; ledger-backed solvers plan each pair just before its
    // commit.
    const bool pre_plans = solver.ledger() == nullptr;

    struct cand {
        topo::node_id a, b;
        double d;
    };
    std::vector<cand> cands;
    const bool watched = opt.cancel.armed();

    std::uint64_t round_ckpt = 0;  // per-run fault-site index (st.rounds
                                   // may carry accumulated shard counts)
    while (idx.size() > 1) {
        if (watched) {
            if (const route_status rs = opt.cancel.poll_at(
                    fault_site::round, ++round_ckpt);
                rs != route_status::ok)
                throw route_interrupt(rs, st);
        }
#ifdef ASTCLK_AUDIT
        // Round checkpoint: the multi-merge path keeps no selection heap
        // or plan memo, so the books are the auditable state here.
        audit::checkpoint("round/stats", audit::verify_stats_books(st));
#endif
        ++st.rounds;
        // Fresh nearest neighbours each round, slot-indexed so the fan-out
        // writes disjoint slots (deterministic regardless of schedule).
        const std::vector<topo::node_id>& act = idx.active();
        const std::size_t m = act.size();
        s.round_nn.assign(m, {topo::knull_node, 0.0});
        auto& nn = s.round_nn;
        run_indexed(exec, m, [&](std::size_t k) {
            if (const auto n = nearest_unbanned(idx, s, act[k])) nn[k] = *n;
        });

        // Mutually nearest pairs, cheapest first (Edahiro's multi-merge);
        // full (d, a, b) ordering keeps rounds deterministic across
        // backends, thread counts and runs.
        cands.clear();
        for (std::size_t k = 0; k < m; ++k) {
            const auto [j, d] = nn[k];
            const topo::node_id i = act[k];
            if (j == topo::knull_node || j < i) continue;  // dedup i < j
            const auto js = static_cast<std::size_t>(idx.slot_of(j));
            if (nn[js].first == i) cands.push_back({i, j, d});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const cand& x, const cand& y) {
                      if (x.d != y.d) return x.d < y.d;
                      if (x.a != y.a) return x.a < y.a;
                      return x.b < y.b;
                  });

        if (pre_plans) {
            auto& pairs = s.kernel_pairs;
            pairs.resize(cands.size());
            for (std::size_t k = 0; k < cands.size(); ++k)
                pairs[k] = {cands[k].a, cands[k].b};
            s.round_plans.assign(cands.size(), std::nullopt);
            solve_chunks(solver, t, exec, pairs, s.round_plans.data(),
                         s.kernel_fb, st);
        }

        bool merged_any = false;
        for (std::size_t k = 0; k < cands.size(); ++k) {
            const cand& cd = cands[k];
            auto plan = pre_plans ? std::move(s.round_plans[k])
                                  : solver.plan(t, cd.a, cd.b);
            if (!plan.has_value()) {
                ban_pair(s, cd.a, cd.b);
                ++st.rejected_pairs;
                continue;
            }
            const topo::node_id c = solver.commit(t, cd.a, cd.b, *plan);
            note_plan(*plan, cd.d, st);
            idx.erase(cd.a);
            idx.erase(cd.b);
            idx.insert(c);
            merged_any = true;
        }
        if (merged_any) continue;

        // No mutual pair merged this round: force progress on the globally
        // nearest (possibly banned) pair.
        const auto [ba, bb] = forced_nearest_pair(t, idx);
        const double bd = t.node(ba).arc.distance(t.node(bb).arc);
        const merge_plan p = solver.plan_forced(t, ba, bb);
        const topo::node_id c = solver.commit(t, ba, bb, p);
        note_plan(p, bd, st);
        idx.erase(ba);
        idx.erase(bb);
        idx.insert(c);
    }
    return idx.active().front();
}

}  // namespace

topo::node_id bottom_up_engine::reduce(topo::clock_tree& t,
                                       std::vector<topo::node_id> roots,
                                       engine_stats* stats,
                                       engine_scratch* scratch) const {
    assert(!roots.empty());
    engine_stats local;
    engine_stats& st = stats ? *stats : local;
    if (roots.size() == 1) return roots.front();
    std::unique_ptr<engine_scratch> own;  // fallback, built only if needed
    if (scratch == nullptr) {
        own = std::make_unique<engine_scratch>();
        scratch = own.get();
    }
    engine_scratch::impl& s = scratch->state();
    if (opt_.order == merge_order::multi_merge) {
        if (opt_.backend == nn_backend::linear)
            return reduce_multi_impl<nn_index>(solver_, opt_, t, roots, st, s);
        return reduce_multi_impl<grid_index>(solver_, opt_, t, roots, st, s);
    }
    if (opt_.backend == nn_backend::linear)
        return reduce_nearest_impl<nn_index>(solver_, opt_, t, roots, st, s);
    return reduce_nearest_impl<grid_index>(solver_, opt_, t, roots, st, s);
}

}  // namespace astclk::core
