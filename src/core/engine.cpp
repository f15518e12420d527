#include "core/engine.hpp"

#include "core/audit.hpp"
#include "core/dary_heap.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>


namespace astclk::core {

namespace {

/// Memo of true plan costs keyed by symmetric pair key (pair_key,
/// grid_index.hpp).  Lazy re-keying stores a pair's solved
/// `merge_plan::cost` here the first time it exceeds the arc distance
/// lower bound; subsequent selections of the pair are keyed by the
/// cached true cost instead of re-solving the plan.  Entries for merged
/// roots are never consulted again (node ids are unique), so no
/// invalidation is needed within one engine run.  Only the cost is kept:
/// a re-keyed pair selected a second time is solved again (DESIGN.md §3).
class pair_cost_cache {
  public:
    void store(std::uint64_t key, double cost) {
        costs_[key] = cost;
        // Degree table for the lookup fast path; re-storing a key
        // over-counts, which is harmless (the fast path only needs
        // "nonzero whenever any entry involves the id").
        const auto hi = static_cast<std::size_t>(key >> 32);
        if (deg_.size() <= hi) deg_.resize(hi + 1, 0);
        ++deg_[hi];
        ++deg_[static_cast<std::size_t>(key & 0xffffffffu)];
    }

    /// The cached true cost, or nullopt when the pair was never re-keyed.
    /// An entry for (a, b) can exist only if *both* ids were part of an
    /// earlier re-key, so two array loads answer almost every probe the
    /// hot set_nn path makes without walking the hash table (the pair key
    /// packs both ids).
    [[nodiscard]] std::optional<double> lookup(std::uint64_t key) const {
        const auto hi = static_cast<std::size_t>(key >> 32);
        if (hi >= deg_.size()) return std::nullopt;
        if (deg_[hi] == 0 ||
            deg_[static_cast<std::size_t>(key & 0xffffffffu)] == 0)
            return std::nullopt;
        const auto it = costs_.find(key);
        if (it == costs_.end()) return std::nullopt;
        return it->second;
    }

    /// Drop every entry (engine_scratch reuse between runs).
    void clear() {
        costs_.clear();
        deg_.clear();
    }

  private:
    std::unordered_map<std::uint64_t, double> costs_;
    std::vector<std::uint32_t> deg_;  ///< id -> entries the id is part of
};

}  // namespace

/// The buffers behind engine_scratch: everything a reduce run allocates
/// that is independent of the instance being routed.  reset() fully
/// reinitialises the *contents* while keeping the capacity, so a reused
/// scratch produces bit-identical runs and merely skips the allocations.
struct engine_scratch::impl {
    /// A root's selection record: owner `a`, its nearest unbanned partner
    /// `b`, and the pair's key.
    struct sel_entry {
        double key;   ///< ordering key: distance lower bound or cached cost
        double dist;  ///< arc distance (stats baseline)
        topo::node_id a, b;
        bool cached;  ///< key is the true plan cost
    };
    struct sel_before {  // min on (key, a, b)
        bool operator()(const sel_entry& x, const sel_entry& y) const {
            if (x.key != y.key) return x.key < y.key;
            if (x.a != y.a) return x.a < y.a;
            return x.b < y.b;
        }
    };
    struct rad_entry {
        double dist;  ///< nn_dist of owner `a`
        topo::node_id a;
    };
    struct rad_before {  // max on dist
        bool operator()(const rad_entry& x, const rad_entry& y) const {
            return x.dist > y.dist;
        }
    };

    /// One banned pair's edge in the flat ban list: `next[k]` continues
    /// the list of endpoint `end[k]`.
    struct ban_edge {
        topo::node_id end[2];
        std::uint32_t next[2];
    };
    static constexpr std::uint32_t kno_edge = UINT32_MAX;

    std::unordered_set<std::uint64_t> banned;  ///< the one ban probe
    /// Every banned pair once, threaded through both endpoints' lists
    /// (`ban_head[id]` is the newest edge at id).  Walked only when a root
    /// retires (retire_bans), never to answer a probe.
    std::vector<ban_edge> ban_edges;
    std::vector<std::uint32_t> ban_head;
    /// id -> banned pairs of id whose partner is still active.  A pair of
    /// active roots is banned only if *both* endpoints' live degrees are
    /// nonzero, so the NN hot loops answer almost every ban probe with two
    /// array loads instead of a hash walk; a root whose partners have all
    /// merged away is back to zero.  Grown lazily with ban_head by
    /// ban_pair(); ids beyond it have degree zero.
    std::vector<std::uint32_t> live_deg;
    pair_cost_cache cost_cache;
    std::vector<topo::node_id> nn_to;  ///< id -> current NN (knull: none)
    std::vector<double> nn_dist;       ///< id -> distance to nn_to
    std::vector<std::vector<topo::node_id>> rev;  ///< id -> roots whose NN it is
    std::unordered_set<topo::node_id> starved;    ///< all partners banned
    /// One entry per root that has a partner, updated in place
    /// (dary_heap.hpp): the selection heap keyed (key, a, b), and the
    /// influence-radius heap whose top is the largest nn_dist.
    addressable_heap<sel_entry, sel_before, &sel_entry::a> heap;
    addressable_heap<rad_entry, rad_before, &rad_entry::a> radius;
    // Multi-merge round buffers: slot-indexed NN records and the round's
    // pre-solved plans, one slot per candidate (disjoint slots, so a
    // fanned-out round stays deterministic).
    std::vector<std::pair<topo::node_id, double>> round_nn;
    std::vector<std::optional<merge_plan>> round_plans;
    // integrate's affected roots, reused across the run: cleared before
    // use, so reuse only spares the per-call allocation.
    std::vector<topo::node_id> affected;

    void clear_bans() {
        banned.clear();
        ban_edges.clear();
        ban_head.clear();
        live_deg.clear();
    }

    /// Reinitialise for a run over a tree that currently has `ids` nodes.
    void reset(std::size_t ids) {
        clear_bans();
        cost_cache.clear();
        starved.clear();
        heap.clear();
        radius.clear();
        nn_to.assign(ids, topo::knull_node);
        nn_dist.assign(ids, 0.0);
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

/// Inlined ban predicate (no std::function on the hot path): the packed
/// pair key carries both endpoint ids (pair_key, grid_index.hpp), so the
/// live degree table short-circuits the hash walk whenever either endpoint
/// has no ban with an active root — the common case, since bans accrue
/// one rejected pair at a time while the NN loops probe every candidate
/// pair they scan.  Exact for the pairs of active roots the queries
/// probe: such a pair is in `bans` only if it counts in both endpoints'
/// live degrees.
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

[[nodiscard]] std::size_t live_degree(const engine_scratch::impl& s,
                                      topo::node_id i) {
    const auto si = static_cast<std::size_t>(i);
    return si < s.live_deg.size() ? s.live_deg[si] : 0;
}

/// Ban the pair of active roots (a, b): the hash set answers exact probes,
/// the edge list and live degrees power the short-circuits.  A pair is
/// recorded once, so the degrees count distinct partners.  The per-id
/// vectors grow lazily to the larger endpoint (merged roots mint fresh
/// ids mid-run).
void ban_pair(engine_scratch::impl& s, topo::node_id a, topo::node_id b) {
    if (!s.banned.insert(pair_key(a, b)).second) return;
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    const std::size_t need = std::max(sa, sb) + 1;
    if (s.live_deg.size() < need) {
        s.live_deg.resize(need, 0);
        s.ban_head.resize(need, engine_scratch::impl::kno_edge);
    }
    const auto e = static_cast<std::uint32_t>(s.ban_edges.size());
    s.ban_edges.push_back({{a, b}, {s.ban_head[sa], s.ban_head[sb]}});
    s.ban_head[sa] = s.ban_head[sb] = e;
    ++s.live_deg[sa];
    ++s.live_deg[sb];
}

/// Root `i`, already erased from `idx`, merged away: each active partner
/// of a ban with `i` loses one live degree.  Over a run every edge is
/// walked at most once per endpoint.  Both merge orders call this for
/// every root they erase.
void retire_bans(engine_scratch::impl& s, const grid_index& idx,
                 topo::node_id i) {
    const auto si = static_cast<std::size_t>(i);
    if (si >= s.ban_head.size()) return;
    for (std::uint32_t e = s.ban_head[si];
         e != engine_scratch::impl::kno_edge;) {
        const engine_scratch::impl::ban_edge& be = s.ban_edges[e];
        const int k = be.end[0] == i ? 0 : 1;
        const topo::node_id p = be.end[1 - k];
        if (idx.slot_of(p) >= 0) --s.live_deg[static_cast<std::size_t>(p)];
        e = be.next[k];
    }
}

/// Nearest unbanned partner of `i` — the one NN query of both merge
/// orders, and the one place that picks how to answer it, by i's live
/// ban degree:
///  * zero: no candidate can be banned, so the query runs with the fully
///    inlined no_bans predicate and skips every probe — almost every
///    query qualifies;
///  * active - 1: every other active root is a banned partner, so there
///    is none, answered without a query;
///  * at least half the active set: one pass over the active set
///    (grid_index::nearest_scan_if), since the ring walk would visit most
///    roots anyway and meet a multi-cell arc once per cell;
///  * otherwise the ring walk with the degree-pruned probe.
/// Every branch returns the same answer.  `i` must be active.  Reads the
/// ban state only, so concurrent queries between commits are safe.
std::optional<std::pair<topo::node_id, double>> nearest_unbanned(
    const grid_index& idx, const engine_scratch::impl& s, topo::node_id i,
    nn_floor floor = {}) {
    assert(idx.slot_of(i) >= 0);
    const std::size_t deg = live_degree(s, i);
    if (deg == 0) return idx.nearest_if(i, no_bans{}, floor);
    if (deg + 1 == idx.size()) return std::nullopt;
    const ban_table_fast banned{&s.banned, &s.live_deg};
    if (2 * deg >= idx.size()) return idx.nearest_scan_if(i, banned, floor);
    return idx.nearest_if(i, banned, floor);
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
std::pair<topo::node_id, topo::node_id> forced_nearest_pair(
    const topo::clock_tree& t, const grid_index& idx) {
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
/// incremental neighbour maintenance.  All mutable run state lives in the
/// borrowed engine_scratch::impl.
class nearest_reducer {
  public:
    nearest_reducer(const merge_solver& solver, const engine_options& opt,
                    topo::clock_tree& t, const std::vector<topo::node_id>& roots,
                    engine_stats& st, engine_scratch::impl& s)
        : solver_(solver), opt_(opt), t_(t), st_(st), s_(s), idx_(&t, roots) {
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
            if (watched) {
                if (const route_status rs =
                        opt_.cancel.poll_at(fault_site::selection, ++step);
                    rs != route_status::ok)
                    throw route_interrupt(rs, st_);
            }
#ifdef ASTCLK_AUDIT
            audit_checkpoint(++audit_step);
#endif
            const auto selected = select_cheapest();
            if (!selected.has_value()) {
                forced_step();
                continue;
            }
            // The entry stays in the heap: every branch below replaces or
            // erases it.
            const auto [key, dist, a, b, cached] = *selected;
            auto plan = solver_.plan(t_, a, b);
            if (!plan.has_value()) {
                ban_pair(s_, a, b);
                ++st_.rejected_pairs;
                reject(a, b);
                continue;
            }
            if (opt_.true_cost_ordering && !cached &&
                plan->cost > key + kcost_slack) {
                // Lazy re-key: the true cost (snaking included) exceeds the
                // distance bound — another pair may now be cheaper.  Only
                // the cost is kept; the plan is solved again if the pair is
                // selected a second time (DESIGN.md §3).
                rekey(a, b, plan->cost);
                continue;
            }
            const topo::node_id c = solver_.commit(t_, a, b, *plan);
            note_plan(*plan, dist, st_);
            integrate(a, b, c);
        }
        return idx_.active().front();
    }

  private:
    void grow(topo::node_id max_id) {
        const auto need = static_cast<std::size_t>(max_id) + 1;
        if (s_.nn_to.size() >= need) return;
        s_.nn_to.resize(need, topo::knull_node);
        s_.nn_dist.resize(need, 0.0);
        if (s_.rev.size() < need) s_.rev.resize(need);
    }

#ifdef ASTCLK_AUDIT
    /// Audit-build hook riding the selection checkpoint (DESIGN.md §12):
    /// cheap structural checks every step — both heaps ordered with exact
    /// position maps, one selection and one radius entry per record, each
    /// naming the record's partner and distance, and the stats books
    /// internally consistent — and every 64th step (and the first) the
    /// full grid-vs-live-set cross-check, a linear-scan check that every
    /// record is its root's nearest unbanned partner, the invariant the
    /// rejection floors rely on, and a recount of every active root's live
    /// ban degree from the ban set, which the probe short-circuit and the
    /// starvation answer rely on.
    void audit_checkpoint(std::uint64_t step) {
        audit::checkpoint("selection/heap",
                          audit::verify_heap_invariant(s_.heap));
        audit::checkpoint("selection/radius",
                          audit::verify_heap_invariant(s_.radius));
        audit::checkpoint("selection/records",
                          audit::verify_selection_records(
                              s_.heap, s_.radius, idx_.active(), s_.nn_to,
                              s_.nn_dist));
        audit::checkpoint("selection/stats", audit::verify_stats_books(st_));
        if (step % 64 != 1) return;
        audit::checkpoint("selection/grid",
                          audit::verify_grid_vs_live_set(idx_, t_));
        audit::checkpoint("selection/nn",
                          audit::verify_nn_records(t_, idx_.active(), s_.nn_to,
                                                   s_.nn_dist, s_.banned));
        audit::checkpoint("selection/bans",
                          audit::verify_ban_degrees(idx_.active(), s_.banned,
                                                    s_.live_deg));
    }
#endif

    /// Point i's nearest-neighbour record at (j, d); maintains the reverse
    /// lists and both heap entries.  j == knull means "no eligible partner"
    /// (all banned) and parks i in the starved set.
    void set_nn(topo::node_id i, topo::node_id j, double d) {
        const auto si = static_cast<std::size_t>(i);
        const topo::node_id old = s_.nn_to[si];
        if (old != topo::knull_node) {
            auto& r = s_.rev[static_cast<std::size_t>(old)];
            r.erase(std::find(r.begin(), r.end(), i));
        }
        s_.nn_to[si] = j;
        s_.nn_dist[si] = d;
        if (j == topo::knull_node) {
            s_.heap.erase(si);
            s_.radius.erase(si);
            s_.starved.insert(i);
            return;
        }
        // Starvation is an endgame phenomenon (every partner banned), so
        // the set is empty for almost the whole run — the one-load probe
        // spares a hash erase per neighbour update.
        if (!s_.starved.empty()) s_.starved.erase(i);
        s_.rev[static_cast<std::size_t>(j)].push_back(i);
        const auto cv = s_.cost_cache.lookup(pair_key(i, j));
        s_.heap.set({cv.value_or(d), d, i, j, cv.has_value()});
        s_.radius.set({d, i});
    }

    /// Recompute i's record; `floor` skips candidates known to be banned.
    void recompute(topo::node_id i, nn_floor floor = {}) {
        const auto n = nearest_unbanned(idx_, s_, i, floor);
        if (n.has_value())
            set_nn(i, n->first, n->second);
        else
            set_nn(i, topo::knull_node, 0.0);
    }

    /// Records after banning the selected pair (a, b).  a's record (d, b)
    /// was a's nearest unbanned partner — the lexicographic minimum (d, id)
    /// over a's candidates — so every candidate at or below it is now
    /// banned and a's next partner lies above it: the query floors there
    /// and probes none of them.  b's record changes only if it named a,
    /// in which case it was b's minimum and floors the same way; any other
    /// record of b is still b's minimum, since the ban removed a candidate
    /// that was not.
    void reject(topo::node_id a, topo::node_id b) {
        const auto sa = static_cast<std::size_t>(a);
        const auto sb = static_cast<std::size_t>(b);
        assert(s_.nn_to[sa] == b);
        recompute(a, {s_.nn_dist[sa], b});
        if (s_.nn_to[sb] == a) recompute(b, {s_.nn_dist[sb], a});
    }

    /// Key the selected pair (a, b) by its true plan cost: a's entry, and
    /// b's when b's record names a, so every entry carries the key a
    /// later set_nn would give it.
    void rekey(topo::node_id a, topo::node_id b, double cost) {
        s_.cost_cache.store(pair_key(a, b), cost);
        const auto sa = static_cast<std::size_t>(a);
        const auto sb = static_cast<std::size_t>(b);
        s_.heap.set({cost, s_.nn_dist[sa], a, b, true});
        if (s_.nn_to[sb] == a) s_.heap.set({cost, s_.nn_dist[sb], b, a, true});
    }

    /// The cheapest candidate, left in the heap; nullopt when no root has
    /// an unbanned partner (the forced-merge endgame).  Entries tied on the
    /// top key are resolved by the owner's active-slot order — exactly the
    /// tie-break of the former O(n) selection sweep, so the heap engine
    /// reproduces its trees bit-for-bit.  Heap order puts every tied entry
    /// in a prefix below the top, so the walk reads the tie group only.
    [[nodiscard]] std::optional<sel_entry> select_cheapest() const {
        if (s_.heap.empty()) return std::nullopt;
        const sel_entry* best = &s_.heap.top();
        const double key = best->key;
        s_.heap.for_each_top(
            [key](const sel_entry& e) { return e.key == key; },
            [&](const sel_entry& e) {
                if (idx_.slot_of(e.a) < idx_.slot_of(best->a)) best = &e;
            });
        return *best;
    }

    /// Current nearest-neighbour influence radius: the largest nn distance
    /// over the active roots' records.
    [[nodiscard]] double current_radius() const {
        return s_.radius.empty() ? 0.0 : s_.radius.top().dist;
    }

    void erase_node(topo::node_id i) {
        idx_.erase(i);
        retire_bans(s_, idx_, i);
        const auto si = static_cast<std::size_t>(i);
        const topo::node_id old = s_.nn_to[si];
        if (old != topo::knull_node) {
            auto& r = s_.rev[static_cast<std::size_t>(old)];
            r.erase(std::find(r.begin(), r.end(), i));
        }
        s_.nn_to[si] = topo::knull_node;
        s_.heap.erase(si);
        s_.radius.erase(si);
        if (!s_.starved.empty()) s_.starved.erase(i);
    }

    /// Post-commit maintenance: merged pair out, new root in, and only the
    /// affected neighbourhoods touched —
    ///   * roots whose NN was a or b (reverse lists): full recompute;
    ///   * starved roots: the new root is their only unbanned partner;
    ///   * roots within the influence radius of c's arc: fold c in when
    ///     strictly closer (ties keep the older, smaller id — exactly the
    ///     index's tie-break, since c has the largest id).
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
    grid_index idx_;
};

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
topo::node_id reduce_multi_impl(const merge_solver& solver,
                                const engine_options& opt,
                                topo::clock_tree& t,
                                const std::vector<topo::node_id>& roots,
                                engine_stats& st, engine_scratch::impl& s) {
    grid_index idx(&t, roots);
    s.clear_bans();
    task_executor* exec = opt.executor;
    // Pre-solving a round's plans before any of its commits is exact for
    // ledger-free solvers whether or not an executor is present: the
    // round's mutually-nearest pairs are vertex-disjoint, and a commit
    // mutates only its own pair's nodes (snake side-roots are the pair
    // roots themselves), so no plan reads state another commit of the
    // same round writes.  The round's plan() calls fan out on that
    // argument when an executor is present; ledger-backed solvers plan
    // each pair just before its commit.
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
        // Round checkpoint: the multi-merge path keeps no selection heap,
        // so the books and the live ban degrees are the auditable state
        // here.
        audit::checkpoint("round/stats", audit::verify_stats_books(st));
        audit::checkpoint("round/bans",
                          audit::verify_ban_degrees(idx.active(), s.banned,
                                                    s.live_deg));
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
        // thread counts and runs.
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
            // One plan per candidate at its own slot: deterministic under
            // any schedule.
            s.round_plans.assign(cands.size(), std::nullopt);
            run_indexed(exec, cands.size(), [&](std::size_t k) {
                s.round_plans[k] = solver.plan(t, cands[k].a, cands[k].b);
            });
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
            retire_bans(s, idx, cd.a);
            retire_bans(s, idx, cd.b);
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
        retire_bans(s, idx, ba);
        retire_bans(s, idx, bb);
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
    if (opt_.order == merge_order::multi_merge)
        return reduce_multi_impl(solver_, opt_, t, roots, st, s);
    return nearest_reducer(solver_, opt_, t, roots, st, s).run();
}

}  // namespace astclk::core
