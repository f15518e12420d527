#include "core/merge_solver.hpp"

#include "rc/solve.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

namespace astclk::core {

namespace {

constexpr double klen_eps = 1e-9;     ///< layout units; die is ~1e5
constexpr double kdelay_eps = 1e-21;  ///< seconds; ~1e-9 ps

/// Feasible window for the delay difference D = e(beta, C_b) - e(alpha, C_a)
/// imposed by one shared group with intervals a (A side), b (B side):
/// merged spread <= bound  <=>  D in [a.hi - b.lo - bound, bound + a.lo - b.hi].
/// The expression order matters — FP addition is not associative.
geom::interval group_window(const geom::interval& a, const geom::interval& b,
                            double bound) {
    return {a.hi - b.lo - bound, bound + a.lo - b.hi};
}

/// Mutable copy of both sides' electrical state during planning.
struct working_state {
    topo::group_delays da, db;
    double ca = 0.0, cb = 0.0;
    std::vector<interior_snake> snakes;

    /// Accumulated snake length already planned on (root, child).
    [[nodiscard]] double planned_gamma(topo::node_id root,
                                       topo::node_id child) const {
        double g = 0.0;
        for (const auto& s : snakes)
            if (s.side_root == root && s.child == child) g += s.gamma;
        return g;
    }
};

/// Phase 2 of a merge: given the consistent D window, choose the split
/// (alpha, beta) — on the shortest connection when possible, with root-edge
/// snaking otherwise — and assemble the plan.
///
/// `soft_target`, when present, is the globally consistent delay difference
/// the soft-ledger mode prefers: the split lands as close to it as the
/// no-snake range allows, so consistency drift happens only in lieu of
/// snake wire.
merge_plan place_split(const rc::delay_model& model, const topo::tree_node& na,
                       const topo::tree_node& nb, working_state ws,
                       const geom::interval& window, int shared_count,
                       double violation, std::optional<double> soft_target) {
    const double span = na.arc.distance(nb.arc);

    double alpha = 0.0, beta = 0.0;
    bool solved = false;
    if (span > klen_eps) {
        double a_min = -std::numeric_limits<double>::infinity();
        double a_max = std::numeric_limits<double>::infinity();
        if (std::isfinite(window.hi)) {
            a_min = rc::split_for_target(model, span, ws.ca, ws.cb, window.hi)
                        .value_or(0.0);
        }
        if (std::isfinite(window.lo)) {
            a_max = rc::split_for_target(model, span, ws.ca, ws.cb, window.lo)
                        .value_or(span);
        }
        if (std::max(a_min, 0.0) <= std::min(a_max, span) + klen_eps) {
            const double s = std::clamp(a_min, 0.0, span);
            const double e = std::clamp(a_max, s, span);
            if (soft_target.has_value()) {
                // Soft-ledger rule: hit the consistent offset when free,
                // otherwise stop at the nearest end of the no-snake range.
                const double at =
                    rc::split_for_target(model, span, ws.ca, ws.cb,
                                         *soft_target)
                        .value_or(0.5 * (s + e));
                alpha = std::clamp(at, s, e);
            } else {
                // Balance heuristic: minimise the merged subtree's overall
                // delay spread (unimodal in alpha; ternary search).  This
                // turns the SDR freedom of disjoint-group merges into fewer
                // future snakes.
                const geom::interval oa = ws.da.overall();
                const geom::interval ob = ws.db.overall();
                const auto spread = [&](double al) {
                    const double ea = model.edge_delay(al, ws.ca);
                    const double eb = model.edge_delay(span - al, ws.cb);
                    return std::max(oa.hi + ea, ob.hi + eb) -
                           std::min(oa.lo + ea, ob.lo + eb);
                };
                double ts = s, te = e;
                for (int i = 0; i < 80 && (te - ts) > klen_eps; ++i) {
                    const double m1 = ts + (te - ts) / 3.0;
                    const double m2 = te - (te - ts) / 3.0;
                    if (spread(m1) <= spread(m2))
                        te = m2;
                    else
                        ts = m1;
                }
                alpha = 0.5 * (ts + te);
            }
            beta = span - alpha;
            solved = true;
        }
    } else if (window.contains(0.0, kdelay_eps)) {
        alpha = beta = 0.0;
        solved = true;
    }

    if (!solved) {
        // Root-edge snaking: extend the side whose subtree is too fast.
        if (rc::delay_diff(model, span, ws.ca, ws.cb, span) >
            window.hi) {
            // Even alpha = span leaves D too high: lengthen the A edge.
            const double target = -window.hi;
            assert(target >= 0.0);
            alpha = rc::length_for_delay(model, target, ws.ca).value_or(span);
            alpha = std::max(alpha, span);
            beta = 0.0;
        } else if (window.lo < 0.0) {
            // A window inverted by less than kdelay_eps whose split bounds
            // still crossed: it lies inside [D(span), D(0)], so no snake is
            // needed — split at its midpoint.
            alpha = std::clamp(
                rc::split_for_target(model, span, ws.ca, ws.cb,
                                     0.5 * (window.lo + window.hi))
                    .value_or(0.0),
                0.0, span);
            beta = span - alpha;
        } else {
            // Even alpha = 0 leaves D too low: lengthen the B edge.
            const double target = window.lo;
            beta = rc::length_for_delay(model, target, ws.cb).value_or(span);
            beta = std::max(beta, span);
            alpha = 0.0;
        }
    }

    merge_plan p;
    p.alpha = alpha;
    p.beta = beta;
    p.snakes = std::move(ws.snakes);
    p.shared_groups = shared_count;
    p.violation = violation;
    p.cost = alpha + beta;
    for (const auto& s : p.snakes) p.cost += s.gamma;
    p.new_cap = ws.ca + ws.cb + model.wire_cap(alpha + beta);
    const double ea = model.edge_delay(alpha, ws.ca);
    const double eb = model.edge_delay(beta, ws.cb);
    p.delays = topo::group_delays::merged(ws.da, ea, ws.db, eb);
    p.arc = na.arc.expanded(alpha + klen_eps)
                .intersect(nb.arc.expanded(beta + klen_eps));
    assert(!p.arc.empty());
    return p;
}

}  // namespace

std::string skew_spec::validate(topo::group_id num_groups) const {
    std::ostringstream err;
    // Negated comparisons: NaN fails every ordering test.
    if (!(default_bound >= 0.0)) {
        err << "default bound " << default_bound << " is not >= 0";
        return err.str();
    }
    std::vector<char> seen(static_cast<std::size_t>(std::max(num_groups, 0)));
    for (const auto& [g, b] : overrides) {
        if (g < 0 || g >= num_groups) {
            err << "override for group " << g << " outside [0, " << num_groups
                << ')';
            return err.str();
        }
        if (!(b >= 0.0)) {
            err << "bound " << b << " of group " << g << " is not >= 0";
            return err.str();
        }
        if (seen[static_cast<std::size_t>(g)]++ != 0) {
            err << "group " << g << " is overridden twice";
            return err.str();
        }
    }
    return {};
}

std::optional<merge_plan> merge_solver::plan(const topo::clock_tree& t,
                                             topo::node_id a,
                                             topo::node_id b) const {
    return solve(t, a, b, /*forced=*/false);
}

merge_plan merge_solver::plan_forced(const topo::clock_tree& t, topo::node_id a,
                                     topo::node_id b) const {
    auto p = solve(t, a, b, /*forced=*/true);
    assert(p.has_value());
    return *p;
}

std::optional<merge_plan> merge_solver::solve(const topo::clock_tree& t,
                                              topo::node_id a, topo::node_id b,
                                              bool forced) const {
    const topo::tree_node& na = t.node(a);
    const topo::tree_node& nb = t.node(b);

    working_state ws{na.delays, nb.delays, na.subtree_cap, nb.subtree_cap, {}};
    const std::vector<topo::group_id> shared = ws.da.shared_with(ws.db);

    // --- Exact ledger mode (zero intra-group skew): offsets between
    // co-resident groups are globally consistent by construction, so the
    // conflict machinery below is unnecessary: the window is either
    // unconstrained (first contact between two offset components — the
    // router's free choice, bound at commit) or a single point read off
    // the ledger.
    if (mode_ == consistency_mode::exact) {
        const topo::group_id rep_a = ws.da.entries().front().first;
        const topo::group_id rep_b = ws.db.entries().front().first;
        geom::interval window = geom::interval::all();
        if (ledger_->same(rep_a, rep_b)) {
            const double d_req = ws.da.find(rep_a)->lo -
                                 ws.db.find(rep_b)->lo -
                                 ledger_->offset(rep_a, rep_b);
            window = geom::interval::at(d_req);
#ifndef NDEBUG
            // Every shared group must demand the same difference — exactly
            // the consistency the ledger guarantees.
            for (topo::group_id g : shared) {
                const double dg = ws.da.find(g)->lo - ws.db.find(g)->lo;
                assert(std::fabs(dg - d_req) < 1e-15);
            }
#endif
        }
        return place_split(model_, na, nb, std::move(ws), window,
                           static_cast<int>(shared.size()), 0.0, std::nullopt);
    }

    // --- Phase 1: make the per-group windows mutually consistent ----------
    //
    // With zero intra-group bounds every window is a point (the exact DME
    // target); several shared groups conflict when their points differ.
    // Interior snaking (Fig. 5 / Eq. 5.2) shifts one group's window until
    // the intersection is non-empty.
    geom::interval window = geom::interval::all();
    double residual = 0.0;

    const auto compute_window = [&]() {
        geom::interval w = geom::interval::all();
        for (topo::group_id g : shared) {
            const geom::interval* ia = ws.da.find(g);
            const geom::interval* ib = ws.db.find(g);
            w = w.intersect(group_window(*ia, *ib, spec_.bound(g)));
        }
        return w;
    };

    // Attempt an interior snake on `root`'s direct child containing
    // `target` but not `avoid`; returns true and updates ws on success.
    const auto try_interior_snake = [&](topo::node_id root,
                                        topo::group_delays& side_delays,
                                        double& side_cap, topo::group_id target,
                                        topo::group_id avoid,
                                        double delta) -> bool {
        const topo::tree_node& r = t.node(root);
        if (r.is_leaf()) return false;
        for (int which = 0; which < 2; ++which) {
            const topo::node_id child_id = (which == 0) ? r.left : r.right;
            const topo::node_id sib_id = (which == 0) ? r.right : r.left;
            const topo::tree_node& child = t.node(child_id);
            const topo::tree_node& sib = t.node(sib_id);
            if (child.delays.find(target) == nullptr) continue;
            if (child.delays.find(avoid) != nullptr) continue;  // ineffective
            // Legality: snaking the child edge must not break frozen
            // alignments, i.e. no group may straddle the child boundary.
            if (!child.delays.disjoint_from(sib.delays)) continue;
            const double base_edge =
                ((which == 0) ? r.edge_left : r.edge_right) +
                ws.planned_gamma(root, child_id);
            const auto gamma = rc::snake_for_extra_delay(
                model_, base_edge, child.subtree_cap, delta);
            if (!gamma.has_value()) continue;
            ws.snakes.push_back({root, child_id, *gamma, delta});
            for (topo::group_id g2 : child.delays.groups()) {
                const geom::interval* iv = side_delays.find(g2);
                assert(iv != nullptr);
                side_delays.set(g2, iv->shifted(delta));
            }
            side_cap += model_.wire_cap(*gamma);
            return true;
        }
        return false;
    };

    const int max_iters = 2 * static_cast<int>(shared.size()) + 2;
    for (int iter = 0; iter <= max_iters; ++iter) {
        window = compute_window();
        if (!window.empty(kdelay_eps)) {
            residual = 0.0;
            break;
        }
        // Identify the most conflicting pair of groups.
        topo::group_id g_lo = shared.front(), g_hi = shared.front();
        double max_lo = -std::numeric_limits<double>::infinity();
        double min_hi = std::numeric_limits<double>::infinity();
        for (topo::group_id g : shared) {
            const geom::interval w =
                group_window(*ws.da.find(g), *ws.db.find(g), spec_.bound(g));
            if (w.lo > max_lo) {
                max_lo = w.lo;
                g_lo = g;
            }
            if (w.hi < min_hi) {
                min_hi = w.hi;
                g_hi = g;
            }
        }
        residual = max_lo - min_hi;
        if (iter == max_iters) break;
        const double delta = residual;
        // Shift W_{g_lo} down by delaying group g_lo on the B side, or
        // W_{g_hi} up by delaying group g_hi on the A side.
        if (try_interior_snake(b, ws.db, ws.cb, g_lo, g_hi, delta)) continue;
        if (try_interior_snake(a, ws.da, ws.ca, g_hi, g_lo, delta)) continue;
        if (!forced) return std::nullopt;
        break;  // forced: meet at the minimax point below
    }

    double violation = 0.0;
    if (window.empty(kdelay_eps)) {
        if (!forced) return std::nullopt;
        // Minimax compromise: halve the worst violation across windows.
        double max_lo = -std::numeric_limits<double>::infinity();
        double min_hi = std::numeric_limits<double>::infinity();
        for (topo::group_id g : shared) {
            const geom::interval w =
                group_window(*ws.da.find(g), *ws.db.find(g), spec_.bound(g));
            max_lo = std::max(max_lo, w.lo);
            min_hi = std::min(min_hi, w.hi);
        }
        const double mid = 0.5 * (max_lo + min_hi);
        window = {mid, mid};
        violation = residual;
    }

    // Soft-ledger mode: prefer the globally consistent offset whenever the
    // no-snake range allows it; use the median over group pairs so a few
    // drifted groups cannot hijack the target.
    std::optional<double> soft_target;
    if (mode_ == consistency_mode::soft) {
        const topo::group_id rep_a = ws.da.entries().front().first;
        const topo::group_id rep_b = ws.db.entries().front().first;
        if (ledger_->same(rep_a, rep_b)) {
            std::vector<double> cand;
            for (const auto& [g, iva] : ws.da.entries()) {
                for (const auto& [h, ivb] : ws.db.entries()) {
                    cand.push_back(iva.mid() - ivb.mid() -
                                   ledger_->offset(g, h));
                }
            }
            std::nth_element(cand.begin(), cand.begin() + cand.size() / 2,
                             cand.end());
            soft_target = cand[cand.size() / 2];
        }
    }

    return place_split(model_, na, nb, std::move(ws), window,
                       static_cast<int>(shared.size()), violation,
                       soft_target);
}

topo::node_id merge_solver::commit(topo::clock_tree& t, topo::node_id a,
                                   topo::node_id b, const merge_plan& p) const {
    // Bind newly co-resident offset components before mutating the tree.
    if (ledger_ != nullptr && mode_ != consistency_mode::windowed) {
        const topo::group_id rep_a = t.node(a).delays.entries().front().first;
        const topo::group_id rep_b = t.node(b).delays.entries().front().first;
        if (!ledger_->same(rep_a, rep_b)) {
            const double off = p.delays.find(rep_a)->lo -
                               p.delays.find(rep_b)->lo;
            ledger_->bind(rep_a, rep_b, off);
        }
    }
    for (const auto& s : p.snakes) {
        topo::tree_node& r = t.node(s.side_root);
        if (s.child == r.left)
            r.edge_left += s.gamma;
        else {
            assert(s.child == r.right);
            r.edge_right += s.gamma;
        }
        r.subtree_cap += model_.wire_cap(s.gamma);
        const topo::tree_node& child = t.node(s.child);
        for (topo::group_id g : child.delays.groups()) {
            const geom::interval* iv = r.delays.find(g);
            assert(iv != nullptr);
            r.delays.set(g, iv->shifted(s.delay_shift));
        }
    }
    return t.add_internal(a, b, p.arc, p.alpha, p.beta, p.new_cap, p.delays);
}

}  // namespace astclk::core
