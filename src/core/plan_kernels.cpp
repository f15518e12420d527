#include "core/plan_kernels.hpp"

#include "core/solver_detail.hpp"
#include "rc/solve.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace astclk::core {

namespace {

// The scalar solver's own guards and window (solver_detail.hpp): the fast
// path must evaluate the very same definitions.
using detail::group_window;
using detail::kdelay_eps;
using detail::klen_eps;

/// Branch-free select: `c ? a : b` as a bitwise blend of the IEEE-754
/// representations.  Selecting between two already-computed doubles is
/// exact by construction — no arithmetic touches either value — so it is
/// bit-identical to the ternary operator for every input including NaN
/// and signed zero.  The point is codegen: a conditional FP *store*
/// (`x[j] = c ? v : x[j]`) compiles to a compare-and-branch whose
/// direction is data-dependent and near 50/50 in a ternary search, and
/// the mispredict penalty dominates the ~20 cheap FP ops per lane.  The
/// integer mask form lowers to setcc/neg/and/xor — straight-line code
/// with no branch to predict.
inline double select(bool c, double a, double b) {
    std::uint64_t ua;
    std::uint64_t ub;
    std::memcpy(&ua, &a, sizeof ua);
    std::memcpy(&ub, &b, sizeof ub);
    const std::uint64_t m = c ? ~std::uint64_t{0} : std::uint64_t{0};
    const std::uint64_t r = (ua & m) | (ub & ~m);
    double out;
    std::memcpy(&out, &r, sizeof out);
    return out;
}

/// The masked SoA ternary iteration (the balance heuristic of
/// place_split), extracted so the lane loop is a branch-free constant
/// trip count: the model-kind branch of edge_delay is hoisted to a
/// template parameter, inactive and padding lanes are gated per-lane
/// with bitwise *selects* (no control flow), and the convergence test
/// is a bitwise OR-reduction.  The per-lane arithmetic is
/// character-for-character the scalar loop's: a lane with
/// `act == false` keeps its bracket, so a converged (or non-ternary,
/// or padding) lane freezes exactly where the scalar early exit would
/// have left it, and the outer `!any` break fires on the same
/// iteration as the scalar loop's per-lane exit.
///
/// Kept out of line on purpose: inlined into solve_chunk (a function
/// with ~25 live lane arrays) the register allocator spills the
/// loop-carried state and the loop runs ~2x slower; as a standalone
/// function the lane chains stay in registers.  [[gnu::noinline]] is a
/// no-op attribute elsewhere, and correctness never depends on it.
template <bool kelmore>
[[gnu::noinline]] void ternary_iterate(std::size_t nl, double wr, double wc, const double* span,
                     const double* ca, const double* cb, const double* oa_lo,
                     const double* oa_hi, const double* ob_lo,
                     const double* ob_hi, const bool* tern, double* ts,
                     double* te) {
    for (int it = 0; it < 80; ++it) {
        unsigned any = 0;
        for (std::size_t j = 0; j < nl; ++j) {
            const double w = te[j] - ts[j];
            const bool act = tern[j] & (w > klen_eps);
            any |= static_cast<unsigned>(act);
            const double m1 = ts[j] + w / 3.0;
            const double m2 = te[j] - w / 3.0;
            const double r1 = span[j] - m1;
            const double r2 = span[j] - m2;
            const double ea1 = kelmore ? wr * m1 * (0.5 * wc * m1 + ca[j]) : m1;
            const double eb1 = kelmore ? wr * r1 * (0.5 * wc * r1 + cb[j]) : r1;
            const double ea2 = kelmore ? wr * m2 * (0.5 * wc * m2 + ca[j]) : m2;
            const double eb2 = kelmore ? wr * r2 * (0.5 * wc * r2 + cb[j]) : r2;
            const double s1 = std::max(oa_hi[j] + ea1, ob_hi[j] + eb1) -
                              std::min(oa_lo[j] + ea1, ob_lo[j] + eb1);
            const double s2 = std::max(oa_hi[j] + ea2, ob_hi[j] + eb2) -
                              std::min(oa_lo[j] + ea2, ob_lo[j] + eb2);
            // NaN note: a NaN spread makes s1 <= s2 false, so ts moves and
            // te stays — the same side the scalar if/else takes.
            const bool shrink_hi = s1 <= s2;
            te[j] = select(act & shrink_hi, m2, te[j]);
            ts[j] = select(act & !shrink_hi, m1, ts[j]);
        }
        if (!any) break;
    }
}

/// One chunk of at most kplan_width plans.  The structure mirrors the
/// scalar solve() + place_split() pair (merge_solver.cpp) with the
/// working-state copies removed: a fast lane's first window intersection
/// is non-empty, so the scalar conflict loop would break out immediately
/// without snaking — both delay maps and caps are read in place.
int solve_chunk(const merge_solver& solver, const topo::clock_tree& t,
                const std::pair<topo::node_id, topo::node_id>* pairs,
                std::size_t m, std::optional<merge_plan>* out) {
    assert(m <= kplan_width);
    const rc::delay_model& model = solver.model();
    const skew_spec& spec = solver.spec();
    const bool windowed = solver.mode() == consistency_mode::windowed;

    // SoA lane state, gathered for the lanes the fast path keeps.
    std::size_t lane[kplan_width];  // fast lane -> slot in pairs/out
    double au_lo[kplan_width], au_hi[kplan_width];  // arc of a (u axis)
    double av_lo[kplan_width], av_hi[kplan_width];  // arc of a (v axis)
    double bu_lo[kplan_width], bu_hi[kplan_width];  // arc of b (u axis)
    double bv_lo[kplan_width], bv_hi[kplan_width];  // arc of b (v axis)
    double ca[kplan_width], cb[kplan_width];        // subtree caps
    double win_lo[kplan_width], win_hi[kplan_width];
    int shared[kplan_width];

    // --- Kernel 2a: per-lane skew-feasibility window.  The two-pointer
    // walk visits the shared groups in ascending id order — the same
    // order (and therefore the same intersect sequence) as the scalar
    // shared_with() + compute_window() pair.
    int fallbacks = 0;
    std::size_t nf = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const auto [a, b] = pairs[i];
        bool fast = windowed;
        geom::interval w = geom::interval::all();
        int sh = 0;
        if (fast) {
            const auto& ea = t.node(a).delays.entries();
            const auto& eb = t.node(b).delays.entries();
            std::size_t x = 0, y = 0;
            while (x < ea.size() && y < eb.size()) {
                if (ea[x].first < eb[y].first) {
                    ++x;
                } else if (eb[y].first < ea[x].first) {
                    ++y;
                } else {
                    w = w.intersect(group_window(ea[x].second, eb[y].second,
                                                 spec.bound(ea[x].first)));
                    ++sh;
                    ++x;
                    ++y;
                }
            }
            fast = !w.empty(kdelay_eps);
        }
        if (!fast) {
            // Rare general path: ledger-backed modes, or an empty first
            // window (interior-snake repair / rejection) — the scalar
            // solver handles the lane verbatim.
            out[i] = solver.plan(t, a, b);
            ++fallbacks;
            continue;
        }
        const topo::tree_node& na = t.node(a);
        const topo::tree_node& nb = t.node(b);
        lane[nf] = i;
        au_lo[nf] = na.arc.u().lo;
        au_hi[nf] = na.arc.u().hi;
        av_lo[nf] = na.arc.v().lo;
        av_hi[nf] = na.arc.v().hi;
        bu_lo[nf] = nb.arc.u().lo;
        bu_hi[nf] = nb.arc.u().hi;
        bv_lo[nf] = nb.arc.v().lo;
        bv_hi[nf] = nb.arc.v().hi;
        ca[nf] = na.subtree_cap;
        cb[nf] = nb.subtree_cap;
        win_lo[nf] = w.lo;
        win_hi[nf] = w.hi;
        shared[nf] = sh;
        ++nf;
    }
    if (nf == 0) return fallbacks;

    // --- Kernel 1 over the gathered endpoints: the merge span is the
    // tilted-space distance of the two arc boxes.
    double span[kplan_width];
    for (std::size_t j = 0; j < nf; ++j) {
        const double gu = std::max(
            0.0, std::max(bu_lo[j] - au_hi[j], au_lo[j] - bu_hi[j]));
        const double gv = std::max(
            0.0, std::max(bv_lo[j] - av_hi[j], av_lo[j] - bv_hi[j]));
        span[j] = std::max(gu, gv);
    }

    // --- Split bracketing (place_split phase): closed-form split_for_target
    // per lane, then either a ternary-search lane, a degenerate zero-span
    // lane, or root-edge snaking.  Expression-for-expression the scalar
    // place_split with ws.ca/cb/da/db replaced by the in-place reads.
    double ts[kplan_width], te[kplan_width];
    double alpha[kplan_width], beta[kplan_width];
    double oa_lo[kplan_width], oa_hi[kplan_width];
    double ob_lo[kplan_width], ob_hi[kplan_width];
    bool ternary[kplan_width];
    bool any_ternary = false;
    for (std::size_t j = 0; j < nf; ++j) {
        const std::size_t i = lane[j];
        const geom::interval window{win_lo[j], win_hi[j]};
        const double sp = span[j];
        double al = 0.0, be = 0.0;
        bool solved = false;
        bool tern = false;
        if (sp > klen_eps) {
            double a_min = -std::numeric_limits<double>::infinity();
            double a_max = std::numeric_limits<double>::infinity();
            if (std::isfinite(window.hi)) {
                a_min = rc::split_for_target(model, sp, ca[j], cb[j],
                                             window.hi)
                            .value_or(0.0);
            }
            if (std::isfinite(window.lo)) {
                a_max = rc::split_for_target(model, sp, ca[j], cb[j],
                                             window.lo)
                            .value_or(sp);
            }
            if (std::max(a_min, 0.0) <= std::min(a_max, sp) + klen_eps) {
                const double s = std::clamp(a_min, 0.0, sp);
                const double e = std::clamp(a_max, s, sp);
                ts[j] = s;
                te[j] = e;
                const geom::interval oa =
                    t.node(pairs[i].first).delays.overall();
                const geom::interval ob =
                    t.node(pairs[i].second).delays.overall();
                oa_lo[j] = oa.lo;
                oa_hi[j] = oa.hi;
                ob_lo[j] = ob.lo;
                ob_hi[j] = ob.hi;
                tern = true;
                solved = true;
            }
        } else if (window.contains(0.0, kdelay_eps)) {
            al = be = 0.0;
            solved = true;
        }
        if (!solved) {
            // Root-edge snaking: extend the side whose subtree is too
            // fast (scalar place_split's !solved branch, verbatim).
            if (rc::delay_diff(model, sp, ca[j], cb[j], sp) > window.hi) {
                const double target = -window.hi;
                assert(target >= 0.0);
                al = rc::length_for_delay(model, target, ca[j]).value_or(sp);
                al = std::max(al, sp);
                be = 0.0;
            } else {
                const double target = window.lo;
                assert(target >= 0.0);
                be = rc::length_for_delay(model, target, cb[j]).value_or(sp);
                be = std::max(be, sp);
                al = 0.0;
            }
        }
        ternary[j] = tern;
        if (!tern) {
            // Defined (and fast: no NaN/subnormal operands) values for the
            // constant-trip masked loop to read; act=false never stores.
            ts[j] = te[j] = 0.0;
            oa_lo[j] = oa_hi[j] = ob_lo[j] = ob_hi[j] = 0.0;
        }
        alpha[j] = al;
        beta[j] = be;
        any_ternary = any_ternary || tern;
    }

    // --- Masked SoA ternary search (the balance heuristic): every live
    // lane computes every iteration; see ternary_iterate.  The loop runs
    // over the nf lanes this chunk actually carries — short chunks (the
    // speculative drain often brings 1-3 fast lanes) must not pay the
    // full-width iteration.
    if (any_ternary) {
        const double wr = model.wire.res_per_unit;
        const double wc = model.wire.cap_per_unit;
        if (model.kind == rc::model_kind::elmore)
            ternary_iterate<true>(nf, wr, wc, span, ca, cb, oa_lo, oa_hi,
                                  ob_lo, ob_hi, ternary, ts, te);
        else
            ternary_iterate<false>(nf, wr, wc, span, ca, cb, oa_lo, oa_hi,
                                   ob_lo, ob_hi, ternary, ts, te);
        for (std::size_t j = 0; j < nf; ++j) {
            if (!ternary[j]) continue;
            alpha[j] = 0.5 * (ts[j] + te[j]);
            beta[j] = span[j] - alpha[j];
        }
    }

    // --- Kernel 3: batched arc-box merge — TRR expand both children by
    // their split (+ eps) and intersect, as SoA interval arithmetic
    // (identical ops to expanded().intersect()).
    double arc_ulo[kplan_width], arc_uhi[kplan_width];
    double arc_vlo[kplan_width], arc_vhi[kplan_width];
    for (std::size_t j = 0; j < nf; ++j) {
        const double ra = alpha[j] + klen_eps;
        const double rb = beta[j] + klen_eps;
        arc_ulo[j] = std::max(au_lo[j] - ra, bu_lo[j] - rb);
        arc_uhi[j] = std::min(au_hi[j] + ra, bu_hi[j] + rb);
        arc_vlo[j] = std::max(av_lo[j] - ra, bv_lo[j] - rb);
        arc_vhi[j] = std::min(av_hi[j] + ra, bv_hi[j] + rb);
    }

    // --- Assembly: costs, caps and the merged delay map per lane.  The
    // delay merge reads the node maps directly — bit-identical to the
    // scalar merged(ws.da, ..) because a fast lane never snaked, so the
    // working copies the scalar path merges equal the node maps.
    for (std::size_t j = 0; j < nf; ++j) {
        const std::size_t i = lane[j];
        const auto [a, b] = pairs[i];
        merge_plan p;
        p.alpha = alpha[j];
        p.beta = beta[j];
        p.arc = geom::tilted_rect{{arc_ulo[j], arc_uhi[j]},
                                  {arc_vlo[j], arc_vhi[j]}};
        p.shared_groups = shared[j];
        p.violation = 0.0;
        p.cost = alpha[j] + beta[j];
        p.order_cost = p.cost;
        p.new_cap = ca[j] + cb[j] + model.wire_cap(alpha[j] + beta[j]);
        const double ea = model.edge_delay(alpha[j], ca[j]);
        const double eb = model.edge_delay(beta[j], cb[j]);
        p.delays = topo::group_delays::merged(t.node(a).delays, ea,
                                              t.node(b).delays, eb);
        assert(!p.arc.empty());
        out[i] = std::move(p);
    }
    return fallbacks;
}

}  // namespace

int solve_plan_batch(const merge_solver& solver, const topo::clock_tree& t,
                     const std::pair<topo::node_id, topo::node_id>* pairs,
                     std::size_t n, std::optional<merge_plan>* out) {
    int fallbacks = 0;
    for (std::size_t base = 0; base < n; base += kplan_width) {
        const std::size_t m = std::min(kplan_width, n - base);
        fallbacks += solve_chunk(solver, t, pairs + base, m, out + base);
    }
    return fallbacks;
}

}  // namespace astclk::core
