#pragma once

/// \file merge_solver.hpp
/// The constraint solver behind every subtree merge — the algorithmic core
/// of the paper (Ch. V, Fig. 6).
///
/// Given two active subtree roots A and B, the solver classifies the merge
/// exactly as AST-DME does:
///
///  * **Same / shared groups** (cases 1, 3): each shared group g constrains
///    the delay difference D = e(beta, C_B) - e(alpha, C_A) to a window
///    W_g; with zero intra-group skew the window is a point and the merge
///    is the classic DME embedding.  D is linear in alpha on
///    alpha + beta = L, so the feasible split is closed-form; targets
///    outside [0, L] are met by root-edge wire snaking.
///  * **Disjoint groups** (case 2): no window at all — the merge costs
///    exactly the arc distance L (a point of the shortest-distance region)
///    and the free split is chosen by a balance heuristic that minimises
///    the merged subtree's overall delay spread, reducing future snaking.
///  * **Partially shared groups with conflicting windows** (case 4,
///    Fig. 5 / Eqs. 5.1-5.3): the window intersection is empty.  The solver
///    repairs it by **interior snaking**: lengthening the edge to a direct
///    child X of one root whose group set is disjoint from its sibling's
///    (the legality condition that keeps frozen intra-group skews intact),
///    which shifts exactly groups(X) by a closed-form gamma.  If no legal
///    repair chain exists the pair is rejected and the caller tries another
///    pair; a forced variant minimising the worst violation exists for
///    pathological endgames.
///
/// Rejection is the common outcome on difficult instances, so the failure
/// path is kept cheap: both roots' delay maps are read in place and a side
/// is copied only when an interior snake shifts it, and a root whose
/// children share a group (`tree_node::disjoint_children` false) is
/// dismissed as a snake site without reading its children.  A plan that
/// fails with no legal snake allocates only its shared-group list.
///
/// `merge_solver::plan` is the only merge-plan solver: the engine calls it
/// for every pair it selects, in both merge orders, and re-keys pairs by
/// `merge_plan::cost`.

#include "core/offset_ledger.hpp"
#include "geom/tilted_rect.hpp"
#include "rc/delay_model.hpp"
#include "topo/group_map.hpp"
#include "topo/tree.hpp"

#include <optional>
#include <string>
#include <vector>

namespace astclk::core {

/// Intra-group skew bounds (seconds).  `default_bound` applies to every
/// group without an override.  Zero bounds give classic zero-skew behaviour.
struct skew_spec {
    double default_bound = 0.0;
    std::vector<std::pair<topo::group_id, double>> overrides;  // sorted

    [[nodiscard]] double bound(topo::group_id g) const {
        for (const auto& [gid, b] : overrides)
            if (gid == g) return b;
        return default_bound;
    }

    static skew_spec zero() { return {}; }
    static skew_spec uniform(double b) { return {b, {}}; }

    /// Validates every bound (non-negative and not NaN; +inf means "no
    /// bound") and every override's group (in [0, num_groups), listed
    /// once); returns a human-readable problem description or the empty
    /// string when valid.
    [[nodiscard]] std::string validate(topo::group_id num_groups) const;
};

/// An interior-edge snake: lengthen the edge from `side_root` to its direct
/// child `child` by `gamma`, delaying every sink below `child` by
/// `delay_shift` (the paper's Eq. 5.2 gamma).
struct interior_snake {
    topo::node_id side_root = topo::knull_node;
    topo::node_id child = topo::knull_node;
    double gamma = 0.0;
    double delay_shift = 0.0;
};

/// A fully solved merge, ready to commit.
struct merge_plan {
    double alpha = 0.0;  ///< electrical length of the edge to A
    double beta = 0.0;   ///< electrical length of the edge to B
    geom::tilted_rect arc;  ///< merging segment of the new root
    double cost = 0.0;      ///< total wire added: alpha + beta + snakes
    double new_cap = 0.0;
    topo::group_delays delays;  ///< delay map of the new root
    std::vector<interior_snake> snakes;
    int shared_groups = 0;      ///< diagnostic: how many groups were shared
    double violation = 0.0;     ///< forced merges only: worst skew excess
};

/// How the solver treats inter-group offset consistency.
enum class consistency_mode {
    /// No global bookkeeping: per-merge windows, interior snaking, pair
    /// rejection (the paper's literal Fig. 6 behaviour).  Endgame conflicts
    /// can force bounded violations.
    windowed,
    /// Strict offset ledger (zero bounds only): every merge constrained to
    /// the globally consistent offset; conflicts impossible, freedom gone.
    exact,
    /// Ledger as *intent*: follow the consistent offset whenever it costs
    /// nothing (it lies in the no-snake split range), drift away only in
    /// lieu of snake wire, and repair residual conflicts with windows and
    /// interior snakes.  Drift is created exactly where it saves wire.
    soft,
};

class merge_solver {
  public:
    /// `ledger` is required for consistency modes `exact` and `soft` and
    /// ignored for `windowed`.  `exact` additionally requires an all-zero
    /// spec (degenerate delay intervals).
    merge_solver(rc::delay_model model, skew_spec spec,
                 offset_ledger* ledger = nullptr,
                 consistency_mode mode = consistency_mode::windowed)
        : model_(model), spec_(std::move(spec)), ledger_(ledger),
          mode_(ledger == nullptr ? consistency_mode::windowed : mode) {}

    [[nodiscard]] const rc::delay_model& model() const { return model_; }
    [[nodiscard]] const skew_spec& spec() const { return spec_; }
    [[nodiscard]] const offset_ledger* ledger() const { return ledger_; }
    [[nodiscard]] consistency_mode mode() const { return mode_; }

    /// Solve the merge of roots a and b.  nullopt when the pair has an
    /// irreconcilable multi-group conflict (caller should try another pair).
    [[nodiscard]] std::optional<merge_plan> plan(const topo::clock_tree& t,
                                                 topo::node_id a,
                                                 topo::node_id b) const;

    /// Like plan(), but never fails: unsatisfiable windows are met at the
    /// minimax point and the residual is reported in `violation`.
    [[nodiscard]] merge_plan plan_forced(const topo::clock_tree& t,
                                         topo::node_id a,
                                         topo::node_id b) const;

    /// Apply a plan: mutate snaked child edges, create and return the new
    /// root node.
    topo::node_id commit(topo::clock_tree& t, topo::node_id a, topo::node_id b,
                         const merge_plan& p) const;

  private:
    [[nodiscard]] std::optional<merge_plan> solve(const topo::clock_tree& t,
                                                  topo::node_id a,
                                                  topo::node_id b,
                                                  bool forced) const;

    rc::delay_model model_;
    skew_spec spec_;
    offset_ledger* ledger_ = nullptr;  // non-owning; nullable
    consistency_mode mode_ = consistency_mode::windowed;
};

}  // namespace astclk::core
