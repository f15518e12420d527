#pragma once

/// \file strategy.hpp
/// The unified routing-request interface and strategy dispatch
/// (DESIGN.md §6).
///
/// The four routers — ZST-DME, EXT-BST, AST-DME, separate-stitch — form a
/// closed set of strategies behind one call:
///
///     routing_request req;
///     req.instance = &inst;
///     req.strategy = strategy_id::ast_dme;
///     route_result r = route(req, ctx);
///
/// A `routing_request` bundles everything a route needs (instance
/// reference, skew spec, router options, strategy id); `route()` switches
/// on the strategy id, runs it against a `routing_context` (instance
/// cache, engine scratch), and uniformly records wall-clock and thread
/// usage in the result — direct calls and batched service calls report
/// timing the same way.  ZST-DME, EXT-BST and AST-DME share one body that
/// maps the request to the solver's spec, consistency mode and leaf
/// collapse; separate-stitch has its own.  The legacy free functions in
/// router.hpp are one-line wrappers over this interface, so existing call
/// sites stay source-compatible.  `to_string` and `parse_strategy` map
/// ids to names and back over one constant table.

#include "core/router.hpp"

#include <optional>
#include <string_view>

namespace astclk::core {

class routing_context;

/// The four routing strategies.
enum class strategy_id : int {
    zst_dme = 0,          ///< zero-skew DME over all sinks (groups ignored)
    ext_bst = 1,          ///< bounded-skew tree, one global bound
    ast_dme = 2,          ///< the paper's associative-skew router
    separate_stitch = 3,  ///< per-group ZSTs stitched afterwards
};

/// Canonical name of a strategy ("zst_dme", "ext_bst", "ast_dme",
/// "separate_stitch"); "?" for a value outside the enum.
[[nodiscard]] const char* to_string(strategy_id id) noexcept;

/// Resolve a canonical name or its short CLI alias ("zst", "bst", "ast",
/// "sep"); nullopt when unknown.
[[nodiscard]] std::optional<strategy_id> parse_strategy(
    std::string_view name_or_alias) noexcept;

/// One unit of routing work: everything a strategy needs to produce a
/// route_result.  Value type, cheap to copy; the instance is borrowed and
/// must outlive the call (batched callers typically lend instances owned
/// by the routing_context's cache).
struct routing_request {
    const topo::instance* instance = nullptr;
    /// Intra-group skew bounds for AST-DME.  EXT-BST reads `default_bound`
    /// as its single global bound; ZST-DME and separate-stitch route at
    /// zero skew and ignore it.
    skew_spec spec = skew_spec::zero();
    /// Delay model (`options.model`, read by every strategy) and engine
    /// knobs.
    router_options options;
    strategy_id strategy = strategy_id::ast_dme;
    ast_mode mode = ast_mode::automatic;  ///< AST-DME conflict strategy
};

/// Route one request against a shared context.  The instance is checked
/// first (`topo::instance::validate`), then the skew spec: an invalid one
/// returns `route_status::error` with the problem in `status_message` and
/// never reaches a strategy.  Dispatches on `req.strategy`, then records
/// `cpu_seconds` (wall clock of the strategy body) and `threads_used`
/// (executor concurrency, 1 when sequential) — the one place timing is
/// measured, identical for direct and batched calls.
/// Cooperative cancellation: the request's cancel token
/// (`options.engine.cancel`) is polled once before dispatch — an
/// already-fired token (zero/expired deadline, pre-cancelled flag) returns
/// its status without entering the strategy — and a route_interrupt thrown
/// by an engine checkpoint is converted into a result with that status
/// (`cancelled` / `deadline_exceeded`); the partial tree is discarded.
/// Throws std::invalid_argument on a null instance, std::out_of_range when
/// a request that passed those checks names a strategy id outside the
/// enum; other strategy exceptions propagate (the streaming service
/// converts them to `route_status::error`).
route_result route(const routing_request& req, routing_context& ctx);

/// Convenience overload with a transient private context (no sharing).
route_result route(const routing_request& req);

}  // namespace astclk::core
