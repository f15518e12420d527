#pragma once

/// \file strategy.hpp
/// The unified routing-request interface and strategy registry
/// (DESIGN.md §6).
///
/// The four routers — ZST-DME, EXT-BST, AST-DME, separate-stitch — are
/// registered *strategies* behind one call:
///
///     routing_request req;
///     req.instance = &inst;
///     req.strategy = strategy_id::ast_dme;
///     route_result r = route(req, ctx);
///
/// A `routing_request` bundles everything a route needs (instance
/// reference, skew spec, router options, strategy id); `route()` looks the
/// strategy up, runs it against a `routing_context` (shared delay model,
/// instance cache, engine scratch), and uniformly records wall-clock and
/// thread usage in the result — direct calls and batched service calls
/// report timing the same way.  The legacy free functions in router.hpp
/// are thin wrappers over this interface, so existing call sites stay
/// source-compatible.
///
/// The registry is open: new strategies can be added at runtime under
/// fresh ids (e.g. experimental routers in a bench), looked up by id or by
/// name.

#include "core/router.hpp"

#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace astclk::core {

class routing_context;

/// Identifier of a registered routing strategy.  The four built-ins are
/// always registered; further ids are free for extensions.
enum class strategy_id : int {
    zst_dme = 0,          ///< zero-skew DME over all sinks (groups ignored)
    ext_bst = 1,          ///< bounded-skew tree, one global bound
    ast_dme = 2,          ///< the paper's associative-skew router
    separate_stitch = 3,  ///< per-group ZSTs stitched afterwards
};

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
    router_options options;
    strategy_id strategy = strategy_id::ast_dme;
    ast_mode mode = ast_mode::automatic;  ///< AST-DME conflict strategy
};

/// A strategy: consumes a request, may use the shared context (instance
/// cache, scratch pool), returns the routed tree.  Must not record timing
/// itself — `route()` does that uniformly.
using strategy_fn = route_result (*)(const routing_request&,
                                     routing_context&);

/// Process-wide strategy table.  Thread-safe; entries are never removed,
/// and re-adding an id replaces its implementation (latest wins).
class strategy_registry {
  public:
    static strategy_registry& global();

    /// Register (or replace) a strategy under `id`.  `name` is the
    /// canonical identifier, `alias` a short CLI spelling ("ast", "zst",
    /// ...); either resolves via id_of.
    void add(strategy_id id, std::string name, std::string alias,
             strategy_fn fn);

    /// The implementation registered under `id`; throws std::out_of_range
    /// for unknown ids.
    [[nodiscard]] strategy_fn find(strategy_id id) const;

    /// Resolve a name or alias; nullopt when unknown.
    [[nodiscard]] std::optional<strategy_id> id_of(
        const std::string& name_or_alias) const;

    /// Canonical name of a registered id ("?" when unknown).
    [[nodiscard]] std::string name_of(strategy_id id) const;

    /// Canonical names of every registered strategy, registration order.
    [[nodiscard]] std::vector<std::string> names() const;

  private:
    strategy_registry();  // registers the four built-in routers

    struct entry {
        strategy_id id;
        std::string name;
        std::string alias;
        strategy_fn fn;
    };
    mutable std::mutex mu_;
    std::vector<entry> entries_;
};

/// Route one request against a shared context.  The instance is checked
/// first (`topo::instance::validate`): an invalid one returns
/// `route_status::error` with the problem in `status_message` and never
/// reaches a strategy.  Dispatches through the
/// registry, then records `cpu_seconds` (wall clock of the strategy body)
/// and `threads_used` (executor concurrency, 1 when sequential) — the one
/// place timing is measured, identical for direct and batched calls.
/// Cooperative cancellation: the request's cancel token
/// (`options.engine.cancel`) is polled once before dispatch — an
/// already-fired token (zero/expired deadline, pre-cancelled flag) returns
/// its status without entering the strategy — and a route_interrupt thrown
/// by an engine checkpoint is converted into a result with that status
/// (`cancelled` / `deadline_exceeded`); the partial tree is discarded.
/// Throws std::invalid_argument on a null instance, std::out_of_range on
/// an unregistered strategy id; other strategy exceptions propagate (the
/// streaming service converts them to `route_status::error`).
route_result route(const routing_request& req, routing_context& ctx);

/// Convenience overload with a transient private context (no sharing).
route_result route(const routing_request& req);

}  // namespace astclk::core
