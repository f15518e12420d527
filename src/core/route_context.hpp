#pragma once

/// \file route_context.hpp
/// Shared per-run state for the routing service (DESIGN.md §6): the
/// expensive pieces every route needs but no route should rebuild —
///
///  * generated instances (src/gen synthesis is deterministic but not
///    free; batches routing the same benchmark under many specs share one
///    copy via the keyed cache),
///  * engine scratch buffers (selection heaps, NN records, the ban and
///    cost caches — reused across requests instead of reallocated per
///    reduce run).
///
/// A routing_context is safe to share across the service's worker threads:
/// the instance cache and the scratch pool are mutex-guarded, cached
/// instances have stable addresses (borrowed by routing_requests), and
/// each concurrent engine run holds its own scratch lease.

#include "core/engine.hpp"
#include "gen/instance_gen.hpp"
#include "topo/instance.hpp"

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace astclk::core {

class routing_context {
  public:
    routing_context() = default;

    routing_context(const routing_context&) = delete;
    routing_context& operator=(const routing_context&) = delete;

    // ------------------------------------------------- instance cache
    /// The instance cached under `key`, building it with `build` on the
    /// first request.  The returned reference is stable for the context's
    /// lifetime — requests may borrow it.
    const topo::instance& instance(
        const std::string& key,
        const std::function<topo::instance()>& build);

    /// Generated paper-style instance (gen::generate), cached by spec.
    const topo::instance& generated(const gen::instance_spec& spec);

    /// Generated instance with clustered groups applied, cached.
    const topo::instance& clustered(const gen::instance_spec& spec,
                                    int groups);

    /// Generated instance with intermingled groups applied, cached.
    const topo::instance& intermingled(const gen::instance_spec& spec,
                                       int groups, std::uint64_t seed);

    /// Number of distinct instances currently cached.
    [[nodiscard]] std::size_t cached_instances() const;

    // --------------------------------------------------- scratch pool
    /// RAII lease of an engine_scratch from the context's pool; returns
    /// it on destruction.  One lease serves one engine run at a time.
    class scratch_lease {
      public:
        scratch_lease(routing_context* ctx,
                      std::unique_ptr<engine_scratch> s)
            : ctx_(ctx), s_(std::move(s)) {}
        ~scratch_lease();
        scratch_lease(scratch_lease&& o) noexcept
            : ctx_(o.ctx_), s_(std::move(o.s_)) {
            o.ctx_ = nullptr;
        }
        scratch_lease& operator=(scratch_lease&&) = delete;
        scratch_lease(const scratch_lease&) = delete;
        scratch_lease& operator=(const scratch_lease&) = delete;

        [[nodiscard]] engine_scratch* get() { return s_.get(); }
        [[nodiscard]] engine_scratch& operator*() { return *s_; }

      private:
        routing_context* ctx_;
        std::unique_ptr<engine_scratch> s_;
    };

    /// Borrow a scratch (allocating one when the pool is empty).
    [[nodiscard]] scratch_lease scratch();

    /// Scratch buffers currently resting in the pool, i.e. not leased by a
    /// running request.  Leases return on destruction — cancellation and
    /// deadline unwinds included — so after every request of a quiesced
    /// service finished (however it ended) this equals the number of
    /// scratches ever allocated.
    [[nodiscard]] std::size_t pooled_scratch() const;

    /// Scratch buffers ever allocated by this context (monotonic).  On a
    /// quiesced context `allocated_scratch() == pooled_scratch()` — the
    /// lease-balance invariant audit::verify_scratch_lease_balance checks.
    [[nodiscard]] std::size_t allocated_scratch() const;

  private:
    friend class scratch_lease;
    void release(std::unique_ptr<engine_scratch> s);

    mutable std::mutex mu_;
    std::unordered_map<std::string, std::unique_ptr<topo::instance>>
        instances_;
    std::vector<std::unique_ptr<engine_scratch>> pool_;
    std::size_t allocated_ = 0;  ///< scratches ever created (under mu_)
};

}  // namespace astclk::core
