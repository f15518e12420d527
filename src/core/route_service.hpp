#pragma once

/// \file route_service.hpp
/// Streaming, multi-threaded front-end over the strategy dispatch
/// (DESIGN.md §7-§8) — the serving spine for many concurrent route
/// requests.
///
/// A route_service owns
///  * a routing_context (instance cache, scratch pool),
///  * a thread_pool implementing task_executor plus a prioritised task
///    queue of submitted requests.
///
/// The API is asynchronous: `submit(request, submit_options)` enqueues
/// one request and returns a `route_handle` immediately; results stream
/// back as they complete (poll `try_get`, block in `wait`, or receive a
/// completion callback).  `submit_options` carries a per-request deadline
/// and a priority — higher-priority submissions are claimed first by idle
/// workers — and `route_handle::cancel()` requests cooperative
/// cancellation: queued requests complete as `cancelled` immediately,
/// running ones stop at the engine's next merge-round checkpoint, so a
/// runaway difficult instance can no longer hold a batch hostage.
/// `route_batch` remains as a thin submit-all + wait-all wrapper.
///
/// A request that carries no executor of its own gets the pool as its
/// `engine.executor`: its multi-merge rounds fan their nearest-neighbour
/// queries and plan() calls out over the same threads (engine.hpp), and —
/// for requests with `engine.shards != 1` — its sharded reduction
/// (shard.hpp) runs the sub-reductions as one shard sub-batch on the same
/// pool under the submitting request's deadline and priority: the
/// handle's cancel token is polled at every shard's checkpoints, so one
/// deadline bounds the whole fan-out.  Every fan-out obeys the
/// write-your-own-slot rule, so served, threaded runs return results
/// bit-identical to direct single-threaded router calls — thread counts
/// change wall-clock, never trees.  One caveat: `engine.shards == 0`
/// (auto) chooses the shard *count* from the executor concurrency, so the
/// partition itself — and with it the tree — can differ between pools of
/// different widths; the resolved count is recorded in
/// `route_result::resolved_shards` (and the serving attempt in
/// `route_result::attempts`), so any served run can be reproduced exactly
/// by pinning `engine.shards` to the recorded value (any fixed count is
/// bit-identical across thread counts).
///
/// Resilience (DESIGN.md §10): `submit_options::max_attempts` re-enqueues
/// a request that ends in `transient_fault` at its original priority,
/// after a backoff of 1 ms doubling per attempt up to 64 ms, and
/// `submit_options::degrade` arms the graceful-degradation ladder — when
/// half the deadline budget has passed or the attempts are exhausted, the
/// request is rerun stepped down (coarser shards → greedy-BST fallback),
/// and a deadline firing mid-sharded-reduce salvages the completed shard
/// sub-trees (shard.hpp).  Degraded results carry a valid tree tagged
/// `route_status::degraded`, re-verified by the independent evaluator
/// before publication, with the rung and reason in
/// `route_result::degradation`.
///
/// Failure isolation: a worker catches its request's exceptions and
/// reports them as `route_status::error` in the result (std::bad_alloc
/// maps to the retryable `transient_fault`); one malformed request cannot
/// poison its siblings.

#include "core/executor.hpp"
#include "core/route_context.hpp"
#include "core/strategy.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace astclk::core {

/// Worker pool behind the task_executor contract, with a second, queued
/// side: prioritised one-shot tasks (the streaming submissions).
/// `thread_pool(n)` spawns n dedicated workers.  parallel_for fan-outs are
/// work-shared — the thread calling parallel_for always participates (and
/// claims everything itself when the workers are busy), which is what
/// makes nested parallel_for calls — a worker's engine-level fan-out —
/// deadlock-free; idle workers prefer helping a pending parallel_for over
/// starting a new task, so fine-grained engine rounds never wait behind
/// the submission backlog.  Destruction drains the task queue: every task
/// submitted before teardown still runs.
class thread_pool final : public task_executor {
  public:
    /// Spawns max(1, threads) worker threads.
    explicit thread_pool(int threads);
    ~thread_pool() override;

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& fn) override;
    /// The worker count (what a served request's engine fan-out can use).
    [[nodiscard]] int concurrency() const noexcept override;

    struct impl;

    /// Receipt for one submitted task: revoke() removes the task from the
    /// queue if no worker claimed it yet (true when removed), freeing its
    /// closure immediately instead of leaving a tombstone for a worker to
    /// pop and discard.  Safe to call after the pool died (no-op).
    class ticket {
      public:
        ticket() = default;
        bool revoke();

      private:
        friend class thread_pool;
        std::weak_ptr<impl> pool_;
        std::pair<std::int64_t, std::uint64_t> key_{};
    };

    /// Enqueue one independent task.  Higher `priority` is claimed first;
    /// submissions of equal priority run in FIFO order.  Tasks own their
    /// error reporting: an exception escaping the task is swallowed by
    /// the worker (unlike parallel_for, which rethrows to its caller).
    ticket submit(int priority, std::function<void()> task);

  private:
    std::shared_ptr<impl> p_;
};

struct service_options {
    /// Worker-thread budget; 0 picks std::thread::hardware_concurrency().
    int threads = 0;
    /// Ignored: every strategy reads the request's `options.model`.  Kept
    /// only because benchmark/astbench.cpp still assigns it.
    rc::delay_model model = rc::delay_model::elmore();
};

/// Per-submission knobs of the streaming API.
struct submit_options {
    /// Absolute completion deadline (steady clock); `no_deadline()` means
    /// none.  An already-expired deadline reports `deadline_exceeded`
    /// without entering the engine; one that fires mid-route stops the
    /// reduce at the next merge-round checkpoint.
    std::chrono::steady_clock::time_point deadline =
        cancel_token::no_deadline();
    /// Idle workers claim higher-priority submissions first (FIFO within
    /// one level).  Already-running requests are never preempted.
    int priority = 0;
    /// Optional completion callback, invoked on the completing thread — a
    /// worker, or the cancel() caller when a still-queued request is
    /// cancelled — after the result is stored but before waiters wake; it
    /// receives the result by reference and must not call try_get/wait
    /// itself.  Exceptions it throws are swallowed.
    std::function<void(const route_result&)> on_complete;
    /// Total attempts including the first; 1 disables retries.  Only a
    /// `transient_fault` is retried: attempt k + 1 is re-enqueued at the
    /// original priority after min(64 ms, 1 ms << (k - 1)), never past the
    /// deadline, and `route_result::attempts` reports the attempt that
    /// produced the result.
    int max_attempts = 1;
    /// Graceful-degradation ladder (DESIGN.md §10).  When on, a request
    /// that exhausts its attempts on a fault — or whose (re)attempt is
    /// claimed past half of its submit→deadline budget — is rerun stepped
    /// down one rung at a time: 1 = coarser auto-shards
    /// (coarse_shard_count), 2 = greedy-BST fallback under the spec's
    /// tightest bound (a claim past three quarters of the budget starts
    /// there).  It also arms partial-result salvage of sharded reduces
    /// (engine_options::salvage), and every degraded tree is re-verified
    /// by the independent evaluator before publication.  Off: faults and
    /// deadlines report their status with no fallback rerun.
    bool degrade = false;
};

/// Handle to one submitted request.  Copyable (all copies address the same
/// submission); the result is retrieved once — by the first successful
/// try_get() or wait() — and the handle stays valid after the service that
/// issued it is destroyed (destruction drains the queue first).
class route_handle {
  public:
    route_handle() = default;  ///< empty; valid() is false

    [[nodiscard]] bool valid() const noexcept { return st_ != nullptr; }
    /// True once the result is available (try_get would succeed, wait
    /// would not block).
    [[nodiscard]] bool done() const;
    /// Request cooperative cancellation.  A still-queued request completes
    /// as `cancelled` immediately (inside this call); a running one stops
    /// at the engine's next merge-round checkpoint.  Returns true when the
    /// request had not completed yet (the cancellation can still take
    /// effect), false when the result was already in.
    bool cancel();
    /// Non-blocking: the result if it is ready and not yet retrieved
    /// (moved out — one-shot), nullopt otherwise.
    std::optional<route_result> try_get();
    /// Block until the result is ready and return it (moved out — one
    /// shot; a second retrieval throws std::logic_error, as does calling
    /// this on an empty handle).
    route_result wait();

  private:
    friend class route_service;
    struct state;
    explicit route_handle(std::shared_ptr<state> st) : st_(std::move(st)) {}
    std::shared_ptr<state> st_;
};

class route_service {
  public:
    explicit route_service(service_options opt = {});
    /// Drains every submitted request (queued ones included) before
    /// returning; handles outlive the service.  Cancel explicitly for a
    /// fast shutdown.
    ~route_service();

    route_service(const route_service&) = delete;
    route_service& operator=(const route_service&) = delete;

    [[nodiscard]] routing_context& context() { return ctx_; }
    /// Threads that may execute route work simultaneously (the workers).
    [[nodiscard]] int threads() const;

    /// Submit one request for asynchronous routing; returns immediately.
    /// The request is routed on a worker with the service's context and a
    /// cancel token wired to the handle; any token already on the
    /// request's own engine options keeps working — its flag and deadline
    /// are chained behind the handle's, its probe is forwarded — so
    /// whichever of handle, caller flag, `opt.deadline` or request
    /// deadline fires first stops the run.
    route_handle submit(routing_request req, submit_options opt = {});

    /// Thin batch wrapper: submit-all + wait-all.  results[i] always
    /// corresponds to requests[i]; a failed request reports through its
    /// result's status/status_message while the rest complete normally.
    std::vector<route_result> route_batch(
        const std::vector<routing_request>& requests);

  private:
    void serve(const std::shared_ptr<route_handle::state>& st, int attempt);

    routing_context ctx_;
    std::unique_ptr<thread_pool> pool_;
};

}  // namespace astclk::core
