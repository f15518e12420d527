#pragma once

/// \file executor.hpp
/// Minimal task-execution and cooperative-cancellation contracts shared by
/// the merge engine and the routing service (DESIGN.md §7-§8).
///
/// The engine's multi-merge rounds and the service's batched requests both
/// need "run these n independent jobs, possibly concurrently, and wait".
/// `task_executor` is that contract and nothing more, so the engine stays
/// free of threading machinery: a null executor (the default everywhere)
/// means strictly sequential execution, and the service's thread pool
/// plugs in without the engine knowing it exists.
///
/// Requirements on implementations:
///  * `parallel_for(n, fn)` invokes `fn(i)` exactly once for every
///    i in [0, n) and returns only after all invocations finished;
///  * nested calls from inside a running job must not deadlock (the
///    service's pool has the calling thread claim jobs itself);
///  * if any `fn(i)` throws, one of the thrown exceptions is rethrown to
///    the caller after the remaining jobs finished or were skipped.
///
/// Determinism note: callers must make results independent of execution
/// order (each job writes its own slot).  Everything in this codebase that
/// fans out — NN queries and plan() calls per multi-merge round, shard
/// sub-reduces, requests per batch — obeys that rule, which is why threaded runs are bit-identical
/// to sequential ones.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace astclk::core {

/// Terminal disposition of a route request (DESIGN.md §8).  Replaces bare
/// error-string signaling: callers branch on the kind, `status_message`
/// (route_result) carries the human detail.
enum class route_status {
    ok,                 ///< routed normally; the result tree is valid
    cancelled,          ///< cooperative cancellation observed at a checkpoint
    deadline_exceeded,  ///< the per-request deadline fired (possibly before
                        ///< any engine work)
    transient_fault,    ///< transient solver/allocation failure (injected or
                        ///< observed); retryable — a rerun may succeed
    data_fault,         ///< poisoned shard/data observed at a checkpoint;
                        ///< deterministic, so retrying cannot help
    degraded,           ///< routed under a degraded configuration
                        ///< (DESIGN.md §10); the tree IS valid and verified
    error,              ///< the strategy threw; see status_message
};

[[nodiscard]] constexpr const char* to_string(route_status s) noexcept {
    switch (s) {
        case route_status::ok: return "ok";
        case route_status::cancelled: return "cancelled";
        case route_status::deadline_exceeded: return "deadline_exceeded";
        case route_status::transient_fault: return "transient_fault";
        case route_status::data_fault: return "data_fault";
        case route_status::degraded: return "degraded";
        case route_status::error: return "error";
    }
    return "?";
}

/// The canonical human wording of a status for
/// route_result::status_message, used everywhere a token fires (the
/// dispatch pre-check, engine interrupts, queued-cancel completion).
/// `ok` maps to the empty string (ok results carry no message); `error`
/// messages normally come from the exception text instead, and `degraded`
/// results carry a message describing the rung (route_service / shard
/// salvage fill it in).
[[nodiscard]] constexpr const char* status_message_for(
    route_status s) noexcept {
    switch (s) {
        case route_status::ok: return "";
        case route_status::cancelled: return "cancelled";
        case route_status::deadline_exceeded: return "deadline exceeded";
        case route_status::transient_fault: return "transient fault";
        case route_status::data_fault: return "data fault (poisoned shard)";
        case route_status::degraded: return "degraded";
        case route_status::error: return "error";
    }
    return "?";
}

// ------------------------------------------------------- fault injection

/// Named checkpoint classes the engine already polls (DESIGN.md §10's
/// checkpoint → fault-site map).  Every checkpoint of a site carries a
/// deterministic 1-based index, so a scheduled fault fires at the same
/// point of the computation on every run.
enum class fault_site : int {
    dispatch = 0,   ///< route() pre-check; indexed by the plan's own
                    ///< occurrence counter (attempt number under retries)
    selection = 1,  ///< nearest-pair selection step; index = step number
    round = 2,      ///< multi-merge round boundary; index = round number
    shard = 3,      ///< per-shard gate of the sharded reduce; index =
                    ///< shard number in partition order (schedule-free)
};

/// Typed faults the schedule can fire.  The first two surface as
/// route_status::transient_fault (retryable), a poisoned shard as
/// route_status::data_fault (deterministic, not retryable), and a worker
/// stall burns the rest of the token's deadline budget at the checkpoint
/// (so the run terminates as deadline_exceeded — or salvages — exactly
/// there).
enum class fault_kind : int {
    none = 0,
    transient_solver,  ///< transient merge-solver failure
    alloc_failure,     ///< transient allocation failure
    worker_stall,      ///< stall until the token's deadline has passed
    poisoned_shard,    ///< poisoned shard / corrupted partial data
};

[[nodiscard]] const char* to_string(fault_site s) noexcept;
[[nodiscard]] const char* to_string(fault_kind k) noexcept;

/// Deterministic fault-injection schedule: a set of (site, index, kind)
/// events, each fired exactly once when a checkpoint of `site` reaches
/// `index`.  Counter-indexed, never time-based — the same schedule against
/// the same request yields the same fault sequence and hence bit-identical
/// outcomes.  `seeded()` derives a schedule from a seed (same seed → same
/// events).  Non-owning wiring mirrors cancel_probe: attach with
/// cancel_token::set_faults; the plan must outlive every poll and should
/// serve a single request at a time (sharing one plan across concurrent
/// requests makes the dispatch occurrence counter schedule-dependent).
/// Consumption is mutex-guarded: shard gates fire from pool workers.
class fault_plan {
  public:
    struct event {
        fault_site site = fault_site::dispatch;
        std::uint64_t index = 1;  ///< 1-based checkpoint index at `site`
        fault_kind kind = fault_kind::none;
        bool consumed = false;
    };

    fault_plan() = default;
    fault_plan(const fault_plan&) = delete;
    fault_plan& operator=(const fault_plan&) = delete;

    /// Derive `count` events from `seed`: sites, kinds and indexes (in
    /// [1, horizon]) come from a splitmix64 stream, so identical seeds
    /// build identical schedules.  Events whose site a given configuration
    /// never polls (e.g. shard gates of a monolithic run) simply never
    /// fire.
    static fault_plan seeded(std::uint64_t seed, int count = 2,
                             std::uint64_t horizon = 64);

    /// Schedule one event.  Not thread-safe against concurrent fire();
    /// build the plan before handing it to a run.
    void schedule(fault_site site, std::uint64_t index, fault_kind kind);

    [[nodiscard]] bool armed() const;
    [[nodiscard]] int fired() const;           ///< events consumed so far
    [[nodiscard]] std::vector<event> events() const;  ///< snapshot (tests)

    /// Checkpoint test: consume and return the event scheduled for
    /// (site, index), or fault_kind::none.  `index == 0` uses the plan's
    /// internal per-site occurrence counter (the dispatch pre-check,
    /// whose natural index — the attempt number — lives in the service,
    /// not the dispatch).
    [[nodiscard]] fault_kind fire(fault_site site, std::uint64_t index);

  private:
    explicit fault_plan(std::vector<event> ev) : events_(std::move(ev)) {}

    mutable std::mutex mu_;
    std::vector<event> events_;
    std::uint64_t occurrences_[4] = {0, 0, 0, 0};  ///< per-site poll counts
    int fired_ = 0;
};

/// Test instrumentation for cancellation checkpoints: every cancel_token
/// poll bumps `polls` and invokes `on_poll` (when set) with the new count.
/// Polls happen sequentially on the thread driving the reduce (the route()
/// pre-check plus one per engine round), so no atomics are needed; tests
/// use the hook to trip a cancel flag at an exact checkpoint and assert the
/// engine stops within one round of it.
struct cancel_probe {
    std::uint64_t polls = 0;
    std::function<void(std::uint64_t)> on_poll;
};

/// Cooperative cancellation token: an optional cancel flag (non-owning;
/// typically a route_handle's) plus an optional absolute deadline.  The
/// engine polls it at merge-round granularity — the nearest-pair selection
/// loop and multi-merge round boundaries — so a fired token stops a reduce
/// within one round.  A default-constructed token never fires and costs a
/// few predictable-branch compares per round.
class cancel_token {
  public:
    using clock = std::chrono::steady_clock;
    [[nodiscard]] static constexpr clock::time_point no_deadline() noexcept {
        return clock::time_point::max();
    }

    cancel_token() = default;
    cancel_token(const std::atomic<bool>* flag, clock::time_point deadline)
        : flag_(flag), deadline_(deadline) {}

    /// True when polling can ever report anything but ok (lets hot loops
    /// hoist the "unarmed" fast path).
    [[nodiscard]] bool armed() const noexcept {
        return flag_ != nullptr || deadline_ != no_deadline() ||
               probe_ != nullptr || faults_ != nullptr ||
               (chain_ != nullptr && chain_->armed());
    }
    [[nodiscard]] clock::time_point deadline() const noexcept {
        return deadline_;
    }
    /// A copy that still fires on every cancel flag down the chain but on
    /// no deadline (its own or a chained one) and drives no probe or fault
    /// plan: the shard salvage path's grace token, which must be allowed
    /// to finish yet still honors an explicit cancel() of any token.
    [[nodiscard]] cancel_token flags_only() const noexcept {
        cancel_token t = *this;
        t.deadline_ = no_deadline();
        t.probe_ = nullptr;
        t.faults_ = nullptr;
        t.flags_only_ = true;
        return t;
    }
    void set_probe(cancel_probe* p) noexcept { probe_ = p; }
    [[nodiscard]] cancel_probe* probe() const noexcept { return probe_; }
    /// Attach a fault-injection schedule (non-owning; null disarms).  Like
    /// probes, faults of a chained token are NOT fired through the chain —
    /// forward the plan with set_faults so each checkpoint consults it
    /// exactly once.
    void set_faults(fault_plan* f) noexcept { faults_ = f; }
    [[nodiscard]] fault_plan* faults() const noexcept { return faults_; }
    /// Chain a second token whose flags/deadlines are also honored,
    /// transitively through any chain of its own (its probes are NOT
    /// driven — forward one with set_probe to count each checkpoint
    /// once).  The service chains a submitted request's own token behind
    /// the handle-wired one, so a caller-provided cancel flag keeps
    /// working through the async path.  Non-owning: every chained token
    /// must outlive every poll, and chains must be acyclic.
    void set_chain(const cancel_token* t) noexcept { chain_ = t; }

    /// One *named* checkpoint: drives the probe, checks the flag and the
    /// deadline down the chain (cancelled beats deadline_exceeded when
    /// both fired; the clock is only read when a deadline is set), then
    /// fires any fault scheduled for (site, index).  Cancellation and an
    /// already-fired deadline beat an injected fault (the event stays
    /// unconsumed); a worker_stall sleeps through the remaining deadline
    /// budget and reports the resulting state.  Defined in fault.cpp (the
    /// stall needs <thread>).
    [[nodiscard]] route_status poll_at(fault_site site,
                                       std::uint64_t index) const;

  private:
    /// Flag/deadline checks down the whole chain — no probes; deadlines
    /// only when `deadlines` is set.  Every flag of the chain is read
    /// before any deadline, so a set flag anywhere beats a fired deadline
    /// anywhere (a served request's caller token hangs off the handle
    /// token, whose deadline may have fired first).
    [[nodiscard]] route_status state(bool deadlines) const {
        for (const cancel_token* t = this; t != nullptr; t = t->chain_)
            if (t->flag_ != nullptr &&
                t->flag_->load(std::memory_order_relaxed))
                return route_status::cancelled;
        if (!deadlines) return route_status::ok;
        for (const cancel_token* t = this; t != nullptr; t = t->chain_)
            if (t->deadline_ != no_deadline() && clock::now() >= t->deadline_)
                return route_status::deadline_exceeded;
        return route_status::ok;
    }

    const std::atomic<bool>* flag_ = nullptr;
    clock::time_point deadline_ = no_deadline();
    cancel_probe* probe_ = nullptr;
    fault_plan* faults_ = nullptr;
    const cancel_token* chain_ = nullptr;
    bool flags_only_ = false;  ///< chained deadlines ignored (flags_only())
};

class task_executor {
  public:
    virtual ~task_executor() = default;

    /// Run `fn(0) .. fn(n-1)`, possibly concurrently; blocks until every
    /// invocation completed.
    virtual void parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) = 0;

    /// Number of threads that may execute jobs simultaneously (>= 1; the
    /// calling thread counts).
    [[nodiscard]] virtual int concurrency() const noexcept = 0;
};

/// Sequential fallback: `exec == nullptr` runs the loop inline.
inline void run_indexed(task_executor* exec, std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
    if (exec == nullptr || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    exec->parallel_for(n, fn);
}

}  // namespace astclk::core
