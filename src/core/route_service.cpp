#include "core/route_service.hpp"

#include "core/shard.hpp"
#include "eval/report.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <utility>

namespace astclk::core {

// ---------------------------------------------------------- thread_pool

struct thread_pool::impl {
    struct job {
        const std::function<void(std::size_t)>* fn = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};  ///< next unclaimed index
        std::atomic<std::size_t> done{0};  ///< completed invocations
        std::exception_ptr error;          ///< first exception wins (mu_)
        std::condition_variable cv_done;
    };

    std::mutex mu_;
    std::condition_variable cv_work_;
    std::deque<std::shared_ptr<job>> queue_;
    /// Submitted one-shot tasks, keyed (-priority, seq): begin() is the
    /// highest priority, FIFO within a level.  The key is 64-bit so that
    /// negating INT_MIN does not overflow.
    std::map<std::pair<std::int64_t, std::uint64_t>, std::function<void()>>
        tasks_;
    std::uint64_t task_seq_ = 0;
    std::vector<std::thread> workers_;
    bool stop_ = false;

    /// Claim and run indices of `j` until none remain.  Exceptions are
    /// recorded on the job (first wins); every claimed index counts as
    /// done either way, so waiters always unblock.  The pool mutex is only
    /// touched to record an error and by the last finisher (fine-grained
    /// fan-outs — thousands of sub-microsecond NN queries per multi-merge
    /// round — must not serialise on a per-index lock).
    void run_jobs(const std::shared_ptr<job>& j) {
        for (;;) {
            const std::size_t i =
                j->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= j->n) return;
            try {
                (*j->fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu_);
                if (!j->error) j->error = std::current_exception();
            }
            if (j->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                j->n) {
                // Lock before notifying so the waiter cannot check the
                // predicate and sleep between our increment and notify.
                std::lock_guard<std::mutex> lk(mu_);
                j->cv_done.notify_all();
            }
        }
    }

    /// Workers prefer helping a pending parallel_for (short, fine-grained
    /// sub-work of an already-running task) over claiming the next
    /// submitted task; tasks drain even after stop_, so destruction
    /// completes every submission.
    void worker_loop() {
        for (;;) {
            std::shared_ptr<job> j;
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_work_.wait(lk, [&] {
                    return stop_ || !queue_.empty() || !tasks_.empty();
                });
                if (!queue_.empty()) {
                    j = queue_.front();
                    if (j->next.load(std::memory_order_relaxed) >= j->n) {
                        // Fully claimed (maybe still finishing): retire it
                        // from the queue so workers move on.
                        queue_.pop_front();
                        continue;
                    }
                } else if (!tasks_.empty()) {
                    auto it = tasks_.begin();
                    task = std::move(it->second);
                    tasks_.erase(it);
                } else {
                    return;  // stop_ and nothing left: drained
                }
            }
            if (j) {
                run_jobs(j);
            } else {
                // Tasks own their error reporting (serve() converts
                // exceptions to route_status::error); a stray throw must
                // not unwind the worker thread and terminate the process.
                try {
                    task();
                } catch (...) {
                }
            }
        }
    }
};

thread_pool::thread_pool(int threads) : p_(std::make_shared<impl>()) {
    const int n = std::max(1, threads);
    p_->workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        p_->workers_.emplace_back([s = p_.get()] { s->worker_loop(); });
}

thread_pool::~thread_pool() {
    {
        std::lock_guard<std::mutex> lk(p_->mu_);
        p_->stop_ = true;
    }
    p_->cv_work_.notify_all();
    for (std::thread& w : p_->workers_) w.join();
}

int thread_pool::concurrency() const noexcept {
    return static_cast<int>(p_->workers_.size());
}

thread_pool::ticket thread_pool::submit(int priority,
                                        std::function<void()> task) {
    ticket t;
    t.pool_ = p_;
    {
        std::lock_guard<std::mutex> lk(p_->mu_);
        t.key_ = std::make_pair(-std::int64_t{priority}, p_->task_seq_++);
        p_->tasks_.emplace(t.key_, std::move(task));
    }
    p_->cv_work_.notify_one();
    return t;
}

bool thread_pool::ticket::revoke() {
    const std::shared_ptr<impl> s = pool_.lock();
    if (!s) return false;  // pool already destroyed (queue fully drained)
    std::lock_guard<std::mutex> lk(s->mu_);
    return s->tasks_.erase(key_) > 0;
}

void thread_pool::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    impl& s = *p_;
    // A single-worker pool runs fan-outs inline on the caller: the one
    // worker either *is* the caller or stays free for queued submissions.
    if (s.workers_.size() <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    auto j = std::make_shared<impl::job>();
    j->fn = &fn;
    j->n = n;
    {
        std::lock_guard<std::mutex> lk(s.mu_);
        s.queue_.push_back(j);
    }
    s.cv_work_.notify_all();
    s.run_jobs(j);  // the caller always participates
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(s.mu_);
        const auto it = std::find(s.queue_.begin(), s.queue_.end(), j);
        if (it != s.queue_.end()) s.queue_.erase(it);
        j->cv_done.wait(
            lk, [&] { return j->done.load(std::memory_order_acquire) ==
                             j->n; });
        err = j->error;
    }
    if (err) std::rethrow_exception(err);
}

// ---------------------------------------------------------- route_handle

/// Shared between the handle copies and the worker serving the request.
/// `claimed` decides who completes it: the worker that starts routing, or
/// a cancel() that gets there first (whoever wins the exchange owns the
/// completion; the loser backs off).
struct route_handle::state {
    routing_request req;
    submit_options opt;
    thread_pool::ticket ticket;  ///< set at submit; revoked by cancel()
    /// Submission time (degradation-watermark reference point).
    std::chrono::steady_clock::time_point submitted{};
    /// Current degradation-ladder rung; only the serving attempt mutates
    /// it (attempts are strictly sequential), so no synchronisation.
    int rung = 0;
    std::atomic<bool> cancel_flag{false};
    std::atomic<bool> claimed{false};
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool retrieved = false;
    route_result result;

    void complete(route_result res) {
        {
            std::lock_guard<std::mutex> lk(mu);
            result = std::move(res);
        }
        // The callback sees the stored result before any waiter can move
        // it out (done is still false here).  Its exceptions are swallowed:
        // a throwing callback must neither kill the completing thread nor
        // leave waiters blocked on a result that is already in.
        if (opt.on_complete) {
            try {
                opt.on_complete(result);
            } catch (...) {
            }
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            done = true;
        }
        cv.notify_all();
    }
};

bool route_handle::done() const {
    if (!st_) return false;
    std::lock_guard<std::mutex> lk(st_->mu);
    return st_->done;
}

bool route_handle::cancel() {
    if (!st_) return false;
    st_->cancel_flag.store(true, std::memory_order_relaxed);
    if (!st_->claimed.exchange(true, std::memory_order_acq_rel)) {
        // Still queued: complete it right here — a cancelled request must
        // not wait behind the backlog — and drop the queued closure so a
        // cancelled backlog frees its memory now instead of leaving
        // tombstones for the workers.  (If a worker popped the task just
        // before the exchange, its serve() finds the state claimed and
        // backs off.)
        st_->ticket.revoke();
        route_result res;
        res.status = route_status::cancelled;
        res.status_message = status_message_for(route_status::cancelled);
        st_->complete(std::move(res));
        return true;
    }
    std::lock_guard<std::mutex> lk(st_->mu);
    return !st_->done;
}

std::optional<route_result> route_handle::try_get() {
    if (!st_) return std::nullopt;
    std::lock_guard<std::mutex> lk(st_->mu);
    if (!st_->done || st_->retrieved) return std::nullopt;
    st_->retrieved = true;
    return std::move(st_->result);
}

route_result route_handle::wait() {
    if (!st_) throw std::logic_error("route_handle: empty handle");
    std::unique_lock<std::mutex> lk(st_->mu);
    st_->cv.wait(lk, [&] { return st_->done; });
    if (st_->retrieved)
        throw std::logic_error("route_handle: result already retrieved");
    st_->retrieved = true;
    return std::move(st_->result);
}

// --------------------------------------------------------- route_service

route_service::route_service(service_options opt) {
    int threads = opt.threads;
    if (threads <= 0)
        threads = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    pool_ = std::make_unique<thread_pool>(threads);
}

// Members are destroyed in reverse order: the pool first (draining every
// submitted request, which may still use the context), then the context.
route_service::~route_service() = default;

int route_service::threads() const { return pool_->concurrency(); }

namespace {

/// Reconfigure a request for one degradation-ladder rung (cumulative:
/// rung 2 implies rung 1's step).  Rung 1 pins the coarse auto-shard
/// count; rung 2 swaps the strategy for the greedy EXT-BST under the
/// spec's tightest bound — conservative: a global bound no looser than any
/// group's bound satisfies every group.
void apply_rung(routing_request& req, int rung, int concurrency) {
    if (rung >= 1 && req.instance != nullptr)
        req.options.engine.shards =
            coarse_shard_count(req.instance->sinks.size(), concurrency);
    if (rung >= 2) {
        double b = req.spec.default_bound;
        for (const auto& [g, ob] : req.spec.overrides) b = std::min(b, ob);
        req.spec = skew_spec::uniform(b);
        req.strategy = strategy_id::ext_bst;
    }
}

}  // namespace

/// Worker-side execution of one attempt of one submission: claim it on
/// the first attempt (backing off if a cancel got there first), wire the
/// cancel token, apply the current degradation rung, route, and either
/// publish or re-enqueue the next attempt (retry with backoff, or one
/// rung further down the ladder).  Exceptions become route_status::error
/// — isolation by construction — except std::bad_alloc, which maps to
/// the retryable `transient_fault`.
void route_service::serve(const std::shared_ptr<route_handle::state>& st,
                          int attempt) {
    if (attempt == 1 && st->claimed.exchange(true, std::memory_order_acq_rel))
        return;  // cancelled while queued; cancel() completed it
    const bool degrade = st->opt.degrade;

    // Deadline watermark: a (re)attempt claimed past half of its budget is
    // not going to finish a full-fidelity run — start it stepped down, and
    // past three quarters go straight to the greedy fallback.
    if (degrade && st->opt.deadline != cancel_token::no_deadline()) {
        const auto now = std::chrono::steady_clock::now();
        const double total = std::chrono::duration<double>(
                                 st->opt.deadline - st->submitted)
                                 .count();
        const double elapsed =
            std::chrono::duration<double>(now - st->submitted).count();
        if (total > 0.0) {
            const double f = elapsed / total;
            if (f >= 0.75)
                st->rung = std::max(st->rung, 2);
            else if (f >= 0.5)
                st->rung = std::max(st->rung, 1);
        }
    }
    const int rung = st->rung;

    routing_request req = st->req;  // copied: a retry reuses the original
    apply_rung(req, rung, pool_->concurrency());
    req.options.engine.salvage = degrade;
    // Requests without an executor of their own fan their engine rounds
    // and shards out over the pool; threads_used is derived by the
    // dispatch from the executor the run actually carried.
    if (req.options.engine.executor == nullptr)
        req.options.engine.executor = pool_.get();
    // The handle-wired token carries the submission's flag and deadline;
    // the request's own token keeps working through the chain (its flag
    // and deadline are polled too), and its probe and fault plan are
    // forwarded so checkpoints count once and scheduled faults fire (the
    // chain carries neither).  caller_tok outlives the route call.
    const cancel_token caller_tok = req.options.engine.cancel;
    cancel_token tok(&st->cancel_flag, st->opt.deadline);
    tok.set_probe(caller_tok.probe());
    tok.set_faults(caller_tok.faults());
    tok.set_chain(&caller_tok);
    req.options.engine.cancel = tok;
    route_result res;
    try {
        res = core::route(req, ctx_);
    } catch (const std::bad_alloc&) {
        res = route_result{};
        res.status = route_status::transient_fault;
        res.status_message = "allocation failure";
    } catch (const std::exception& e) {
        res = route_result{};
        res.status = route_status::error;
        res.status_message = e.what();
    } catch (...) {
        res = route_result{};
        res.status = route_status::error;
        res.status_message = "unknown error";
    }
    res.attempts = attempt;

    // Another attempt?  Retry first (same configuration, backoff), then
    // the ladder (one rung down, immediately).  Neither fires once the
    // handle is cancelled or the deadline is spent — and an expired
    // deadline means `deadline_exceeded` was already the honest outcome.
    const bool cancelled =
        st->cancel_flag.load(std::memory_order_relaxed) ||
        res.status == route_status::cancelled;
    const auto now = std::chrono::steady_clock::now();
    bool again = false;
    if (!cancelled && res.status == route_status::transient_fault &&
        attempt < st->opt.max_attempts) {
        const auto backoff = std::chrono::milliseconds(
            1 << std::min(attempt - 1, 6));  // 1, 2, 4, ... 64 ms
        if (now + backoff < st->opt.deadline) {
            // Sleeping here occupies this worker for the backoff — cheap
            // (milliseconds) and simple; the re-enqueue then restores
            // priority order among the waiting submissions.
            std::this_thread::sleep_for(backoff);
            again = true;
        }
    }
    if (!again && !cancelled && degrade && st->rung < 2 &&
        (res.status == route_status::transient_fault ||
         res.status == route_status::data_fault) &&
        now < st->opt.deadline) {
        ++st->rung;
        again = true;
    }
    if (again) {
        pool_->submit(st->opt.priority,
                      [this, st, attempt] { serve(st, attempt + 1); });
        return;
    }

    // Tag ladder results (the salvage path arrives already tagged) and
    // re-verify every degraded tree with the independent evaluator — a
    // stepped-down configuration must still produce a sound tree.  Rung 1
    // only changes the shard count, so a request that still reduced
    // monolithically (ledger-backed AST, separate-stitch) reran its
    // full-fidelity configuration: that result is `ok`.
    const bool stepped_down =
        rung >= 2 || (rung == 1 && res.resolved_shards > 1);
    if (stepped_down && res.status == route_status::ok &&
        res.degradation.rung == degrade_rung::none) {
        res.status = route_status::degraded;
        res.degradation.rung = static_cast<degrade_rung>(rung);
        res.degradation.reason =
            std::string("degradation ladder rung ") + std::to_string(rung) +
            " (" + to_string(res.degradation.rung) + ")";
        res.status_message = res.degradation.reason;
    }
    if (res.status == route_status::degraded) {
        eval::verify_options vopt;
        // Forced merges (tracked by the engine) may leave a residual
        // violation the run already reported; verify against it, not
        // against zero, so the check tests the *tree*, not the engine's
        // honesty about forced merges.
        vopt.skew_tolerance += res.stats.worst_violation;
        const eval::verify_result vr = eval::verify_route(
            res, *st->req.instance, st->req.options.model, st->req.spec,
            vopt);
        res.degradation.verified = vr.ok;
        if (!vr.ok) {
            res.status = route_status::error;
            res.status_message =
                "degraded result failed verification: " + vr.message;
        }
    }
    st->complete(std::move(res));
}

route_handle route_service::submit(routing_request req, submit_options opt) {
    auto st = std::make_shared<route_handle::state>();
    st->req = std::move(req);
    st->opt = std::move(opt);
    st->submitted = std::chrono::steady_clock::now();
    const int priority = st->opt.priority;
    st->ticket = pool_->submit(priority, [this, st] { serve(st, 1); });
    return route_handle(std::move(st));
}

std::vector<route_result> route_service::route_batch(
    const std::vector<routing_request>& requests) {
    std::vector<route_handle> handles;
    handles.reserve(requests.size());
    for (const routing_request& r : requests)
        handles.push_back(submit(r));
    std::vector<route_result> out;
    out.reserve(handles.size());
    for (route_handle& h : handles) out.push_back(h.wait());
    return out;
}

}  // namespace astclk::core
