#pragma once

/// \file harness.hpp
/// Measurement plumbing of the end-to-end benchmark (astbench.cpp): the
/// nearest-rank percentiles and their tail rule, the seeded request
/// schedules, the in-memory span recorder with self times, and the
/// metric table that is printed as the final JSON line.  Header-only so
/// the self-tests (selftest.cpp) exercise exactly this code.

#include "gen/rng.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace astbench {

using steady = std::chrono::steady_clock;

inline double seconds_between(steady::time_point a, steady::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample: the
/// smallest value with at least q * n samples at or below it.  Returns NaN
/// for an empty sample so a missing measurement can never read as zero.
inline double percentile(std::vector<double> xs, double q) {
    if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(xs.begin(), xs.end());
    const auto n = static_cast<double>(xs.size());
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * n - 1e-9)));
    return xs[std::min(rank, xs.size()) - 1];
}

inline double median(std::vector<double> xs) {
    return percentile(std::move(xs), 0.5);
}

/// Samples strictly above the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
    if (n == 0) return 0;
    const auto rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
    return n - std::min(rank, n);
}

/// A tail percentile is reported only with at least ten samples beyond it.
inline bool tail_reportable(std::size_t n, double q) {
    return samples_beyond(n, q) >= 10;
}

// ------------------------------------------------------ seeded schedules

/// Seeded permutation of [0, n) (Fisher-Yates over the library's
/// xoshiro256**, so the order is identical on every platform).
inline std::vector<std::size_t> seeded_order(std::size_t n,
                                             std::uint64_t seed) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    astclk::gen::rng r(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[static_cast<std::size_t>(r.below(i))]);
    return order;
}

/// Poisson arrival offsets (seconds from stream start) at `rate` per
/// second over [0, horizon), conditioned on their count: round(rate *
/// horizon) uniform times, sorted.  The gaps stay exponential-like, and
/// every seed offers exactly the same load, so throughput figures do not
/// move with the arrival count.
inline std::vector<double> poisson_arrivals(double rate, double horizon,
                                            std::uint64_t seed) {
    const auto n = static_cast<std::size_t>(std::llround(rate * horizon));
    std::vector<double> at(n);
    astclk::gen::rng r(seed);
    for (double& t : at) t = r.uniform() * horizon;
    std::sort(at.begin(), at.end());
    return at;
}

/// Derive an independent stream seed from the run seed and a label.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label) {
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + label;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ----------------------------------------------------------------- spans

/// One traced interval: a call into a layer, recorded around the call
/// from the benchmark's side.  `parent` indexes the recorder's span list
/// (-1 for a request's root span); spans of one request share `request`.
struct span {
    std::string name;
    double start = 0.0;  ///< seconds since the recorder's epoch
    double end = 0.0;
    int parent = -1;
    int request = -1;
};

/// Thread-safe in-memory span list; written out once when the run ends.
class span_recorder {
  public:
    span_recorder() : epoch_(steady::now()) {}

    [[nodiscard]] double now() const {
        return seconds_between(epoch_, steady::now());
    }
    [[nodiscard]] double at(steady::time_point t) const {
        return seconds_between(epoch_, t);
    }

    /// Append a finished span; returns its index (usable as a parent).
    int add(std::string name, double start, double end, int parent,
            int request) {
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back({std::move(name), start, end, parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }

    /// Open a span whose end is filled in by close(); lets children name
    /// their parent before the parent finishes.
    int open(std::string name, int parent, int request) {
        return add(std::move(name), now(), now(), parent, request);
    }
    void close(int id) {
        const double t = now();
        std::lock_guard<std::mutex> lk(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }
    [[nodiscard]] double duration(int id) const {
        std::lock_guard<std::mutex> lk(mu_);
        const span& s = spans_[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }

    [[nodiscard]] std::vector<span> snapshot() const {
        std::lock_guard<std::mutex> lk(mu_);
        return spans_;
    }

  private:
    steady::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (the union, so children that ran in
/// parallel are not subtracted twice).
inline std::vector<double> self_times(const std::vector<span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const span& s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start, hi = spans[i].end;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a) continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open) covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open) covered += cur_hi - cur_lo;
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

/// Write spans as one JSON array (name, start, end, self, parent,
/// request), one span per line.
inline void write_spans(std::ostream& out, const std::vector<span>& spans) {
    const std::vector<double> self = self_times(spans);
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        out << "  {\"name\": \"" << s.name << "\", \"start\": " << s.start
            << ", \"end\": " << s.end << ", \"self\": " << self[i]
            << ", \"parent\": " << s.parent << ", \"request\": " << s.request
            << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

// --------------------------------------------------------------- metrics

/// True when `name` is a legal metric name: [A-Za-z0-9_.-]+.
inline bool valid_metric_name(const std::string& name) {
    if (name.empty()) return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

struct metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/// The run's result line: {"correct", "attempted", "failed", "metrics"}.
inline std::string result_json(bool correct, long long attempted,
                               long long failed,
                               const std::vector<metric>& metrics) {
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const metric& m = metrics[i];
        out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
}

}  // namespace astbench
