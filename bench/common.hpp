#pragma once

/// \file common.hpp
/// Shared plumbing for the bench binaries that regenerate the paper's
/// tables and figures: benchmark construction, the row format of Tables
/// I/II, and small formatting helpers.

#include "core/route_service.hpp"
#include "core/router.hpp"
#include "eval/elmore_eval.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "io/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

namespace astclk::bench {

/// Route a whole batch through the service, aborting loudly on any
/// non-ok status — a bench must never print a table with silently missing
/// rows.
inline std::vector<core::route_result> run_batch(
    core::route_service& svc,
    const std::vector<core::routing_request>& reqs) {
    auto results = svc.route_batch(reqs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
            std::cerr << "batch request " << i << " failed ("
                      << core::to_string(results[i].status)
                      << "): " << results[i].status_message << "\n";
            std::exit(1);
        }
    }
    return results;
}

/// One machine-readable measurement row, serialised to the BENCH_*.json
/// files that track the perf trajectory across PRs.
struct perf_record {
    std::string bench;    ///< benchmark id, e.g. "engine_reduce"
    std::string backend;  ///< series tag, e.g. "grid", "t1" or "scan"
    int n = 0;            ///< instance size (sinks)
    double seconds = 0.0; ///< best wall-clock of the repetitions
    int merges = 0;
    double merges_per_sec = 0.0;
    double wirelength = 0.0;
    /// Per-request latency percentiles (seconds), streaming benches only
    /// (zero elsewhere): submit-to-completion, queueing included.
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Gated seconds rows only (zero elsewhere): the median over
    /// repetitions of (repetition time / calibration-kernel time measured
    /// just before it) — micro_perf.cpp rep_calibration, DESIGN.md §9.
    double calib_ratio = 0.0;
};

/// Nearest-rank percentile of an ascending-sorted sample (q in [0, 1]);
/// sort once, then index p50/p95/p99 without re-sorting per quantile.
inline double percentile_sorted(const std::vector<double>& sorted_xs,
                                double q) {
    if (sorted_xs.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::max(
        0.0, std::ceil(q * static_cast<double>(sorted_xs.size())) - 1.0));
    return sorted_xs[std::min(rank, sorted_xs.size() - 1)];
}

/// Write records as a JSON array (no external deps; fixed schema).
/// Returns false when the file could not be opened or a write failed —
/// callers must not report success on a stale/missing file.
[[nodiscard]] inline bool write_perf_json(
    const std::string& path, const std::vector<perf_record>& records) {
    std::ofstream out(path);
    if (!out) return false;
    // Full double precision: the file exists to diff runs across PRs, so
    // small drifts must not vanish into stream-default rounding.
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const perf_record& r = records[i];
        out << "  {\"bench\": \"" << r.bench << "\", \"backend\": \""
            << r.backend << "\", \"n\": " << r.n << ", \"seconds\": "
            << r.seconds << ", \"merges\": " << r.merges
            << ", \"merges_per_sec\": " << r.merges_per_sec
            << ", \"wirelength\": " << r.wirelength
            << ", \"p50\": " << r.p50 << ", \"p95\": " << r.p95
            << ", \"p99\": " << r.p99
            << ", \"calib_ratio\": " << r.calib_ratio << "}"
            << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "]\n";
    out.flush();
    return out.good();
}

/// The group counts evaluated in Tables I and II.
inline const std::vector<int> kpaper_group_counts{4, 6, 8, 10};

/// The EXT-BST baseline bound used throughout the paper's experiments.
inline constexpr double kext_bst_bound = 10e-12;  // 10 ps

struct row_data {
    std::string circuit;
    int groups = 1;
    std::string algorithm;
    double wirelen = 0.0;
    double reduction = 0.0;  ///< vs the EXT-BST row of the same circuit
    double max_skew_ps = 0.0;
    double intra_skew_ps = 0.0;
    double cpu_s = 0.0;
};

inline io::table paper_table() {
    return io::table({"Circuit", "#groups", "Algorithm", "Wirelen",
                      "Reduction", "MaxSkew(ps)", "IntraSkew(ps)", "CPU(s)"});
}

inline void add_row(io::table& t, const row_data& r, bool with_reduction) {
    t.add_row({r.circuit, std::to_string(r.groups), r.algorithm,
               io::table::integer(r.wirelen),
               with_reduction ? io::table::percent(r.reduction) : "",
               io::table::fixed(r.max_skew_ps, 1),
               io::table::fixed(r.intra_skew_ps, 4),
               io::table::fixed(r.cpu_s, 2)});
}

inline row_data measure(const std::string& circuit, int groups,
                        const std::string& algorithm,
                        const core::route_result& route,
                        const topo::instance& inst,
                        const rc::delay_model& model, double baseline_wl) {
    const auto ev = eval::evaluate(route.tree, inst, model);
    row_data r;
    r.circuit = circuit;
    r.groups = groups;
    r.algorithm = algorithm;
    r.wirelen = route.wirelength;
    r.reduction = baseline_wl > 0.0
                      ? (baseline_wl - route.wirelength) / baseline_wl
                      : 0.0;
    r.max_skew_ps = rc::to_ps(ev.global_skew);
    r.intra_skew_ps = rc::to_ps(ev.max_intra_group_skew);
    r.cpu_s = route.cpu_seconds;
    return r;
}

}  // namespace astclk::bench
