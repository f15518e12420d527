// Command-line router over the routing service: read an instance file,
// build a routing_request, submit it through route_service's streaming
// API (prioritised worker pool), verify, print the report, optionally
// export SVG/JSON.
//
//   $ ./route_cli INSTANCE [--algo ast|zst|bst|sep] [--bound PS]
//                 [--mode auto|windowed|soft] [--threads N]
//                 [--deadline MS] [--shards K|auto] [--retries N]
//                 [--degrade] [--fault-seed S] [--svg OUT.svg]
//                 [--json OUT.json]
//
// --bound PS is the skew bound in picoseconds: the per-group bound of
// AST-DME (default 0) or the global bound of EXT-BST (default 10); the
// route is verified against that same bound.  --threads 0 (default) uses
// the hardware concurrency; multi-merge engine rounds fan out across the
// pool, and results are bit-identical to --threads 1.  --shards K routes
// through the sharded reduction (partition + parallel sub-reduce +
// associative stitch; "auto" or 0 picks a count from the instance size
// and the thread pool, 1 — the default — keeps the monolithic engine;
// ledger-backed AST modes always reduce monolithically).  --deadline
// bounds the route's wall-clock: an expired deadline stops the engine at
// the next merge-round checkpoint and the run exits with status
// `deadline_exceeded`.  --algo takes a strategy's canonical name
// (zst_dme, ext_bst, ast_dme, separate_stitch) or its short alias.
// Numeric flags parse strictly: a value with trailing characters, or an
// out-of-range one, exits 2; a NaN or negative --bound is rejected as
// `invalid skew spec` before routing.
//
// Resilience (DESIGN.md §10): --retries N grants the request N total
// attempts with bounded exponential backoff on transient faults;
// --degrade arms the graceful-degradation ladder and partial-result
// salvage, so deadline/fault casualties come back as a valid (re-verified)
// tree tagged `degraded` with the rung and reason printed; --fault-seed S
// attaches a seeded deterministic fault plan (fault_plan::seeded) for
// drilling the machinery — the same seed fires the same faults at the
// same checkpoints every run.  Exit status: 0 when routing and
// verification succeed at full fidelity, 4 for a verified degraded
// result, 3 when the request was cancelled or timed out, 1 on errors.

#include "core/route_service.hpp"
#include "eval/report.hpp"
#include "eval/skew_matrix.hpp"
#include "io/instance_io.hpp"
#include "io/svg.hpp"
#include "io/tree_json.hpp"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

using namespace astclk;

namespace {

/// The whole of `v` as a number (strtod syntax, so "inf" and "nan" too);
/// nullopt otherwise.
std::optional<double> parse_number(const std::string& v) {
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') return std::nullopt;
    return x;
}

/// The whole of `v` as a base-10 integer in [lo, hi]; nullopt otherwise.
std::optional<long long> parse_integer(const std::string& v, long long lo,
                                       long long hi) {
    char* end = nullptr;
    errno = 0;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE || x < lo ||
        x > hi)
        return std::nullopt;
    return x;
}

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " INSTANCE [--algo ast|zst|bst|sep] [--bound PS]\n"
                 "          [--mode auto|windowed|soft]"
                 " [--threads N] [--deadline MS]\n"
                 "          [--shards K|auto] [--retries N] [--degrade]"
                 " [--fault-seed S]\n"
                 "          [--svg OUT.svg] [--json OUT.json]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage(argv[0]);
    std::string path = argv[1];
    std::string algo = "ast";
    core::ast_mode mode = core::ast_mode::automatic;
    std::string svg_out, json_out;
    std::optional<double> bound_ps;  // unset: AST 0 ps, EXT-BST 10 ps
    int threads = 0;
    double deadline_ms = 0.0;  // <= 0: none
    int shards = 1;
    int retries = 1;
    bool degrade = false;
    long long fault_seed = -1;  // < 0: no fault plan
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const auto need = [&](const char* opt) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << opt << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        // A value that does not parse whole, or lies out of range, exits 2.
        const auto reject = [&] {
            std::cerr << a << ": bad value \"" << argv[i] << "\"\n";
            return usage(argv[0]);
        };
        if (a == "--algo")
            algo = need("--algo");
        else if (a == "--bound") {
            bound_ps = parse_number(need("--bound"));
            if (!bound_ps) return reject();
        } else if (a == "--mode") {
            // Parsed for every --algo; only AST-DME reads it.
            const std::string v = need("--mode");
            if (v == "auto")
                mode = core::ast_mode::automatic;
            else if (v == "windowed")
                mode = core::ast_mode::windowed;
            else if (v == "soft")
                mode = core::ast_mode::soft_ledger;
            else
                return reject();
        } else if (a == "--threads") {
            const auto v = parse_integer(need("--threads"), 0, INT_MAX);
            if (!v) return reject();
            threads = static_cast<int>(*v);
        } else if (a == "--deadline") {
            // Bounded so the steady-clock deadline cannot overflow.
            const auto v = parse_number(need("--deadline"));
            if (!v || !(std::fabs(*v) <= 1e12)) return reject();
            deadline_ms = *v;
        } else if (a == "--shards") {
            // "auto"/0 = heuristic, K >= 1 = fixed count.
            const std::string v = need("--shards");
            const auto k = v == "auto" ? std::optional<long long>(0)
                                       : parse_integer(v, 0, INT_MAX);
            if (!k) return reject();
            shards = static_cast<int>(*k);
        } else if (a == "--retries") {
            const auto v = parse_integer(need("--retries"), 1, INT_MAX);
            if (!v) return reject();
            retries = static_cast<int>(*v);
        } else if (a == "--degrade")
            degrade = true;
        else if (a == "--fault-seed") {
            const auto v =
                parse_integer(need("--fault-seed"), LLONG_MIN, LLONG_MAX);
            if (!v) return reject();
            fault_seed = *v;
        } else if (a == "--svg")
            svg_out = need("--svg");
        else if (a == "--json")
            json_out = need("--json");
        else
            return usage(argv[0]);
    }

    topo::instance inst;
    try {
        inst = io::load_instance(path);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }

    core::routing_request req;
    req.instance = &inst;
    req.options.engine.shards = shards;
    const auto id = core::parse_strategy(algo);
    if (!id.has_value()) return usage(argv[0]);
    req.strategy = *id;
    req.mode = mode;
    core::skew_spec constraint = core::skew_spec::zero();
    if (req.strategy == core::strategy_id::ext_bst) {
        req.spec = core::skew_spec::uniform(bound_ps.value_or(10.0) * 1e-12);
        constraint = req.spec;
    } else if (req.strategy == core::strategy_id::ast_dme) {
        req.spec = core::skew_spec::uniform(bound_ps.value_or(0.0) * 1e-12);
        constraint = req.spec;
    }

    // The fault plan is borrowed by the request's cancel token, so it must
    // outlive the route (and the service draining it).
    core::fault_plan faults = core::fault_plan::seeded(
        fault_seed >= 0 ? static_cast<std::uint64_t>(fault_seed) : 0,
        fault_seed >= 0 ? 2 : 0);
    if (fault_seed >= 0) req.options.engine.cancel.set_faults(&faults);

    core::service_options sopt;
    sopt.threads = threads;
    core::route_service service(sopt);
    core::submit_options sub;
    sub.max_attempts = retries;
    sub.degrade = degrade;
    if (deadline_ms > 0.0)
        sub.deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               deadline_ms));
    std::cout << "routing " << path << " [" << algo << "]\n";
    core::route_handle handle = service.submit(req, sub);
    core::route_result route = handle.wait();
    if (!route.usable()) {
        std::cerr << "route " << core::to_string(route.status) << ": "
                  << route.status_message << " (after " << route.cpu_seconds
                  << " s, " << route.attempts << " attempt"
                  << (route.attempts == 1 ? "" : "s") << ")\n";
        return route.status == core::route_status::error ? 1 : 3;
    }
    const bool degraded = route.status == core::route_status::degraded;
    const core::router_options& opt = req.options;

    const auto ev = eval::evaluate(route.tree, inst, opt.model);
    std::cout << eval::format_report(ev, inst);
    std::cout << "  cpu             : " << route.cpu_seconds << " s ("
              << route.threads_used << " thread"
              << (route.threads_used == 1 ? "" : "s") << ")\n";
    std::cout << "  merges          : " << route.stats.merges << " ("
              << route.stats.disjoint_merges << " cross-group, "
              << route.stats.root_snakes << " snaked, "
              << route.stats.interior_snakes << " interior snakes)\n";
    const auto& st = route.stats;
    if (st.shards > 0)
        std::cout << "  shards          : " << st.shards
                  << " sub-reductions\n";
    if (route.attempts > 1)
        std::cout << "  attempts        : " << route.attempts << '\n';
    if (degraded) {
        const auto& deg = route.degradation;
        std::cout << "  degraded        : rung "
                  << static_cast<int>(deg.rung) << " ("
                  << core::to_string(deg.rung) << ") — " << deg.reason
                  << '\n';
        if (deg.rung == core::degrade_rung::salvaged)
            std::cout << "  salvage         : " << deg.salvaged_shards
                      << " sub-trees recovered, " << deg.greedy_shards
                      << " completed greedily\n";
    }

    eval::verify_options vopt;
    if (degraded)
        vopt.skew_tolerance = route.stats.worst_violation + 1e-15;
    else if (req.strategy != core::strategy_id::ast_dme ||
             mode != core::ast_mode::windowed)
        vopt.skew_tolerance = 1e-15;
    else
        vopt.skew_tolerance = route.stats.worst_violation + 1e-15;
    const auto vr = eval::verify_route(route, inst, opt.model, constraint,
                                       vopt);
    std::cout << "  verification    : " << (vr.ok ? "OK" : vr.message)
              << '\n';

    if (!svg_out.empty()) {
        io::save_tree_svg(svg_out, route.tree, inst);
        std::cout << "  wrote " << svg_out << '\n';
    }
    if (!json_out.empty()) {
        io::save_tree_json(json_out, route.tree, inst);
        std::cout << "  wrote " << json_out << '\n';
    }
    return vr.ok ? (degraded ? 4 : 0) : 1;
}
