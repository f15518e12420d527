/// \file selftest.cpp
/// Self-tests of the benchmark's own measurement code (harness.hpp,
/// workloads.hpp).  Usage: astbench_selftest path/to/BENCHMARK.json
/// Prints one line per failed check and exits non-zero if any failed.

#include "harness.hpp"
#include "workloads.hpp"

#include "gen/grouping.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace astbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::cout << "FAIL: " << what << "\n";
    }
}

void test_percentiles() {
    std::vector<double> ten;
    for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted on purpose
    expect(percentile(ten, 0.5) == 5.0, "nearest-rank p50 of 1..10 is 5");
    expect(percentile(ten, 0.9) == 9.0, "nearest-rank p90 of 1..10 is 9");
    expect(percentile(ten, 1.0) == 10.0, "p100 of 1..10 is 10");
    expect(percentile({3.0, 1.0, 2.0}, 0.5) == 2.0, "p50 of {1,2,3} is 2");
    expect(percentile({7.0}, 0.9) == 7.0, "p90 of one sample is the sample");
    expect(std::isnan(percentile({}, 0.5)), "empty sample gives NaN");
    expect(samples_beyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
    expect(samples_beyond(99, 0.9) == 9, "99 samples: 9 beyond p90");
    expect(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
    expect(tail_reportable(100, 0.9), "p90 reportable from 100 samples");
    expect(!tail_reportable(99, 0.9), "p90 not reportable from 99 samples");
    expect(!tail_reportable(999, 0.99), "p99 not reportable from 999");
}

void test_seeded_determinism() {
    const auto a = seeded_order(50, 7), b = seeded_order(50, 7);
    const auto c = seeded_order(50, 8);
    expect(a == b, "same seed gives the same request order");
    expect(a != c, "another seed gives another request order");
    expect(std::set<std::size_t>(a.begin(), a.end()).size() == 50,
           "request order is a permutation");

    const auto p = poisson_arrivals(60.0, 20.0, 7);
    const auto q = poisson_arrivals(60.0, 20.0, 7);
    const auto r = poisson_arrivals(60.0, 20.0, 8);
    expect(p == q, "same seed gives the same arrival times");
    expect(p != r, "another seed gives other arrival times");
    expect(p.size() == 1200, "arrival count is rate x horizon");
    expect(p.front() >= 0.0 && p.back() < 20.0 &&
               std::is_sorted(p.begin(), p.end()),
           "arrivals are sorted inside the horizon");
    double gaps = 0.0, gaps2 = 0.0;
    for (std::size_t i = 1; i < p.size(); ++i) {
        const double g = p[i] - p[i - 1];
        gaps += g;
        gaps2 += g * g;
    }
    const double mean = gaps / static_cast<double>(p.size() - 1);
    const double cv = std::sqrt(gaps2 / static_cast<double>(p.size() - 1) -
                                mean * mean) / mean;
    expect(std::fabs(cv - 1.0) < 0.15, "gaps are exponential-like (CV ~ 1)");
    expect(derive_seed(7, 1) != derive_seed(7, 2) &&
               derive_seed(7, 1) == derive_seed(7, 1),
           "derived seeds are stable and label-dependent");

    // Instances are fixed per workload and independent of the run seed:
    // synthesis twice gives identical sinks and groups.
    for (const auto& name : workload_names()) {
        const workload w = make_workload(name);
        expect(!w.shapes.empty(), name + " has request shapes");
        const shape& s = w.shapes.front();
        auto one = gen::generate(s.spec);
        auto two = gen::generate(s.spec);
        astclk::gen::apply_intermingled_groups(one, s.groups, s.grouping_seed);
        astclk::gen::apply_intermingled_groups(two, s.groups, s.grouping_seed);
        bool same = one.sinks.size() == two.sinks.size();
        for (std::size_t i = 0; same && i < one.sinks.size(); ++i)
            same = one.sinks[i].loc.x == two.sinks[i].loc.x &&
                   one.sinks[i].loc.y == two.sinks[i].loc.y &&
                   one.sinks[i].group == two.sinks[i].group;
        expect(same, name + " instance synthesis is deterministic");
        expect(one.num_groups == s.groups, name + " group count applied");
    }
}

void test_self_time() {
    // request [0,10] with children A [1,4] and B [3,6] (overlapping, as a
    // parallel fan-out's children do) and A's child [2,3]; a child that
    // overhangs its parent is clipped to the parent's interval.
    std::vector<span> s{
        {"request", 0.0, 10.0, -1, 0},
        {"A", 1.0, 4.0, 0, 0},
        {"B", 3.0, 6.0, 0, 0},
        {"A.child", 2.0, 3.0, 1, 0},
        {"other", 20.0, 30.0, -1, 1},
        {"overhang", 25.0, 35.0, 4, 1},
    };
    const auto self = self_times(s);
    expect(std::fabs(self[0] - 5.0) < 1e-12, "root self = 10 - union(1..6)");
    expect(std::fabs(self[1] - 2.0) < 1e-12, "A self = 3 - 1");
    expect(std::fabs(self[2] - 3.0) < 1e-12, "B self = its duration");
    expect(std::fabs(self[3] - 1.0) < 1e-12, "leaf self = its duration");
    expect(std::fabs(self[4] - 5.0) < 1e-12, "overhanging child is clipped");

    span_recorder rec;
    const int root = rec.open("request", -1, 3);
    rec.add("child", rec.now(), rec.now(), root, 3);
    rec.close(root);
    const auto snap = rec.snapshot();
    expect(snap.size() == 2 && snap[1].parent == root && snap[1].request == 3,
           "recorder keeps parent and request ids");
    expect(rec.duration(root) >= 0.0, "closed span has a duration");

    std::ostringstream out;
    write_spans(out, {{"A", 1.0, 4.0, -1, 0}, {"A.child", 2.0, 3.0, 0, 0}});
    const std::string text = out.str();
    expect(text.find("\"name\": \"A\", \"start\": 1, \"end\": 4, "
                     "\"self\": 2, \"parent\": -1") != std::string::npos,
           "span dump carries self time");
}

void test_metric_names(const std::string& benchmark_json) {
    std::ifstream f(benchmark_json);
    expect(static_cast<bool>(f), "BENCHMARK.json readable at " + benchmark_json);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    const auto listed = [&](const std::string& name) {
        return text.find("\"name\": \"" + name + "\"") != std::string::npos;
    };
    std::set<std::string> seen;
    for (const auto* set : {&end_to_end_metrics(), &per_layer_metrics()})
        for (const metric_def& m : *set) {
            expect(valid_metric_name(m.name),
                   std::string("metric name is legal: ") + m.name);
            expect(seen.insert(m.name).second,
                   std::string("metric name used once: ") + m.name);
            expect(listed(m.name),
                   std::string("metric in BENCHMARK.json: ") + m.name);
        }
    for (const auto& w : workload_names())
        expect(listed(w), "workload in BENCHMARK.json: " + w);
    expect(!valid_metric_name("bad name") && !valid_metric_name(""),
           "illegal names are rejected");

    const std::string line =
        result_json(true, 3, 0, {{"latency_p50_s", "s", 0.25}});
    expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                   "\"metrics\": {\"latency_p50_s\": {\"value\": 0.25, "
                   "\"unit\": \"s\"}}}",
           "result line format");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::cerr << "usage: astbench_selftest BENCHMARK.json\n";
        return 2;
    }
    test_percentiles();
    test_seeded_determinism();
    test_self_time();
    test_metric_names(argv[1]);
    std::cout << (failures == 0 ? "selftest: all checks passed\n"
                                : "selftest: failures\n");
    return failures == 0 ? 0 : 1;
}
