// What one benchmark run reports, and the two halves that fill it: the
// timed passes on worker threads (passes.cc) and the single-threaded
// traced replay (trace.cc).
#ifndef TWIPBENCH_BENCH_HH
#define TWIPBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hh"

namespace twipbench {

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;  // observations behind the value (0 = a count)
};

struct Report {
    std::vector<Metric> end_to_end;  // printed in the JSON without --trace
    std::vector<Metric> reference;   // printed as lines only
    std::vector<Metric> layer;       // printed in the JSON with --trace 1
    uint64_t attempted[kKinds] = {0, 0, 0};
    uint64_t failed[kKinds] = {0, 0, 0};
    // Named output checks; each nonzero count is a failure.
    std::vector<std::pair<std::string, uint64_t>> checks;

    void add_check(const std::string& name, uint64_t bad, int kind = -1) {
        checks.emplace_back(name, bad);
        if (kind >= 0)
            failed[kind] += bad;
        else
            unattributed_failures += bad;
    }
    uint64_t unattributed_failures = 0;
};

struct RunConfig {
    Spec spec;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string wal_dir;     // this run's private scratch directory
    std::string spans_path;  // where the traced run writes its spans
};

// Set up (spec.setup_repeats times), run the closed- and open-loop
// passes on worker threads, then check every output against the oracle.
// Adds the end-to-end metrics, the process/generator layer metrics and
// the set-up phase metrics.
void run_threaded(const RunConfig& rc, Report& report);

// Replay the stream's first spec.trace_ops ops on one thread with spans
// around every layer's entry points; adds the per-layer metrics.
void run_traced(const RunConfig& rc, Report& report);

// Percentile of an unsorted sample (sorts in place); 0 when empty.
double percentile(std::vector<uint64_t>& v, double q);
double median(std::vector<double> v);

}  // namespace twipbench

#endif
