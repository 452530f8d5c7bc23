// twipbench: the end-to-end benchmark of the threaded shard tier on the
// §5.1 Twip workload. See README.md for the workloads, metrics and how
// to read them.
//
//   twipbench --workload twip-read|twip-write|twip-cold --seed N
//             --seconds S --trace 0|1 --wal-dir DIR [--spans FILE]
//             [--smoke]
//
// Prints the run context, every metric by name and unit with its sample
// count, the ops attempted and failed per op type and each output check,
// and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics, or with --trace 1 the
// per-layer ones.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hh"

using namespace twipbench;

namespace {

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = false;
#else
constexpr bool kOptimizedBuild = true;
#endif

std::string fs_type(const std::string& path) {
    struct statfs st;
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0x858458f6: return "ramfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        return buf;
    }
    }
}

void print_metric(const Metric& m) {
    if (m.samples)
        std::printf("  %-40s %16.6f %-6s (n=%llu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    else
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int usage() {
    std::fprintf(stderr,
                 "usage: twipbench --workload twip-read|twip-write|twip-cold "
                 "--seed N --seconds S --trace 0|1 --wal-dir DIR "
                 "[--spans FILE] [--smoke]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, wal_root, spans;
    RunConfig rc;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--workload" && (v = value())) {
            workload = v;
        } else if (a == "--seed" && (v = value())) {
            rc.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds" && (v = value())) {
            rc.seconds = std::atof(v);
        } else if (a == "--trace" && (v = value())) {
            rc.trace = std::atoi(v) != 0;
        } else if (a == "--wal-dir" && (v = value())) {
            wal_root = v;
        } else if (a == "--spans" && (v = value())) {
            rc.spans_path = v;
        } else {
            return usage();
        }
    }
    if (!find_spec(workload, smoke, rc.spec) || wal_root.empty()
        || rc.seconds <= 0)
        return usage();
    if (!kOptimizedBuild) {
        std::fprintf(stderr, "twipbench: refusing to measure a build "
                             "without optimization and NDEBUG\n");
        return 3;
    }

    // This run's private scratch: WAL directories live here and are
    // removed when the run ends.
    rc.wal_dir = wal_root + "/" + workload + "-" + std::to_string(getpid());
    std::filesystem::remove_all(rc.wal_dir);
    std::filesystem::create_directories(rc.wal_dir);
    struct Cleanup {
        std::string dir;
        ~Cleanup() {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    } cleanup{rc.wal_dir};

    const Spec& s = rc.spec;
    std::printf(
        "context: workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
        "build=%s ndebug=1 optimized=1 compiler=\"%s\" nproc=%u shards=%d "
        "wal_fs=%s wal_fsync=0\n",
        s.name.c_str(), static_cast<unsigned long long>(rc.seed),
        rc.seconds, rc.trace ? 1 : 0, smoke ? 1 : 0, TWIPBENCH_BUILD_TYPE,
        __VERSION__, std::thread::hardware_concurrency(), kShards,
        fs_type(rc.wal_dir).c_str());
    std::printf(
        "inputs: users=%u active=%u avg_following=%u setup_posts=%u "
        "mix=%u:%u:%u (check:post:subscribe) value_bytes=%u warm=%d "
        "durable=%d window=%zu batch=%zu open_rate=%g/s trace_ops=%u "
        "setup_repeats=%d\n",
        s.users, s.active, kFollowing, s.seed_posts, s.check_w, s.post_w,
        s.sub_w, kValueBytes, s.warm ? 1 : 0, s.durable ? 1 : 0, kWindow,
        kBatch, s.open_rate, s.trace_ops, s.setup_repeats);
    std::fflush(stdout);

    Report report;
    run_threaded(rc, report);
    if (rc.trace)
        run_traced(rc, report);

    std::printf("end-to-end:\n");
    for (const Metric& m : report.end_to_end)
        print_metric(m);
    std::printf("reference (not gated):\n");
    for (const Metric& m : report.reference)
        print_metric(m);
    if (rc.trace) {
        std::printf("per-layer:\n");
        for (const Metric& m : report.layer)
            print_metric(m);
    }
    uint64_t attempted = 0, failed = report.unattributed_failures;
    for (int k = 0; k != kKinds; ++k) {
        std::printf("ops %-10s attempted=%llu failed=%llu\n", kind_name(k),
                    static_cast<unsigned long long>(report.attempted[k]),
                    static_cast<unsigned long long>(report.failed[k]));
        attempted += report.attempted[k];
        failed += report.failed[k];
    }
    bool correct = true;
    for (const auto& [name, bad] : report.checks) {
        std::printf("check %-60s %s (%llu)\n", name.c_str(),
                    bad ? "FAIL" : "ok", static_cast<unsigned long long>(bad));
        correct = correct && bad == 0;
    }

    const std::vector<Metric>& out =
        rc.trace ? report.layer : report.end_to_end;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i != out.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", out[i].name.c_str(), out[i].value,
                    out[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
