// perfbench — the repository benchmark binary.
//
//   perfbench --workload <rpc-small|rpc-bulk|rw-faulty|transform-jdk>
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints human-readable notes, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics on untraced runs, the per-layer metrics on traced runs (which
// also write their spans to --trace-out).  A wrong program output exits
// 1 without a result line; a usage error exits 2.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "support/log.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

RunOptions parse(int argc, char** argv) {
    RunOptions o;
    o.build_type = PERFBENCH_BUILD_TYPE;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = v;
                have_workload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(v);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(v);
            } else if (flag == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (flag == "--trace-out") {
                o.trace_path = v;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (o.workload != "transform-jdk" && !is_rpc_workload(o.workload))
        usage("unknown workload " + o.workload);
    if (!(o.seconds > 0)) usage("--seconds must be positive");
    if (o.trace && o.trace_path.empty())
        o.trace_path = "perfbench-trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const RunOptions opt = parse(argc, argv);
    // The program's own logging would land inside the timed phases.
    rafda::set_log_level(rafda::LogLevel::Error);
    const std::size_t threads =
        opt.workload == "transform-jdk" ? transform_jdk_threads() : std::size_t{1};
    std::printf(
        "perfbench config: {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
        "\"build_type\":%s,\"nproc\":%u,\"transform_threads\":%zu}\n",
        json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
        json_number(opt.seconds).c_str(), opt.trace ? 1 : 0, json_string(opt.build_type).c_str(),
        std::thread::hardware_concurrency(), threads);
    std::fflush(stdout);

    RunResult r;
    try {
        r = is_rpc_workload(opt.workload) ? run_rpc_workload(opt) : run_transform_jdk(opt);
    } catch (const OracleFailure& e) {
        std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }
    for (const std::string& n : r.notes) std::printf("perfbench note: %s\n", n.c_str());
    if (opt.trace) std::printf("perfbench trace: %s\n", opt.trace_path.c_str());

    std::string line = "{\"correct\": true, \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        if (i) line += ", ";
        line += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
                ", \"unit\": " + json_string(m.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
