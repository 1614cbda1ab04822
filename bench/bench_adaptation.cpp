// E6 — dynamic boundary adaptation under a changing environment (Sec 1:
// "the resulting distributed program can adapt to its environment by
// dynamically altering its distribution boundaries"; Sec 4 future work).
//
// A Worker chats with a Source (six samples per process() call), and the
// environment moves the Worker between nodes every two phases.  Both are
// singletons: the environment moves the Worker with migrate_singleton, so
// discover() follows it and no forwarding chain builds up.  Three
// strategies over identical workloads:
//
//   pinned-0   — the Source stays on node 0 (never adapts)
//   pinned-1   — the Source stays on node 1
//   adaptive   — the Source starts on node 0 and the AdaptationEngine,
//                ticked after every process() call (the tick gates itself
//                on the policy interval), moves it toward its callers
//
// The table prints per-phase virtual time per strategy; adaptive should
// track the cheaper placement within each phase that follows an
// environment change, at the price of one migration per change.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;

constexpr const char* kApp = R"RIR(
class Source {
  static field reading I
  static method sample ()I {
    getstatic Source.reading I
    const 3
    add
    dup
    putstatic Source.reading I
    returnvalue
  }
}
class Worker {
  static field total J
  static method process ()J {
    locals 1
    const 0
    store 0
  Top:
    load 0
    const 6
    cmpge
    iftrue Done
    getstatic Worker.total J
    invokestatic Source.sample ()I
    conv J
    add
    putstatic Worker.total J
    load 0
    const 1
    add
    store 0
    goto Top
  Done:
    getstatic Worker.total J
    returnvalue
  }
}
)RIR";

struct RunResult {
    std::vector<std::uint64_t> phase_us;
    std::uint64_t total_us = 0;
    std::uint64_t migrations = 0;
    std::int64_t outcome = 0;
};

constexpr int kPhases = 8;
constexpr int kCallsPerPhase = 12;

/// strategy: -1 = adaptive, otherwise the node the Source is pinned to.
RunResult run(int strategy) {
    model::ClassPool pool = bench::assemble_app(kApp);
    runtime::System system(pool);
    system.add_node();
    system.add_node();
    system.policy().set_singleton_home("Source", strategy < 0 ? 0 : strategy, "RMI");
    system.policy().set_singleton_home("Worker", 0, "RMI");
    if (strategy < 0) {
        // One process() call's six samples are evidence enough.
        runtime::AdaptPolicy policy;
        policy.min_window_calls = 4;
        system.enable_adaptation(policy);
    }

    RunResult result;
    net::NodeId worker_node = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
        net::NodeId want = (phase / 2) % 2 == 0 ? 1 : 0;  // environment change
        if (want != worker_node) {
            system.migrate_singleton("Worker", want, "RMI");
            worker_node = want;
        }
        std::uint64_t migrations_before = system.migrations();

        std::uint64_t start = system.network().now_us();
        for (int k = 0; k < kCallsPerPhase; ++k) {
            result.outcome =
                system.call_static(worker_node, "Worker", "process", "()J").as_long();
            system.adaptation_tick();  // no-op for the pinned strategies
        }
        std::uint64_t cost = system.network().now_us() - start;
        result.phase_us.push_back(cost);
        result.total_us += cost;
        result.migrations += system.migrations() - migrations_before;
    }
    return result;
}

void print_series() {
    RunResult pinned0 = run(0);
    RunResult pinned1 = run(1);
    RunResult adaptive = run(-1);

    std::printf("per-phase virtual time (us); worker hops nodes every 2 phases\n\n");
    std::printf("%-10s", "phase");
    for (int p = 0; p < kPhases; ++p) std::printf("%9d", p);
    std::printf("%12s\n", "total");
    auto row = [&](const char* name, const RunResult& r) {
        std::printf("%-10s", name);
        for (std::uint64_t us : r.phase_us) std::printf("%9llu",
                                                        static_cast<unsigned long long>(us));
        std::printf("%12llu\n", static_cast<unsigned long long>(r.total_us));
    };
    row("pinned-0", pinned0);
    row("pinned-1", pinned1);
    row("adaptive", adaptive);
    std::printf("\nadaptive used %llu source migrations; identical results: %s\n\n",
                static_cast<unsigned long long>(adaptive.migrations),
                (pinned0.outcome == adaptive.outcome && pinned1.outcome == adaptive.outcome)
                    ? "yes"
                    : "NO");
}

void BM_PinnedWorstCase(benchmark::State& state) {
    for (auto _ : state) benchmark::DoNotOptimize(run(0).total_us);
}
BENCHMARK(BM_PinnedWorstCase);

void BM_Adaptive(benchmark::State& state) {
    std::uint64_t virt = 0;
    for (auto _ : state) {
        RunResult r = run(-1);
        virt = r.total_us;
        benchmark::DoNotOptimize(virt);
    }
    state.counters["virtual_total_us"] = static_cast<double>(virt);
}
BENCHMARK(BM_Adaptive);

void emit_summary() {
    RunResult pinned0 = run(0);
    RunResult pinned1 = run(1);
    RunResult adaptive = run(-1);
    bench::JsonSummary("E6")
        .add("pinned0_total_us", pinned0.total_us)
        .add("pinned1_total_us", pinned1.total_us)
        .add("adaptive_total_us", adaptive.total_us)
        .add("adaptive_migrations", adaptive.migrations)
        .add("identical_results",
             std::string(pinned0.outcome == adaptive.outcome &&
                                 pinned1.outcome == adaptive.outcome
                             ? "yes"
                             : "no"))
        .emit();
}

}  // namespace

int main(int argc, char** argv) {
    std::printf("=== E6: adapting distribution boundaries to the environment ===\n");
    std::printf(
        "expected shape: adaptive follows the worker within one process() call\n"
        "of each environment change; pinned placements pay full remote chatter\n"
        "half the time.\n\n");
    print_series();
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    emit_summary();
    return 0;
}
