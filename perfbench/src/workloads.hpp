// The four benchmark workloads and the pieces their runners share.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Host-side accounting of a measured phase.  Per-op storage is the
/// fixed-size histogram; per-episode figures are a short vector.
struct Measured {
    LogHistogram op_ns;       // every op of the run
    LogHistogram episode_ns;  // the current episode's ops
    std::vector<double> setup_s;
    /// One episode's measured phase.  Episodes of one input set (variant)
    /// are the same work, so their spread is host noise.
    struct Episode {
        int variant = 0;
        std::uint64_t ops = 0;
        double seconds = 0.0;
        double p50_ns = 0.0;
    };
    std::vector<Episode> episodes;
    double measured_s = 0.0;  // host seconds inside the measured calls
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;

    void record_op(std::uint64_t ns) {
        op_ns.record(ns);
        episode_ns.record(ns);
    }
    void record_episode(std::uint64_t episode_ops, double seconds, int variant = 0) {
        ops += episode_ops;
        measured_s += seconds;
        episodes.push_back({variant, episode_ops, seconds, episode_ns.quantile(0.5)});
        episode_ns.clear();
    }
    /// Each variant contributes the median of its episodes, which keeps
    /// interference that hits less than half of a run out of the figures:
    /// throughput is one cycle's ops over the sum of the variants' median
    /// episode times, and the op p50 is the mean of their median episode
    /// p50s.  (A median over all episodes would jump between the clusters
    /// of a mixture of variants with different speeds.)
    double ops_per_s() const;
    double op_p50_ns() const;
};

/// The end-to-end metric set (BENCHMARK.json "end_to_end"), in order.
std::vector<Metric> end_to_end_metrics(const Measured& m);
/// One note line on how the episodes of a run spread (quartiles).
std::string episode_spread_note(const Measured& m);

/// Per-layer values keyed by kLayerMetrics name; rejects unknown names so
/// a typo cannot silently drop a metric.
class LayerValues {
public:
    void set(const std::string& name, double value);
    /// Every kLayerMetrics entry in table order; names never set are 0 and
    /// appended to `not_applicable`.
    std::vector<Metric> metrics(std::vector<std::string>& not_applicable) const;

private:
    std::map<std::string, double> values_;
};

bool is_rpc_workload(const std::string& name);
RunResult run_rpc_workload(const RunOptions& opt);
RunResult run_transform_jdk(const RunOptions& opt);
/// Pinned transform thread count of transform-jdk (at most nproc).
std::size_t transform_jdk_threads();

/// Writes the traced run's spans and per-layer metrics and returns the
/// metrics for the result line.
std::vector<Metric> finish_trace(const RunOptions& opt, const SpanRecorder& rec,
                                 const LayerValues& layers,
                                 std::vector<std::pair<std::string, std::string>> config);

}  // namespace perfbench
