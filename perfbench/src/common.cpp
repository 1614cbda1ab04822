#include <array>
#include <map>
#include <thread>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<Metric> end_to_end_metrics(const Measured& m) {
    return {
        {"setup_s", median(m.setup_s), "s"},
        {"ops_per_s", m.ops_per_s(), "op/s"},
        {"op_host_us_p50", m.op_p50_ns() * 1e-3, "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

namespace {

/// Per variant: (median episode ops, median episode seconds, median
/// episode p50 ns).
std::map<int, std::array<double, 3>> per_variant(const Measured& m) {
    std::map<int, std::array<std::vector<double>, 3>> samples;
    for (const Measured::Episode& e : m.episodes) {
        auto& s = samples[e.variant];
        s[0].push_back(static_cast<double>(e.ops));
        s[1].push_back(e.seconds);
        s[2].push_back(e.p50_ns);
    }
    std::map<int, std::array<double, 3>> out;
    for (const auto& [variant, s] : samples)
        out[variant] = {median(s[0]), median(s[1]), median(s[2])};
    return out;
}

}  // namespace

double Measured::ops_per_s() const {
    double cycle_ops = 0.0, cycle_s = 0.0;
    for (const auto& [_, v] : per_variant(*this)) {
        cycle_ops += v[0];
        cycle_s += v[1];
    }
    return cycle_s > 0 ? cycle_ops / cycle_s : 0.0;
}

double Measured::op_p50_ns() const {
    const auto variants = per_variant(*this);
    double sum = 0.0;
    for (const auto& [_, v] : variants) sum += v[2];
    return variants.empty() ? 0.0 : sum / static_cast<double>(variants.size());
}

std::string episode_spread_note(const Measured& m) {
    std::vector<double> ops_per_s, p50_us;
    for (const Measured::Episode& e : m.episodes) {
        ops_per_s.push_back(static_cast<double>(e.ops) / e.seconds);
        p50_us.push_back(e.p50_ns * 1e-3);
    }
    auto q = [](const std::vector<double>& v) {
        return json_number(quantile(v, 0.25)) + "/" + json_number(quantile(v, 0.5)) + "/" +
               json_number(quantile(v, 0.75));
    };
    return "episodes: " + std::to_string(m.episodes.size()) + " over " +
           std::to_string(per_variant(m).size()) + " input set(s), ops_per_s q25/q50/q75: " +
           q(ops_per_s) + ", op_host_us_p50 q25/q50/q75: " + q(p50_us);
}

void LayerValues::set(const std::string& name, double value) {
    for (const LayerMetricDef& d : kLayerMetrics) {
        if (name == d.name) {
            values_[name] = value;
            return;
        }
    }
    throw std::logic_error("unknown per-layer metric " + name);
}

std::vector<Metric> LayerValues::metrics(std::vector<std::string>& not_applicable) const {
    std::vector<Metric> out;
    for (const LayerMetricDef& d : kLayerMetrics) {
        auto it = values_.find(d.name);
        if (it == values_.end()) not_applicable.push_back(d.name);
        out.push_back({d.name, it == values_.end() ? 0.0 : it->second, d.unit});
    }
    return out;
}

std::vector<Metric> finish_trace(const RunOptions& opt, const SpanRecorder& rec,
                                 const LayerValues& layers,
                                 std::vector<std::pair<std::string, std::string>> config) {
    std::vector<std::string> not_applicable;
    std::vector<Metric> metrics = layers.metrics(not_applicable);
    config.insert(config.begin(), {{"workload", json_string(opt.workload)},
                                   {"seed", std::to_string(opt.seed)},
                                   {"seconds", json_number(opt.seconds)},
                                   {"build_type", json_string(opt.build_type)},
                                   {"nproc", std::to_string(std::thread::hardware_concurrency())}});
    write_trace(opt.trace_path, rec, config, metrics, not_applicable);
    return metrics;
}

}  // namespace perfbench
