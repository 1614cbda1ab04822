#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

std::size_t LogHistogram::index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    int e = std::bit_width(v) - 1;  // v in [2^e, 2^(e+1))
    if (e > kMaxExp) return (kMaxExp - kSubBits + 2) * kSub - 1;
    const std::uint64_t m = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub + m;
}

void LogHistogram::bounds(std::size_t idx, double& lo, double& hi) {
    if (idx < kSub) {
        lo = static_cast<double>(idx);
        hi = lo + 1.0;
        return;
    }
    const int e = static_cast<int>(idx / kSub) + kSubBits - 1;
    const double width = std::ldexp(1.0, e - kSubBits);
    lo = std::ldexp(1.0, e) + static_cast<double>(idx % kSub) * width;
    hi = lo + width;
}

double LogHistogram::quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0) continue;
        const double n = static_cast<double>(buckets_[i]);
        if (cum + n >= rank) {
            double lo = 0.0, hi = 0.0;
            bounds(i, lo, hi);
            const double frac = std::clamp((rank - cum) / n, 0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        cum += n;
    }
    return 0.0;
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint32_t SpanRecorder::begin(std::string name, std::uint32_t parent) {
    if (!enabled_) return 0;
    if (phases_ >= kPhaseCapacity) {
        ++dropped_;
        return 0;
    }
    ++phases_;
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.id = next_id_++;
    s.parent = parent;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void SpanRecorder::end(std::uint32_t id, std::uint64_t count) {
    if (id == 0) return;
    // Spans close in LIFO order almost always; search from the back.
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
        if (it->id == id) {
            it->end_ns = now_ns();
            it->count = count;
            return;
        }
    }
}

void SpanRecorder::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint32_t parent, std::uint64_t op) {
    if (!enabled_) return;
    if (ops_ >= kOpCapacity) {
        ++dropped_;
        return;
    }
    ++ops_;
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.id = next_id_++;
    s.parent = parent;
    s.op = op;
    spans_.push_back(std::move(s));
}

double peak_rss_mb() {
    // VmHWM belongs to this program's address space.  getrusage's
    // ru_maxrss is not used: it survives exec, so under a launcher it can
    // report the launcher's (larger) peak instead of this program's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

void write_trace(const std::string& path, const SpanRecorder& rec,
                 const std::vector<std::pair<std::string, std::string>>& config,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::string>& not_applicable) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    std::uint64_t t0 = rec.spans().empty() ? 0 : rec.spans().front().start_ns;
    for (const Span& s : rec.spans()) t0 = std::min(t0, s.start_ns);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : rec.spans()) {
        if (!first) out << ",";
        first = false;
        const double ts = static_cast<double>(s.start_ns - t0) / 1000.0;
        const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
        out << "\n{\"name\":" << json_string(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
            << ",\"ts\":" << json_number(ts) << ",\"dur\":" << json_number(dur)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << ",\"count\":" << s.count << "}}";
    }
    out << "],\n\"perfbench\":{\"config\":{";
    first = true;
    for (const auto& [k, v] : config) {
        if (!first) out << ",";
        first = false;
        out << json_string(k) << ":" << v;
    }
    out << "},\"spans_dropped\":" << rec.dropped() << ",\"metrics\":{";
    first = true;
    for (const Metric& m : metrics) {
        if (!first) out << ",";
        first = false;
        out << "\n" << json_string(m.name) << ":{\"value\":" << json_number(m.value)
            << ",\"unit\":" << json_string(m.unit) << "}";
    }
    out << "},\"not_applicable\":[";
    first = true;
    for (const std::string& n : not_applicable) {
        if (!first) out << ",";
        first = false;
        out << json_string(n);
    }
    out << "]}}\n";
    if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
