// Measurement plumbing shared by every workload: host clock, a fixed-size
// log-linear histogram for per-op host times, an in-memory span recorder
// for traced runs, and the metric list a run reports.
//
// The harness keeps its own per-op storage constant-size (the histogram is
// a fixed array; the span recorder is bounded), so peak RSS and set-up
// time charge the program under test, not the measuring code.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// SplitMix64: every seeded input (args, payload sizes, op mix, fault
/// windows) is a pure function of (seed, stream, index), so inputs need no
/// per-op storage and the same seed always yields the same inputs.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}
inline std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t k) {
    return mix64(mix64(seed ^ mix64(stream)) + k);
}
/// Uniform double in [0, 1) from a draw.
inline double unit(std::uint64_t d) {
    return static_cast<double>(d >> 11) * (1.0 / 9007199254740992.0);
}

/// Order-sensitive digest of a result stream (FNV-1a over 64-bit words).
inline std::uint64_t fold(std::uint64_t digest, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
        digest ^= (v >> (8 * b)) & 0xff;
        digest *= 0x100000001b3ULL;
    }
    return digest;
}
inline constexpr std::uint64_t kDigestInit = 0xcbf29ce484222325ULL;

/// A wrong answer: the run fails instead of reporting a time.
struct OracleFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Log-linear histogram of nanosecond samples: exact below 1024 ns, then
/// 1024 linear sub-buckets per power of two (0.1% relative width).
/// Quantiles interpolate inside the bucket, so a median moves smoothly
/// with the data instead of snapping to bucket edges.
class LogHistogram {
public:
    void record(std::uint64_t ns) {
        ++buckets_[index(ns)];
        ++count_;
        sum_ += ns;
    }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? static_cast<double>(sum_) / count_ : 0.0; }
    double quantile(double q) const;
    void clear() {
        buckets_.fill(0);
        count_ = 0;
        sum_ = 0;
    }

private:
    static constexpr int kSubBits = 10;
    static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    static constexpr int kMaxExp = 46;  // ~19 hours in ns; larger values clamp
    static std::size_t index(std::uint64_t v);
    static void bounds(std::size_t idx, double& lo, double& hi);

    std::array<std::uint64_t, kSub * (kMaxExp - kSubBits + 2)> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/// Quantile (linear interpolation) and median of a small sample
/// (per-episode or per-round figures).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// One span of a traced run: name, host start/end, the span that caused
/// it and the op it belongs to (0 = not an op).
struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::uint64_t op = 0;
    std::uint64_t count = 0;   // items a sweep span timed (0 = not a sweep span)
};

/// Bounded in-memory span store; written out once when the run ends.
/// Op spans (add) and phase spans (begin/end) have separate caps, so a
/// long traced run that fills its op budget still records its sweep.
/// A disabled recorder costs one branch per call site.
class SpanRecorder {
public:
    static constexpr std::size_t kOpCapacity = 100'000;
    static constexpr std::size_t kPhaseCapacity = 100'000;
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }
    /// Opens a span and returns its id (0 when disabled).
    std::uint32_t begin(std::string name, std::uint32_t parent);
    void end(std::uint32_t id, std::uint64_t count = 0);
    /// Records an already-timed span (the op wrapper times with two clock
    /// reads and files the span afterwards).
    void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
             std::uint32_t parent, std::uint64_t op);
    const std::vector<Span>& spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

private:
    bool enabled_ = false;
    std::size_t ops_ = 0;
    std::size_t phases_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t next_id_ = 1;
    std::vector<Span> spans_;
};

/// RAII span around a phase; no-op when the recorder is disabled.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& rec, std::string name, std::uint32_t parent,
               std::uint64_t count = 0)
        : rec_(rec), count_(count), id_(rec.begin(std::move(name), parent)) {}
    ~ScopedSpan() { rec_.end(id_, count_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    std::uint32_t id() const { return id_; }

private:
    SpanRecorder& rec_;
    std::uint64_t count_;
    std::uint32_t id_;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one invocation measured.  `metrics` holds the end-to-end set on
/// untraced runs and the per-layer set on traced runs.
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Human-readable extras printed before the result line (sample
    /// counts, virtual-time figures, configuration).
    std::vector<std::string> notes;
};

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_path;  // traced runs write their spans here
    std::string build_type;
};

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

/// Writes the trace file: Chrome trace-event spans plus the run's config
/// and per-layer metrics under "perfbench".
void write_trace(const std::string& path, const SpanRecorder& rec,
                 const std::vector<std::pair<std::string, std::string>>& config,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::string>& not_applicable);

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
