// transform-jdk: repeated run_pipeline passes (output verification on)
// over the 8,200-type JDK-like corpus, at a fixed thread count.  The only
// workload where model, transform and support::ThreadPool do the work;
// elsewhere they appear only as milliseconds of set-up.
//
// The corpus is the repository's reference one (JdkCorpusParams defaults,
// 42,085 output classes), whatever the run seed: corpora generated from
// different seeds differ by up to 13% in transform work, which would
// swamp the benchmark's bounds.
#include <algorithm>
#include <memory>
#include <optional>

#include "corpus/jdk_corpus.hpp"
#include "model/binio.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
#include "transform/analysis.hpp"
#include "transform/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rafda;

constexpr int kSetups = 5;
constexpr int kMinPasses = 3;

std::uint64_t pool_digest(const model::ClassPool& pool) {
    const Bytes bytes = model::save_pool(pool);
    std::uint64_t d = kDigestInit;
    for (std::uint8_t b : bytes) {
        d ^= b;
        d *= 0x100000001b3ULL;
    }
    return fold(d, bytes.size());
}

}  // namespace

std::size_t transform_jdk_threads() {
    return std::min<std::size_t>(2, support::ThreadPool::hardware_threads());
}

RunResult run_transform_jdk(const RunOptions& opt) {
    const std::size_t threads = transform_jdk_threads();
    const corpus::JdkCorpusParams params;
    SpanRecorder rec;
    rec.set_enabled(opt.trace);
    auto m = std::make_unique<Measured>();

    // Set-up: generate the corpus.  setup_s is the median of several
    // generations: kSetups before the first pass and one after each pass
    // (outside the pass timing), so set-up is sampled under the same host
    // conditions as the passes.
    std::optional<model::ClassPool> corpus;
    auto time_setup = [&](Measured& into) {
        ScopedSpan s(rec, "setup.corpus.generate", 0);
        const std::uint64_t t0 = now_ns();
        model::ClassPool generated = corpus::generate_jdk_corpus(params);
        into.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        if (!corpus) corpus.emplace(std::move(generated));
    };
    for (int i = 0; i < kSetups; ++i) time_setup(*m);

    // Reference, before timing: a single-thread pass's serialised output.
    transform::PipelineOptions ref_opts;
    ref_opts.threads = 1;
    const std::uint64_t reference = pool_digest(transform::run_pipeline(*corpus, ref_opts).pool);

    obs::Registry registry;
    transform::PipelineOptions po;
    po.threads = threads;
    po.verify_output = true;
    po.metrics = &registry;
    std::size_t out_classes = 0;
    double steals_per_pass = 0.0;

    // One pass = one op; the untraced half of a traced run is the overhead
    // baseline.
    auto passes = [&](Measured& into, double seconds, std::uint32_t parent) {
        const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
        for (int pass = 0; pass < kMinPasses || now_ns() < deadline; ++pass) {
            obs::Counter& steals = registry.counter("transform.pool.steals");
            const std::uint64_t steals0 = steals.value();
            {
                const std::uint64_t t0 = now_ns();
                transform::PipelineResult res = transform::run_pipeline(*corpus, po);
                const std::uint64_t t1 = now_ns();
                into.record_op(t1 - t0);
                into.record_episode(1, static_cast<double>(t1 - t0) * 1e-9);
                rec.add("op", t0, t1, parent, into.ops);
                if (pool_digest(res.pool) != reference)
                    throw OracleFailure("transform-jdk: pass output differs from the "
                                        "single-thread reference");
                out_classes = res.pool.size();
            }
            time_setup(into);  // after the pass output is freed: adds nothing to peak RSS
            steals_per_pass = static_cast<double>(steals.value() - steals0);
        }
    };

    RunResult out;
    if (!opt.trace) {
        passes(*m, opt.seconds, 0);
        out.attempted = m->ops;
        out.metrics = end_to_end_metrics(*m);
        out.notes.push_back("passes timed: " + std::to_string(m->op_ns.count()) +
                            ", set-up samples: " + std::to_string(m->setup_s.size()) +
                            ", output classes: " + std::to_string(out_classes) +
                            ", transform threads: " + std::to_string(threads));
        out.notes.push_back(episode_spread_note(*m));
        return out;
    }

    rec.set_enabled(false);
    auto plain = std::make_unique<Measured>();
    passes(*plain, opt.seconds / 2, 0);
    rec.set_enabled(true);
    {
        ScopedSpan s(rec, "driver.run", 0);
        passes(*m, opt.seconds / 2, s.id());
    }

    // Layer sweep on the same corpus.
    LayerValues lv;
    {
        ScopedSpan root(rec, "sweep", 0);
        std::optional<support::ThreadPool> pool_storage;
        support::ThreadPool* workers = threads > 1 ? &pool_storage.emplace(threads) : nullptr;
        std::vector<double> analyze, generate, verify;
        for (int r = 0; r < 3; ++r) {
            std::uint64_t t0 = 0;
            {
                ScopedSpan s(rec, "sweep.transform.analyze", root.id(), 1);
                t0 = now_ns();
                transform::analyze(*corpus, workers);
                analyze.push_back(static_cast<double>(now_ns() - t0));
            }
            transform::PipelineOptions gen = po;
            gen.verify_output = false;
            gen.metrics = nullptr;
            std::optional<transform::PipelineResult> res;
            {
                ScopedSpan s(rec, "sweep.transform.run_pipeline", root.id(), 1);
                t0 = now_ns();
                res.emplace(transform::run_pipeline(*corpus, gen));
                generate.push_back(static_cast<double>(now_ns() - t0) - analyze.back());
            }
            {
                ScopedSpan s(rec, "sweep.model.verify_pool", root.id(), 1);
                t0 = now_ns();
                model::verify_pool(res->pool, workers);
                verify.push_back(static_cast<double>(now_ns() - t0));
            }
        }
        lv.set("transform.analyze_ms", median(analyze) * 1e-6);
        lv.set("transform.generate_ms", median(generate) * 1e-6);
        lv.set("model.verify_ms", median(verify) * 1e-6);
        std::vector<double> snap;
        for (int r = 0; r < 31; ++r) {
            ScopedSpan s(rec, "sweep.obs.snapshot", root.id(), 1);
            const std::uint64_t t0 = now_ns();
            (void)registry.snapshot();
            snap.push_back(static_cast<double>(now_ns() - t0));
        }
        lv.set("obs.snapshot_us", median(snap) * 1e-3);
    }
    lv.set("corpus.generate_ms", median(m->setup_s) * 1e3);
    lv.set("transform.out_classes", static_cast<double>(out_classes));
    lv.set("support.thread_pool.steals", steals_per_pass);
    lv.set("obs.metrics_registered", static_cast<double>(registry.size()));
    lv.set("failed_ratio", 0.0);
    lv.set("driver.op_host_us_p99", m->op_ns.quantile(0.99) * 1e-3);
    lv.set("trace.overhead_ratio", m->ops_per_s() / plain->ops_per_s());

    out.attempted = plain->ops + m->ops;
    out.metrics = finish_trace(opt, rec, lv,
                               {{"traced_ops", std::to_string(m->ops)},
                                {"untraced_ops", std::to_string(plain->ops)},
                                {"transform_threads", std::to_string(threads)}});
    return out;
}

}  // namespace perfbench
