// The three RPC workloads (rpc-small, rpc-bulk, rw-faulty) and their
// layer sweep.
//
// A run is a sequence of identical *episodes*.  Each episode builds a fresh
// runtime::System from the seeded inputs (timed as one set-up sample),
// drives its closed-loop clients through one WorkloadDriver::run (the
// measured phase), then checks every output against its oracle outside
// the timed phases.  Because the inputs depend only on the seed, every
// episode of a run is the same simulation: its virtual-time report must
// repeat exactly, which the runner asserts.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "transform/analysis.hpp"
#include "transform/naming.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rafda;
using runtime::System;
using runtime::WorkloadDriver;
using vm::Value;
namespace naming = transform::naming;

// Seeded input streams.
constexpr std::uint64_t kStreamArgs = 1;
constexpr std::uint64_t kStreamPayload = 2;
constexpr std::uint64_t kStreamMix = 3;
constexpr std::uint64_t kStreamFaults = 4;
constexpr std::uint64_t kStreamNetwork = 5;
constexpr std::uint64_t kStreamVariant = 6;

constexpr const char* kServiceApp = R"RIR(
class Service {
  field acc J
  field calls I
  ctor ()V {
    return
  }
  method work (J)J {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 0
    load 0
    getfield Service.acc J
    const 3L
    mul
    load 1
    add
    putfield Service.acc J
    load 0
    getfield Service.acc J
    returnvalue
  }
}
)RIR";

constexpr const char* kEchoApp = R"RIR(
class SoapEcho {
  ctor ()V {
    return
  }
  method echo (S)S {
    load 1
    returnvalue
  }
}
class CorbaEcho {
  ctor ()V {
    return
  }
  method echo (S)S {
    load 1
    returnvalue
  }
}
)RIR";

constexpr const char* kHotTableApp = R"RIR(
class Hot {
  static field total I
  static method bump (I)I {
    getstatic Hot.total I
    load 0
    add
    dup
    putstatic Hot.total I
    returnvalue
  }
  static method total ()I {
    getstatic Hot.total I
    returnvalue
  }
}
class Table {
  static field a I
  static field b I
  static method seed (II)V {
    load 0
    putstatic Table.a I
    load 1
    putstatic Table.b I
    return
  }
  static method lookup ()I {
    getstatic Table.a I
    getstatic Table.b I
    add
    returnvalue
  }
}
)RIR";

model::ClassPool assemble_app(const char* text) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, text);
    model::verify_pool(pool);
    return pool;
}

net::MarshalledValue marshal(const Value& v) {
    if (v.is_long()) return net::MarshalledValue::of_long(v.as_long());
    if (v.is_int()) return net::MarshalledValue::of_int(v.as_int());
    if (v.is_str()) return net::MarshalledValue::of_str(v.as_str());
    return net::MarshalledValue::null();
}

std::string lower(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/// One remote call as the workload issues it, for the layer sweep.
struct CallShape {
    net::NodeId src = 1;
    std::string protocol;
    std::string cls;
    std::string method;
    std::string desc;
    std::vector<Value> args;
    Value result;
};

/// Per-op host timing around the guest call only.  The destructor records
/// even when the call throws, so a faulted op still counts its time.
struct OpClock {
    Measured* into = nullptr;
    SpanRecorder* rec = nullptr;
    std::uint32_t parent = 0;
    std::uint64_t next_op = 0;
};
class TimedOp {
public:
    explicit TimedOp(OpClock& c) : c_(c), start_(now_ns()) {}
    ~TimedOp() {
        const std::uint64_t end = now_ns();
        c_.into->record_op(end - start_);
        ++c_.next_op;
        if (c_.rec->enabled()) c_.rec->add("op", start_, end, c_.parent, c_.next_op);
    }
    TimedOp(const TimedOp&) = delete;
    TimedOp& operator=(const TimedOp&) = delete;

private:
    OpClock& c_;
    std::uint64_t start_;
};

/// The deterministic outcome of one episode; equal across the episodes of
/// one input set because the simulation is a pure function of its inputs.
struct VirtualSummary {
    std::uint64_t tasks = 0;
    std::uint64_t faults = 0;
    std::uint64_t makespan_us = 0;
    std::uint64_t p50_us = 0;
    std::uint64_t p99_us = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t digest = 0;
    bool operator==(const VirtualSummary&) const = default;
};

class RpcWorkload {
public:
    RpcWorkload(std::uint64_t seed, OpClock& clock) : base_seed_(seed), seed_(seed), clock_(clock) {}
    virtual ~RpcWorkload() = default;
    RpcWorkload(const RpcWorkload&) = delete;
    RpcWorkload& operator=(const RpcWorkload&) = delete;

    /// Everything before the first measured op: assemble the guest app,
    /// construct the System (runs the transform), add nodes, install
    /// policy/faults/directory/adaptation/durability, construct objects,
    /// queue the clients.  `faults` = false builds the same system without
    /// the fault plan (the layer sweep times the fault-free path).
    /// `variant` selects one of variants() input sets derived from the seed.
    void setup(SpanRecorder& rec, std::uint32_t parent, bool faults, int variant = 0) {
        teardown();
        seed_ = variant == 0 ? base_seed_ : draw(base_seed_, kStreamVariant, variant);
        {
            ScopedSpan s(rec, "setup.assemble", parent);
            pool_ = std::make_unique<model::ClassPool>(assemble_app(app()));
        }
        {
            ScopedSpan s(rec, "setup.system", parent);
            system_ = std::make_unique<System>(*pool_, options());
        }
        {
            ScopedSpan s(rec, "setup.nodes", parent);
            for (int k = 0; k < node_count(); ++k) system_->add_node();
        }
        {
            ScopedSpan s(rec, "setup.policy", parent);
            install(faults);
        }
        {
            ScopedSpan s(rec, "setup.objects", parent);
            construct_objects();
        }
        {
            ScopedSpan s(rec, "setup.clients", parent);
            driver_ = std::make_unique<WorkloadDriver>(*system_);
            driver_->set_fairness(WorkloadDriver::Fairness::RoundRobin);
            driver_->set_pipeline_depth(1);
            queue_clients();
        }
    }
    void teardown() {
        driver_.reset();
        system_.reset();
        pool_.reset();
    }

    System& system() { return *system_; }
    WorkloadDriver& driver() { return *driver_; }

    /// Output oracle for the episode just run; throws OracleFailure.
    virtual void check(const WorkloadDriver::Report& report) = 0;
    /// Protocols the workload's calls use, for the codec sweep.
    virtual std::vector<std::string> protocols() const = 0;
    /// `n` Invoke calls shaped like the workload's, for the sweep.
    virtual std::vector<CallShape> shapes(std::size_t n) = 0;
    /// The server-side implementation object a shape's Invoke targets, on
    /// node 0 of the current system.
    virtual Value server_target(const CallShape& s) = 0;
    /// A client-side reference whose calls enter the proxy for `s`.
    virtual Value proxy_ref(const CallShape& s) = 0;
    /// Issues `s` exactly as a client task does, without the accounting.
    virtual Value invoke(const CallShape& s) = 0;
    /// Classes whose singletons the workload discovers remotely (rw-faulty).
    virtual std::vector<std::string> discovered_classes() const { return {}; }
    /// Read ops the harness issued in the last episode (replica ratio).
    virtual std::uint64_t reads_issued() const { return 0; }
    /// Input sets a run cycles its episodes through (see RwFaulty).
    virtual int variants() const { return 1; }
    virtual const char* app() const = 0;

protected:
    virtual runtime::SystemOptions options() const {
        runtime::SystemOptions o;
        o.network_seed = draw(seed_, kStreamNetwork, 0);
        o.pipeline.threads = 1;  // pinned: RAFDA_TRANSFORM_THREADS cannot change the run
        return o;
    }
    virtual int node_count() const = 0;
    virtual void install(bool faults) = 0;
    virtual void construct_objects() = 0;
    virtual void queue_clients() = 0;

    std::uint64_t base_seed_;
    std::uint64_t seed_;  // the current variant's seed
    OpClock& clock_;
    std::unique_ptr<model::ClassPool> pool_;
    std::unique_ptr<System> system_;
    std::unique_ptr<WorkloadDriver> driver_;
};

// ---------------------------------------------------------------- rpc-small

/// 1 server + 8 clients calling Service.work(J)J over RMI with seeded
/// long args: the fixed per-call cost dominates.
class RpcSmall final : public RpcWorkload {
public:
    static constexpr int kClients = 8;
    static constexpr std::uint64_t kCallsPerClient = 4096;

    RpcSmall(std::uint64_t seed, OpClock& clock) : RpcWorkload(seed, clock) {
        // Reference: the untransformed Service in a plain interpreter on
        // the same per-client args, folded into one digest per client.
        model::ClassPool plain = assemble_app(kServiceApp);
        vm::Interpreter interp(plain);
        for (int c = 1; c <= kClients; ++c) {
            Value s = interp.construct("Service", "()V", {});
            std::uint64_t d = kDigestInit;
            for (std::uint64_t k = 0; k < kCallsPerClient; ++k)
                d = fold(d, static_cast<std::uint64_t>(
                                interp.call_virtual(s, "work", "(J)J", {Value::of_long(arg(c, k))})
                                    .as_long()));
            expected_[c] = d;
        }
    }
    const char* app() const override { return kServiceApp; }
    std::vector<std::string> protocols() const override { return {"RMI"}; }

    void check(const WorkloadDriver::Report& report) override {
        if (report.faults != 0)
            throw OracleFailure("rpc-small: " + std::to_string(report.faults) + " ops faulted");
        for (int c = 1; c <= kClients; ++c) {
            if (client_[c].next != kCallsPerClient || client_[c].digest != expected_[c])
                throw OracleFailure("rpc-small: client " + std::to_string(c) +
                                    " results differ from the plain-interpreter reference");
        }
    }

    std::vector<CallShape> shapes(std::size_t n) override {
        std::vector<CallShape> out;
        for (std::size_t k = 0; k < n; ++k) {
            const int c = 1 + static_cast<int>(k % kClients);
            CallShape s;
            s.src = c;
            s.protocol = "RMI";
            s.cls = "Service";
            s.method = "work";
            s.desc = "(J)J";
            s.args = {Value::of_long(arg(c, k / kClients))};
            s.result = s.args[0];  // any long: only the reply's shape matters
            out.push_back(std::move(s));
        }
        return out;
    }
    Value server_target(const CallShape&) override {
        if (!local_) local_ = system_->construct(0, "Service", "()V");
        return *local_;
    }
    Value proxy_ref(const CallShape& s) override { return client_[s.src].svc; }
    Value invoke(const CallShape& s) override {
        return system_->node(s.src).interp().call_virtual(client_[s.src].svc, s.method, s.desc, s.args);
    }

protected:
    int node_count() const override { return 1 + kClients; }
    void install(bool) override { system_->policy().set_instance_home("Service", 0, "RMI"); }
    void construct_objects() override {
        local_.reset();
        for (int c = 1; c <= kClients; ++c) {
            client_[c] = Client{};
            client_[c].svc = system_->construct(c, "Service", "()V");
        }
    }
    void queue_clients() override {
        for (int c = 1; c <= kClients; ++c) {
            Client* st = &client_[c];
            driver_->add_client(c, kCallsPerClient, [this, st, c](System& sys, net::NodeId node) {
                const std::int64_t x = arg(c, st->next++);
                std::int64_t r = 0;
                {
                    TimedOp t(clock_);
                    r = sys.node(node)
                            .interp()
                            .call_virtual(st->svc, "work", "(J)J", {Value::of_long(x)})
                            .as_long();
                }
                st->digest = fold(st->digest, static_cast<std::uint64_t>(r));
            });
        }
    }

private:
    struct Client {
        Value svc;
        std::uint64_t next = 0;
        std::uint64_t digest = kDigestInit;
    };
    std::int64_t arg(int client, std::uint64_t k) const {
        return static_cast<std::int64_t>(draw(seed_, kStreamArgs + 16 * client, k));
    }
    Client client_[kClients + 1];
    std::uint64_t expected_[kClients + 1] = {};
    std::optional<Value> local_;
};

// ----------------------------------------------------------------- rpc-bulk

/// 1 server + 8 clients calling echo(S)S with seeded log-uniform payloads
/// of 256 B .. 16 KiB; half the clients reach a SOAP-homed class, half a
/// CORBA-homed one: codec byte work dominates.
class RpcBulk final : public RpcWorkload {
public:
    static constexpr int kClients = 8;
    static constexpr std::uint64_t kCallsPerClient = 256;
    static constexpr std::size_t kPayloads = 256;

    RpcBulk(std::uint64_t seed, OpClock& clock) : RpcWorkload(seed, clock) {
        static constexpr char kAlphabet[] =
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
            " <>&'\"/=;:-_.";
        constexpr std::size_t kAlpha = sizeof(kAlphabet) - 1;
        for (std::size_t p = 0; p < kPayloads; ++p) {
            // Stratified log-uniform sizes: one seeded size per stratum,
            // so every seed gets the same size mix and only the bytes,
            // the exact sizes and the call order change.
            const double u = (static_cast<double>(p) + unit(draw(seed_, kStreamPayload, p))) /
                             static_cast<double>(kPayloads);
            const auto size = static_cast<std::size_t>(256.0 * std::pow(64.0, u));
            std::string s(size, ' ');
            for (std::size_t i = 0; i < size; ++i)
                s[i] = kAlphabet[draw(seed_, kStreamPayload + 100 + p, i) % kAlpha];
            payloads_.push_back(std::move(s));
        }
        // Each client walks its own seeded permutation of all payloads.
        for (int c = 1; c <= kClients; ++c) {
            std::vector<std::size_t>& order = order_[c];
            for (std::size_t p = 0; p < kPayloads; ++p) order.push_back(p);
            for (std::size_t p = kPayloads - 1; p > 0; --p)
                std::swap(order[p], order[draw(seed_, kStreamPayload + 16 * c, p) % (p + 1)]);
        }
    }
    const char* app() const override { return kEchoApp; }
    std::vector<std::string> protocols() const override { return {"SOAP", "CORBA"}; }

    void check(const WorkloadDriver::Report& report) override {
        if (report.faults != 0)
            throw OracleFailure("rpc-bulk: " + std::to_string(report.faults) + " ops faulted");
        for (int c = 1; c <= kClients; ++c) {
            if (client_[c].next != kCallsPerClient)
                throw OracleFailure("rpc-bulk: client " + std::to_string(c) + " ran " +
                                    std::to_string(client_[c].next) + " calls");
            if (client_[c].mismatches != 0)
                throw OracleFailure("rpc-bulk: client " + std::to_string(c) + " got " +
                                    std::to_string(client_[c].mismatches) +
                                    " echoes that differ from the sent payload");
        }
    }

    std::vector<CallShape> shapes(std::size_t n) override {
        std::vector<CallShape> out;
        for (std::size_t k = 0; k < n; ++k) {
            const int c = 1 + static_cast<int>(k % kClients);
            CallShape s;
            s.src = c;
            s.protocol = protocol_of(c);
            s.cls = class_of(c);
            s.method = "echo";
            s.desc = "(S)S";
            const std::string& p = payloads_[payload_index(c, k / kClients)];
            s.args = {Value::of_str(p)};
            s.result = Value::of_str(p);
            out.push_back(std::move(s));
        }
        return out;
    }
    Value server_target(const CallShape& s) override {
        auto it = local_.find(s.cls);
        if (it == local_.end()) it = local_.emplace(s.cls, system_->construct(0, s.cls, "()V")).first;
        return it->second;
    }
    Value proxy_ref(const CallShape& s) override { return client_[s.src].svc; }
    Value invoke(const CallShape& s) override {
        return system_->node(s.src).interp().call_virtual(client_[s.src].svc, s.method, s.desc, s.args);
    }

protected:
    runtime::SystemOptions options() const override {
        runtime::SystemOptions o = RpcWorkload::options();
        o.pipeline.generator.protocols = {"RMI", "SOAP", "CORBA"};
        return o;
    }
    int node_count() const override { return 1 + kClients; }
    void install(bool) override {
        system_->policy().set_instance_home("SoapEcho", 0, "SOAP");
        system_->policy().set_instance_home("CorbaEcho", 0, "CORBA");
    }
    void construct_objects() override {
        local_.clear();
        for (int c = 1; c <= kClients; ++c) {
            client_[c] = Client{};
            client_[c].svc = system_->construct(c, class_of(c), "()V");
        }
    }
    void queue_clients() override {
        for (int c = 1; c <= kClients; ++c) {
            Client* st = &client_[c];
            driver_->add_client(c, kCallsPerClient, [this, st, c](System& sys, net::NodeId node) {
                const std::string& sent = payloads_[payload_index(c, st->next++)];
                Value r;
                {
                    TimedOp t(clock_);
                    r = sys.node(node).interp().call_virtual(st->svc, "echo", "(S)S",
                                                             {Value::of_str(sent)});
                }
                if (!r.is_str() || r.as_str() != sent) ++st->mismatches;
            });
        }
    }

private:
    struct Client {
        Value svc;
        std::uint64_t next = 0;
        std::uint64_t mismatches = 0;
    };
    static const char* class_of(int c) { return c % 2 ? "SoapEcho" : "CorbaEcho"; }
    static const char* protocol_of(int c) { return c % 2 ? "SOAP" : "CORBA"; }
    std::size_t payload_index(int c, std::uint64_t k) const {
        return order_[c][k % kPayloads];
    }
    std::vector<std::string> payloads_;
    std::vector<std::size_t> order_[kClients + 1];
    Client client_[kClients + 1];
    std::map<std::string, Value> local_;
};

// ---------------------------------------------------------------- rw-faulty

/// 4 nodes.  A write-heavy Hot counter and a read-mostly Table singleton
/// start on node 0; three clients run a seeded op mix whose skew flips
/// halfway.  Retries, dedup and the breaker are on; the fault plan has
/// seeded drop windows and one crash/restart of node 0; durability,
/// adaptation and a 2-shard directory are on.
class RwFaulty final : public RpcWorkload {
public:
    static constexpr int kClients = 3;
    static constexpr std::uint64_t kOpsPerClient = 1024;
    /// Table ops that write (below 1 - replicate_ratio, so Table stays
    /// read-mostly and its readers get replicas the writes invalidate).
    static constexpr double kWriteShare = 0.02;
    /// Each client's first ops only read Table (a load phase), so the
    /// controller's first windows see a read-mostly Table and replicate it
    /// on every seed instead of on a seed-dependent minority.
    static constexpr std::uint64_t kReadOnlyWarmup = 64;

    RwFaulty(std::uint64_t seed, OpClock& clock) : RpcWorkload(seed, clock) {}
    const char* app() const override { return kHotTableApp; }
    std::vector<std::string> protocols() const override { return {"RMI"}; }
    std::vector<std::string> discovered_classes() const override { return {"Hot", "Table"}; }
    /// The adaptation controller's decisions are chaotic in the inputs:
    /// one seed's op mix can keep Hot away from its dominant caller far
    /// longer than another's, moving host cost per op by several percent.
    /// A run therefore cycles its episodes through 8 input sets derived
    /// from the seed, so every run measures the same kind of mixture.
    int variants() const override { return 8; }
    std::uint64_t reads_issued() const override { return reads_; }

    void check(const WorkloadDriver::Report& report) override {
        if (report.faults != 0)
            throw OracleFailure("rw-faulty: " + std::to_string(report.faults) + " ops faulted");
        if (stale_reads_ != 0)
            throw OracleFailure("rw-faulty: " + std::to_string(stale_reads_) +
                                " Table reads differ from the last completed write");
        const std::int64_t total = system_->call_static(1, "Hot", "total", "()I").as_int();
        if (total != static_cast<std::int64_t>(bumps_))
            throw OracleFailure("rw-faulty: Hot.total = " + std::to_string(total) + " after " +
                                std::to_string(bumps_) + " successful bumps (not exactly-once)");
    }

    std::vector<CallShape> shapes(std::size_t n) override {
        std::vector<CallShape> out;
        for (std::size_t k = 0; k < n; ++k) {
            // Sample each client's ops evenly over the whole episode, past
            // the read-only warm-up too.
            const int c = 1 + static_cast<int>(k % kClients);
            const std::uint64_t per_client = std::max<std::uint64_t>(1, n / kClients);
            const Op op = op_at(c, (k / kClients) * kOpsPerClient / per_client);
            CallShape s;
            s.src = c;
            s.protocol = "RMI";
            switch (op.kind) {
                case Op::Bump:
                    s.cls = "Hot";
                    s.method = "bump";
                    s.desc = "(I)I";
                    s.args = {Value::of_int(1)};
                    s.result = Value::of_int(static_cast<std::int32_t>(k));
                    break;
                case Op::Read:
                    s.cls = "Table";
                    s.method = "lookup";
                    s.desc = "()I";
                    s.result = Value::of_int(op.a + op.b);
                    break;
                case Op::Write:
                    s.cls = "Table";
                    s.method = "seed";
                    s.desc = "(II)V";
                    s.args = {Value::of_int(op.a), Value::of_int(op.b)};
                    break;
            }
            out.push_back(std::move(s));
        }
        return out;
    }
    Value server_target(const CallShape& s) override {
        return system_->node(0).local_singleton(s.cls);
    }
    Value invoke(const CallShape& s) override {
        return system_->call_static(s.src, s.cls, s.method, s.desc, s.args);
    }
    Value proxy_ref(const CallShape& s) override {
        vm::Interpreter& interp = system_->node(s.src).interp();
        return interp.call_static(naming::c_factory(s.cls), "discover",
                                  "()L" + naming::c_int(s.cls) + ";");
    }

protected:
    runtime::SystemOptions options() const override {
        runtime::SystemOptions o = RpcWorkload::options();
        o.reliability.attempts = 16;
        o.reliability.backoff_base_us = 200;
        o.reliability.backoff_multiplier = 2.0;
        o.reliability.backoff_cap_us = 20'000;
        o.reliability.jitter_us = 50;
        o.reliability.deadline_us = 500'000;
        o.reliability.dedup = true;
        // High enough that the seeded plan never trips it: an open breaker
        // fails calls fast, and this workload must complete every op.
        o.reliability.breaker_threshold = 64;
        o.reliability.breaker_cooldown_us = 2'000;
        o.durability.enabled = true;
        o.durability.snapshot_interval_us = 10'000;
        return o;
    }
    int node_count() const override { return 1 + kClients; }
    void install(bool faults) override {
        System& sys = *system_;
        sys.policy().set_singleton_home("Hot", 0, "RMI");
        sys.policy().set_singleton_home("Table", 0, "RMI");
        runtime::DirectoryPolicy dir;
        dir.shards = 2;
        sys.enable_directory(dir);
        // Table starts at a = b = 0; no write precedes the first
        // observation window, so the controller first sees a read-mostly
        // Table and replicates it to its readers.
        last_write_ = 0;
        runtime::AdaptPolicy adapt;
        adapt.interval_us = 4000;
        adapt.migrate_threshold_bytes = 64;
        adapt.replicate_ratio = 0.9;
        adapt.min_window_calls = 4;
        sys.enable_adaptation(adapt);
        if (faults) install_faults();
    }
    void construct_objects() override {
        bumps_ = 0;
        reads_ = 0;
        stale_reads_ = 0;
        for (int c = 1; c <= kClients; ++c) next_[c] = 0;
    }
    void queue_clients() override {
        for (int c = 1; c <= kClients; ++c) {
            driver_->add_client(c, kOpsPerClient, [this, c](System& sys, net::NodeId node) {
                const Op op = op_at(c, next_[c]++);
                switch (op.kind) {
                    case Op::Bump: {
                        {
                            TimedOp t(clock_);
                            sys.call_static(node, "Hot", "bump", "(I)I", {Value::of_int(1)});
                        }
                        ++bumps_;
                        break;
                    }
                    case Op::Read: {
                        std::int32_t r = 0;
                        {
                            TimedOp t(clock_);
                            r = sys.call_static(node, "Table", "lookup", "()I").as_int();
                        }
                        ++reads_;
                        if (r != last_write_) ++stale_reads_;
                        break;
                    }
                    case Op::Write: {
                        {
                            TimedOp t(clock_);
                            sys.call_static(node, "Table", "seed", "(II)V",
                                            {Value::of_int(op.a), Value::of_int(op.b)});
                        }
                        last_write_ = op.a + op.b;
                        break;
                    }
                }
            });
        }
    }

private:
    struct Op {
        enum Kind { Bump, Read, Write } kind = Read;
        std::int32_t a = 0;
        std::int32_t b = 0;
    };
    /// Client c's k-th op.  Phase 1 (first half): client 1 is Hot's
    /// dominant caller; phase 2: client 2 is.  Everyone else mostly reads
    /// Table.
    Op op_at(int c, std::uint64_t k) const {
        const std::uint64_t d = draw(seed_, kStreamMix + 16 * c, k);
        const int hot_caller = k < kOpsPerClient / 2 ? 1 : 2;
        const double p_bump = c == hot_caller ? 0.85 : 0.1;
        Op op;
        const double u = unit(d);
        if (u < p_bump) {
            op.kind = Op::Bump;
        } else {
            const double v = unit(mix64(d));
            op.kind = v < kWriteShare && k >= kReadOnlyWarmup ? Op::Write : Op::Read;
            op.a = static_cast<std::int32_t>(mix64(d ^ 1) % 1000);
            op.b = static_cast<std::int32_t>(mix64(d ^ 2) % 1000);
        }
        return op;
    }
    /// Seeded DropRate windows on client<->node-0 links plus one crash
    /// and restart of node 0, placed inside the episode's virtual span.
    void install_faults() {
        System& sys = *system_;
        std::uint64_t t0 = 0;
        for (int n = 0; n < node_count(); ++n) t0 = std::max(t0, sys.node(n).clock_us());
        // Expected virtual makespan of the episode (measured: ~0.3 ms per
        // round of one op per client with the default link).
        const std::uint64_t span_us = kOpsPerClient * 300;
        net::FaultPlan& plan = sys.network().fault_plan();
        for (std::uint64_t w = 0; w < 6; ++w) {
            const std::uint64_t d = draw(seed_, kStreamFaults, w);
            net::FaultWindow fw;
            fw.kind = net::FaultKind::DropRate;
            const auto client = static_cast<net::NodeId>(1 + d % kClients);
            const bool inbound = (d >> 8) & 1;
            fw.src = inbound ? client : 0;
            fw.dst = inbound ? 0 : client;
            fw.from_us = t0 + static_cast<std::uint64_t>(unit(mix64(d)) * 0.8 * span_us);
            fw.until_us = fw.from_us + 2'000 + mix64(d ^ 3) % 8'000;
            fw.drop_probability = 0.05 + 0.15 * unit(mix64(d ^ 4));
            plan.add(fw);
        }
        const std::uint64_t d = draw(seed_, kStreamFaults, 100);
        net::FaultWindow crash;
        crash.kind = net::FaultKind::NodeCrash;
        crash.node = 0;
        crash.from_us = t0 + static_cast<std::uint64_t>((0.3 + 0.3 * unit(d)) * span_us);
        crash.until_us = crash.from_us + 1'500 + mix64(d) % 1'500;
        plan.add(crash);
    }

    std::uint64_t next_[kClients + 1] = {};
    std::uint64_t bumps_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t stale_reads_ = 0;
    std::int32_t last_write_ = 0;
};

std::unique_ptr<RpcWorkload> make_workload(const std::string& name, std::uint64_t seed,
                                           OpClock& clock) {
    if (name == "rpc-small") return std::make_unique<RpcSmall>(seed, clock);
    if (name == "rpc-bulk") return std::make_unique<RpcBulk>(seed, clock);
    if (name == "rw-faulty") return std::make_unique<RwFaulty>(seed, clock);
    throw std::invalid_argument("unknown workload " + name);
}

// ------------------------------------------------------------- the runner

constexpr int kMinEpisodes = 5;

/// The registry before and after one episode's measured phase.
struct EpisodeCounters {
    obs::Snapshot before;
    obs::Snapshot after;

    static double value(const obs::Snapshot& s, const std::string& name) {
        const obs::Sample* x = s.find(name);
        if (!x) return 0.0;
        return x->kind == obs::Sample::Kind::Counter ? static_cast<double>(x->counter)
                                                     : static_cast<double>(x->gauge);
    }
    /// Change over the measured phase (probes are cumulative gauges, so
    /// obs::diff would keep their after-reading; subtract explicitly).
    double delta(const std::string& name) const { return value(after, name) - value(before, name); }
    /// Summed change of every metric named prefix*suffix.
    double delta_matching(const std::string& prefix, const std::string& suffix) const {
        double total = 0.0;
        for (const auto& [name, _] : after.samples) {
            if (name.size() < prefix.size() + suffix.size()) continue;
            if (name.compare(0, prefix.size(), prefix) != 0) continue;
            if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
            total += delta(name);
        }
        return total;
    }
};

/// Runs episodes until `seconds` of wall time have passed (at least
/// kMinEpisodes, and at least one per input variant), accumulating host
/// figures into `m` (the op clock must point at m).  Episode e uses
/// variant e mod variants(); episodes of one variant must repeat the same
/// virtual-time report exactly.  Returns the counters, report and read
/// count of the last episode of variant 0.
struct EpisodeResult {
    EpisodeCounters counters;
    WorkloadDriver::Report report;
    VirtualSummary virt;
    std::uint64_t reads = 0;
};
EpisodeResult run_episodes(RpcWorkload& w, OpClock& clock, SpanRecorder& rec, double seconds,
                           Measured& m, std::map<int, VirtualSummary>& virt) {
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    const int min_episodes = std::max(kMinEpisodes, w.variants());
    EpisodeResult out;
    // Runs end on a whole cycle of variants, so each weighs the same.
    for (int episode = 0;
         episode < min_episodes || now_ns() < deadline || episode % w.variants() != 0; ++episode) {
        const int variant = episode % w.variants();
        ScopedSpan ep(rec, "episode", 0);
        const std::uint64_t t0 = now_ns();
        {
            ScopedSpan s(rec, "setup", ep.id());
            w.setup(rec, s.id(), /*faults=*/true, variant);
        }
        m.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

        EpisodeCounters counters;
        counters.before = w.system().metrics().snapshot();
        const std::uint64_t bytes0 = w.system().network().total_stats().bytes;
        WorkloadDriver::Report report;
        {
            ScopedSpan s(rec, "driver.run", ep.id());
            clock.parent = s.id();
            const std::uint64_t r0 = now_ns();
            report = w.driver().run();
            m.record_episode(report.tasks_run, static_cast<double>(now_ns() - r0) * 1e-9, variant);
        }
        counters.after = w.system().metrics().snapshot();
        m.failed += report.faults;
        w.check(report);

        VirtualSummary v;
        v.tasks = report.tasks_run;
        v.faults = report.faults;
        v.makespan_us = report.makespan_us;
        v.p50_us = report.latency_p50_us;
        v.p99_us = report.latency_p99_us;
        v.wire_bytes = w.system().network().total_stats().bytes - bytes0;
        v.digest = report.event_order_digest;
        auto [it, first] = virt.try_emplace(variant, v);
        if (!first && !(it->second == v))
            throw OracleFailure("episodes of one input set diverged in virtual time "
                                "(nondeterminism)");
        if (variant == 0) {
            out.counters = std::move(counters);
            out.report = report;
            out.virt = v;
            out.reads = w.reads_issued();
        }
    }
    w.teardown();
    return out;
}

/// Times `body` over `rounds` rounds and returns the median per-item ns.
template <typename Body>
double time_per_item(SpanRecorder& rec, std::uint32_t parent, const std::string& name,
                     int rounds, std::size_t items, Body&& body) {
    std::vector<double> per;
    for (int r = 0; r < rounds; ++r) {
        ScopedSpan s(rec, name, parent, items);
        const std::uint64_t t0 = now_ns();
        body();
        per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(items));
    }
    return median(per);
}

/// Drives each layer's public entry point standalone on inputs shaped
/// like the workload's, on a fresh fault-free copy of the workload's
/// system.
void layer_sweep(RpcWorkload& w, SpanRecorder& rec, LayerValues& lv,
                 std::map<std::string, double>& parts) {
    ScopedSpan root(rec, "sweep", 0);
    const std::uint32_t P = root.id();
    constexpr int kRounds = 61;
    constexpr std::size_t kShapes = 192;

    // model + transform on the workload's guest app.
    {
        model::ClassPool pool;
        lv.set("model.assemble_ms", 1e-6 * time_per_item(rec, P, "sweep.model.assemble_into", 9, 1, [&] {
                   model::ClassPool p;
                   vm::install_prelude(p);
                   model::assemble_into(p, w.app());
                   pool = std::move(p);
               }));
        model::verify_pool(pool);
        transform::PipelineOptions po;
        po.threads = 1;
        const double analyze = time_per_item(rec, P, "sweep.transform.analyze", 9, 1,
                                             [&] { transform::analyze(pool); });
        po.verify_output = false;
        const double pipeline = time_per_item(rec, P, "sweep.transform.run_pipeline", 9, 1,
                                              [&] { transform::run_pipeline(pool, po); });
        lv.set("transform.analyze_ms", analyze * 1e-6);
        lv.set("transform.generate_ms", (pipeline - analyze) * 1e-6);
    }

    w.setup(rec, P, /*faults=*/false);
    System& sys = w.system();
    lv.set("transform.out_classes", static_cast<double>(sys.transformed_pool().size()));
    lv.set("model.verify_ms", 1e-6 * time_per_item(rec, P, "sweep.model.verify_pool", 9, 1,
                                                  [&] { model::verify_pool(sys.transformed_pool()); }));

    std::vector<CallShape> shapes = w.shapes(kShapes);
    std::vector<Value> targets;
    std::vector<net::CallRequest> requests;
    std::vector<net::CallReply> replies;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const CallShape& s = shapes[i];
        targets.push_back(w.server_target(s));
        net::CallRequest req;
        req.kind = net::RequestKind::Invoke;
        req.request_id = (std::uint64_t{1} << 40) + i;
        req.src_node = s.src;
        req.target_oid = static_cast<std::uint64_t>(targets.back().as_ref());
        req.method = s.method;
        req.desc = s.desc;
        req.stat_class = s.cls;
        for (const Value& a : s.args) req.args.push_back(marshal(a));
        net::CallReply rep;
        rep.request_id = req.request_id;
        rep.result = marshal(s.result);
        requests.push_back(std::move(req));
        replies.push_back(std::move(rep));
    }

    // Codecs: frame sizes and a round-trip check, untimed.
    struct ProtoSweep {
        std::string proto;
        std::string key;  // net.codec.<p>.
        std::unique_ptr<net::Codec> codec;
        std::vector<std::size_t> idx;
        double share = 0.0;
        // Per-round per-call ns of the call-sequence prefixes: encode
        // request; + decode request; + encode reply; + decode reply.
        std::vector<double> prefix[4];
    };
    std::vector<ProtoSweep> protos;
    std::vector<std::size_t> req_size(shapes.size()), rep_size(shapes.size());
    for (const std::string& proto : w.protocols()) {
        ProtoSweep ps;
        ps.proto = proto;
        ps.key = "net.codec." + lower(proto) + ".";
        ps.codec = net::make_codec(proto);
        double frame_total = 0.0;
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            if (shapes[i].protocol != proto) continue;
            ps.idx.push_back(i);
            const Bytes req_frame = ps.codec->encode_request(requests[i]);
            const Bytes rep_frame = ps.codec->encode_reply(replies[i]);
            net::CallRequest expect = requests[i];
            expect.stat_class.clear();  // accounting metadata, not wire data
            if (!(ps.codec->decode_request(req_frame) == expect) ||
                !(ps.codec->decode_reply(rep_frame) == replies[i]))
                throw OracleFailure("codec " + proto + " does not round-trip a workload message");
            req_size[i] = req_frame.size();
            rep_size[i] = rep_frame.size();
            frame_total += static_cast<double>(req_frame.size() + rep_frame.size());
        }
        ps.share = static_cast<double>(ps.idx.size()) / static_cast<double>(shapes.size());
        lv.set(ps.key + "frame_bytes", frame_total / static_cast<double>(ps.idx.size()));
        protos.push_back(std::move(ps));
    }

    // One round times every part of a call, System::rpc itself and the
    // whole op on the same shapes, so slow drift of the host hits parts
    // and whole alike; each figure is the median over rounds.  Codec parts
    // are differences of prefixes of the rpc's own call sequence, run on
    // reused hot frame buffers as System::rpc runs them on pooled ones.
    vm::Interpreter& server = sys.node(0).interp();
    obs::Registry net_reg;
    net::SimNetwork network(1);
    network.set_default_link(sys.network().link(1, 0));
    network.attach_metrics(&net_reg);
    std::map<net::NodeId, std::uint64_t> net_clock;
    const std::vector<std::string> discovered = w.discovered_classes();
    std::uint64_t next_id = std::uint64_t{1} << 41;
    std::vector<net::CallRequest> batch, discover_batch;
    std::vector<double> vm_per, transfer_per, rpc_per, discover_per, op_per;
    std::vector<double> rpc_self_per, codec_per;
    double invokes_per_op = 0.0, discovers_per_op = 0.0;
    Bytes req_frame, rep_frame;
    auto per_item = [](std::uint64_t t0, std::size_t n) {
        return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
    };
    for (int r = 0; r < kRounds; ++r) {
        double codec_round = 0.0;
        for (ProtoSweep& ps : protos) {
            for (int depth = 1; depth <= 4; ++depth) {
                ScopedSpan s(rec, "sweep." + ps.key + "prefix" + std::to_string(depth), P, ps.idx.size());
                const std::uint64_t t0 = now_ns();
                for (std::size_t i : ps.idx) {
                    {
                        ByteWriter bw(req_frame);
                        ps.codec->encode_request_into(requests[i], bw);
                    }
                    if (depth >= 2) ps.codec->decode_request(req_frame);
                    if (depth >= 3) {
                        ByteWriter bw(rep_frame);
                        ps.codec->encode_reply_into(replies[i], bw);
                    }
                    if (depth >= 4) ps.codec->decode_reply(rep_frame);
                }
                ps.prefix[depth - 1].push_back(per_item(t0, ps.idx.size()));
            }
            codec_round += ps.share * ps.prefix[3].back();
        }
        codec_per.push_back(codec_round);
        {
            ScopedSpan s(rec, "sweep.net.transfer_at", P, 2 * shapes.size());
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < shapes.size(); ++i) {
                const net::NodeId src = shapes[i].src;
                const net::Delivery in = network.transfer_at(src, 0, req_size[i], net_clock[src]);
                const net::Delivery out = network.transfer_at(0, src, rep_size[i], in.at_us + 2);
                net_clock[src] = out.at_us;
            }
            transfer_per.push_back(per_item(t0, 2 * shapes.size()));
        }
        {
            ScopedSpan s(rec, "sweep.vm.call_virtual", P, shapes.size());
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < shapes.size(); ++i)
                server.call_virtual(targets[i], shapes[i].method, shapes[i].desc, shapes[i].args);
            vm_per.push_back(per_item(t0, shapes.size()));
        }
        batch = requests;  // rpc() stamps its request; every call gets a fresh id
        for (net::CallRequest& q : batch) q.request_id = next_id++;
        {
            ScopedSpan s(rec, "sweep.runtime.rpc", P, batch.size());
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < batch.size(); ++i)
                sys.rpc(shapes[i].src, 0, shapes[i].protocol, batch[i]);
            rpc_per.push_back(per_item(t0, batch.size()));
        }
        rpc_self_per.push_back(rpc_per.back() - codec_round - 2 * transfer_per.back() - vm_per.back());
        if (!discovered.empty()) {
            discover_batch.assign(shapes.size(), net::CallRequest{});
            for (std::size_t i = 0; i < shapes.size(); ++i) {
                net::CallRequest& q = discover_batch[i];
                q.kind = net::RequestKind::Discover;
                q.request_id = next_id++;
                q.src_node = shapes[i].src;
                q.cls = discovered[i % discovered.size()];
                q.stat_class = q.cls;
            }
            ScopedSpan s(rec, "sweep.runtime.rpc_discover", P, shapes.size());
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < shapes.size(); ++i)
                sys.rpc(shapes[i].src, 0, shapes[i].protocol, discover_batch[i]);
            discover_per.push_back(per_item(t0, shapes.size()));
        }
        {
            const obs::Snapshot before = sys.metrics().snapshot();
            ScopedSpan s(rec, "sweep.op", P, shapes.size());
            const std::uint64_t t0 = now_ns();
            for (const CallShape& shape : shapes) w.invoke(shape);
            op_per.push_back(per_item(t0, shapes.size()));
            if (r == 0) {
                const obs::Snapshot after = sys.metrics().snapshot();
                double inv = 0.0, disc = 0.0;
                for (const ProtoSweep& ps : protos) {
                    const std::string p = "rpc.proto." + ps.proto + ".";
                    inv += static_cast<double>(after.counter_value(p + "calls") -
                                               before.counter_value(p + "calls"));
                    disc += static_cast<double>(after.counter_value(p + "discovers") -
                                                before.counter_value(p + "discovers"));
                }
                invokes_per_op = inv / static_cast<double>(shapes.size());
                discovers_per_op = disc / static_cast<double>(shapes.size());
            }
        }
    }
    network.attach_metrics(nullptr);

    for (ProtoSweep& ps : protos) {
        const char* names[4] = {"encode_request_ns", "decode_request_ns", "encode_reply_ns",
                                "decode_reply_ns"};
        for (int k = 0; k < 4; ++k) {
            std::vector<double> part;
            for (int r = 0; r < kRounds; ++r)
                part.push_back(ps.prefix[k][r] - (k ? ps.prefix[k - 1][r] : 0.0));
            lv.set(ps.key + names[k], median(part));
        }
    }
    lv.set("vm.local_call_ns", median(vm_per));
    lv.set("net.sim.transfer_ns", median(transfer_per));
    lv.set("runtime.rpc_ns", median(rpc_per));
    lv.set("runtime.rpc_self_ns", median(rpc_self_per));
    if (!discovered.empty()) lv.set("runtime.discover_rpc_ns", median(discover_per));
    parts["rpc_ns"] = median(rpc_per);
    parts["codec_ns"] = median(codec_per);
    parts["transfer_ns"] = median(transfer_per);
    parts["vm_ns"] = median(vm_per);
    parts["op_ns"] = median(op_per);

    // obs: a snapshot of the live registry.
    lv.set("obs.snapshot_us", 1e-3 * time_per_item(rec, P, "sweep.obs.snapshot", kRounds, 1,
                                                  [&] { (void)sys.metrics().snapshot(); }));
    lv.set("obs.metrics_registered", static_cast<double>(sys.metrics().size()));

    // vm: entering a proxy method on the client, with the marshalling
    // native replaced by a no-op (last: it disables those proxies).
    std::vector<Value> proxies;
    for (const CallShape& s : shapes) proxies.push_back(w.proxy_ref(s));
    for (const CallShape& s : shapes) {
        auto noop = [result = s.result](vm::Interpreter&, const model::Method&, const Value&,
                                        std::vector<Value>) { return result; };
        vm::Interpreter& interp = sys.node(s.src).interp();
        interp.register_class_native(naming::o_proxy(s.cls, s.protocol), noop);
        interp.register_class_native(naming::c_proxy(s.cls, s.protocol), noop);
    }
    const double entry = time_per_item(rec, P, "sweep.vm.proxy_entry", kRounds, shapes.size(), [&] {
        for (std::size_t i = 0; i < shapes.size(); ++i)
            sys.node(shapes[i].src).interp().call_virtual(proxies[i], shapes[i].method,
                                                          shapes[i].desc, shapes[i].args);
    });
    lv.set("vm.proxy_entry_ns", entry);
    parts["proxy_entry_ns"] = entry;

    // runtime: what the op spends outside the rpc(s) it makes and outside
    // the interpreter's proxy entry — the proxy native and marshalling.
    std::vector<double> proxy_self;
    for (int r = 0; r < kRounds; ++r)
        proxy_self.push_back(op_per[r] - invokes_per_op * rpc_per[r] -
                             (discover_per.empty() ? 0.0 : discovers_per_op * discover_per[r]) -
                             entry);
    lv.set("runtime.proxy_self_ns", median(proxy_self));
    w.teardown();
}

}  // namespace

bool is_rpc_workload(const std::string& name) {
    return name == "rpc-small" || name == "rpc-bulk" || name == "rw-faulty";
}

RunResult run_rpc_workload(const RunOptions& opt) {
    SpanRecorder rec;
    OpClock clock{nullptr, &rec, 0, 0};
    std::unique_ptr<RpcWorkload> w = make_workload(opt.workload, opt.seed, clock);
    RunResult out;
    std::map<int, VirtualSummary> virt;

    if (!opt.trace) {
        auto m = std::make_unique<Measured>();
        clock.into = m.get();
        const VirtualSummary v = run_episodes(*w, clock, rec, opt.seconds, *m, virt).virt;
        out.attempted = m->ops;
        out.failed = m->failed;
        out.metrics = end_to_end_metrics(*m);
        out.notes.push_back("ops timed: " + std::to_string(m->op_ns.count()) +
                            ", set-up samples: " + std::to_string(m->setup_s.size()));
        out.notes.push_back(episode_spread_note(*m));
        out.notes.push_back(
            "virtual, exact per seed: virt_latency_p50_us=" + std::to_string(v.p50_us) +
            " virt_latency_p99_us=" + std::to_string(v.p99_us) + " virt_ops_per_s=" +
            json_number(v.makespan_us ? 1e6 * v.tasks / v.makespan_us : 0.0) +
            " wire_bytes_per_op=" +
            json_number(v.tasks ? static_cast<double>(v.wire_bytes) / v.tasks : 0.0) +
            " failed_ratio=" + json_number(m->ops ? static_cast<double>(m->failed) / m->ops : 0.0));
        return out;
    }

    // Traced run: half the time untraced (the overhead baseline), half
    // traced, then the layer sweep.
    auto plain = std::make_unique<Measured>();
    clock.into = plain.get();
    run_episodes(*w, clock, rec, opt.seconds / 2, *plain, virt);
    auto traced = std::make_unique<Measured>();
    clock.into = traced.get();
    rec.set_enabled(true);
    // Counters come from the last traced episode of the seed's own input
    // set (variant 0), so they are a function of the seed alone.
    const EpisodeResult last = run_episodes(*w, clock, rec, opt.seconds / 2, *traced, virt);
    const EpisodeCounters& ec = last.counters;
    const VirtualSummary& v = last.virt;
    const double reads = static_cast<double>(last.reads);
    LayerValues lv;
    std::map<std::string, double> parts;
    layer_sweep(*w, rec, lv, parts);

    const double ops = static_cast<double>(last.report.tasks_run);
    const double acquires = ec.delta("rpc.pool.acquires");
    lv.set("support.buffer_pool.reuse_ratio", acquires ? ec.delta("rpc.pool.reuses") / acquires : 0.0);
    lv.set("support.thread_pool.steals", EpisodeCounters::value(ec.after, "transform.pool.steals"));
    lv.set("vm.instructions_per_op", ec.delta_matching("vm.node", ".instructions") / ops);
    const double hits = ec.delta_matching("vm.node", ".ic_hits");
    const double misses = ec.delta_matching("vm.node", ".ic_misses");
    if (hits + misses > 0) lv.set("vm.ic_hit_ratio", hits / (hits + misses));
    double max_util = 0.0;
    const std::string util = ".utilization_ppm";
    for (const auto& [name, s] : ec.after.samples)
        if (name.rfind("net.link.", 0) == 0 && name.size() > util.size() &&
            name.compare(name.size() - util.size(), util.size(), util) == 0)
            max_util = std::max(max_util, static_cast<double>(s.gauge));
    lv.set("net.link.max_utilization_ppm", max_util);
    lv.set("net.drops_per_op", ec.delta_matching("net.link.", ".drops") / ops);
    lv.set("wire_bytes_per_op", ec.delta_matching("net.link.", ".bytes") / ops);

    const double mean_op = traced->op_ns.mean();
    lv.set("runtime.driver_self_ns",
           1e9 * traced->measured_s / static_cast<double>(traced->ops) - mean_op);
    lv.set("runtime.rpc.retries_per_op", ec.delta("rpc.retries") / ops);
    lv.set("runtime.rpc.dedup_hits", ec.delta("rpc.dedup_hits"));
    lv.set("runtime.rpc.timeouts", ec.delta("rpc.timeouts"));
    if (ec.after.find("wal.records")) {
        lv.set("runtime.wal.records_per_op", ec.delta("wal.records") / ops);
        lv.set("runtime.wal.bytes_per_op", ec.delta("wal.bytes") / ops);
        lv.set("runtime.wal.snapshots", ec.delta("wal.snapshots"));
    }
    if (ec.after.find("adapt.decisions")) {
        lv.set("runtime.adapt.decisions", ec.delta("adapt.decisions"));
        lv.set("runtime.adapt.migrations", ec.delta("adapt.migrations"));
        lv.set("runtime.adapt.invalidations", ec.delta("adapt.invalidations"));
    }
    if (reads > 0) {
        lv.set("runtime.adapt.replica_read_ratio", reads ? ec.delta("adapt.replica_reads") / reads : 0.0);
    }
    if (ec.after.find("directory.lookups")) {
        const double lookups = ec.delta("directory.lookups");
        lv.set("runtime.directory.cache_hit_ratio",
               lookups ? ec.delta("directory.cache_hits") / lookups : 0.0);
    }
    lv.set("virt_latency_p50_us", static_cast<double>(v.p50_us));
    lv.set("virt_latency_p99_us", static_cast<double>(v.p99_us));
    lv.set("virt_ops_per_s", v.makespan_us ? 1e6 * v.tasks / v.makespan_us : 0.0);
    lv.set("failed_ratio", traced->ops ? static_cast<double>(traced->failed) / traced->ops : 0.0);
    lv.set("driver.op_host_us_p99", traced->op_ns.quantile(0.99) * 1e-3);
    lv.set("trace.overhead_ratio", traced->ops_per_s() / plain->ops_per_s());

    out.attempted = plain->ops + traced->ops;
    out.failed = plain->failed + traced->failed;
    const std::string rpc_parts =
        "{\"rpc\":" + json_number(parts["rpc_ns"]) + ",\"codec\":" + json_number(parts["codec_ns"]) +
        ",\"transfers\":" + json_number(2 * parts["transfer_ns"]) +
        ",\"server_vm\":" + json_number(parts["vm_ns"]) + ",\"op\":" + json_number(parts["op_ns"]) +
        ",\"proxy_entry\":" + json_number(parts["proxy_entry_ns"]) + "}";
    out.metrics = finish_trace(opt, rec, lv,
                               {{"traced_ops", std::to_string(traced->ops)},
                                {"untraced_ops", std::to_string(plain->ops)},
                                {"sweep_rpc_parts_ns", rpc_parts}});
    return out;
}

}  // namespace perfbench
