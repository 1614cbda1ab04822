// The per-layer metric set every traced run reports, in output order.
// BENCHMARK.json's "per_layer" list mirrors this table (the benchmark's
// own tests check the two agree).  A metric that a workload does not
// exercise is reported as 0 and listed under "not_applicable" in the
// trace file.
#pragma once

#include <cstddef>

namespace perfbench {

struct LayerMetricDef {
    const char* name;
    const char* unit;
};

inline constexpr LayerMetricDef kLayerMetrics[] = {
    // support
    {"support.buffer_pool.reuse_ratio", "ratio"},
    {"support.thread_pool.steals", "count"},
    // corpus
    {"corpus.generate_ms", "ms"},
    // model
    {"model.assemble_ms", "ms"},
    {"model.verify_ms", "ms"},
    // transform
    {"transform.analyze_ms", "ms"},
    {"transform.generate_ms", "ms"},
    {"transform.out_classes", "count"},
    // vm
    {"vm.local_call_ns", "ns"},
    {"vm.proxy_entry_ns", "ns"},
    {"vm.instructions_per_op", "count"},
    {"vm.ic_hit_ratio", "ratio"},
    // net
    {"net.codec.rmi.encode_request_ns", "ns"},
    {"net.codec.rmi.decode_request_ns", "ns"},
    {"net.codec.rmi.encode_reply_ns", "ns"},
    {"net.codec.rmi.decode_reply_ns", "ns"},
    {"net.codec.rmi.frame_bytes", "B"},
    {"net.codec.corba.encode_request_ns", "ns"},
    {"net.codec.corba.decode_request_ns", "ns"},
    {"net.codec.corba.encode_reply_ns", "ns"},
    {"net.codec.corba.decode_reply_ns", "ns"},
    {"net.codec.corba.frame_bytes", "B"},
    {"net.codec.soap.encode_request_ns", "ns"},
    {"net.codec.soap.decode_request_ns", "ns"},
    {"net.codec.soap.encode_reply_ns", "ns"},
    {"net.codec.soap.decode_reply_ns", "ns"},
    {"net.codec.soap.frame_bytes", "B"},
    {"net.sim.transfer_ns", "ns"},
    {"net.link.max_utilization_ppm", "ppm"},
    {"net.drops_per_op", "count"},
    {"wire_bytes_per_op", "B"},
    // runtime
    {"runtime.rpc_ns", "ns"},
    {"runtime.discover_rpc_ns", "ns"},
    {"runtime.rpc_self_ns", "ns"},
    {"runtime.proxy_self_ns", "ns"},
    {"runtime.driver_self_ns", "ns"},
    {"runtime.rpc.retries_per_op", "count"},
    {"runtime.rpc.dedup_hits", "count"},
    {"runtime.rpc.timeouts", "count"},
    {"runtime.wal.records_per_op", "count"},
    {"runtime.wal.bytes_per_op", "B"},
    {"runtime.wal.snapshots", "count"},
    {"runtime.adapt.decisions", "count"},
    {"runtime.adapt.migrations", "count"},
    {"runtime.adapt.invalidations", "count"},
    {"runtime.adapt.replica_read_ratio", "ratio"},
    {"runtime.directory.cache_hit_ratio", "ratio"},
    {"virt_latency_p50_us", "us"},
    {"virt_latency_p99_us", "us"},
    {"virt_ops_per_s", "op/s"},
    {"failed_ratio", "ratio"},
    // obs
    {"obs.snapshot_us", "us"},
    {"obs.metrics_registered", "count"},
    // harness
    {"driver.op_host_us_p99", "us"},
    {"trace.overhead_ratio", "ratio"},
};

inline constexpr std::size_t kLayerMetricCount =
    sizeof(kLayerMetrics) / sizeof(kLayerMetrics[0]);

}  // namespace perfbench
