#!/usr/bin/env python3
"""Self-checks of the benchmark's traced output and of run.py.

    python3 perfbench/tests/test_perfbench.py

Runs a short traced run of every workload through run.py (building first
if needed) and checks the trace: derived self times are non-negative, the
sweep's parts do not exceed the whole rpc, every per-layer metric a
workload exercises is present, and the names agree with BENCHMARK.json.
Also checks that run.py fails without a result line when the program
sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 7
SECONDS = "1"

# Per-layer metrics each workload must exercise (the rest may be 0 and
# listed as not applicable).
COMMON_RPC = {
    "support.buffer_pool.reuse_ratio", "support.thread_pool.steals",
    "model.assemble_ms", "model.verify_ms",
    "transform.analyze_ms", "transform.generate_ms", "transform.out_classes",
    "vm.local_call_ns", "vm.proxy_entry_ns", "vm.instructions_per_op",
    "net.sim.transfer_ns", "net.link.max_utilization_ppm", "net.drops_per_op",
    "wire_bytes_per_op",
    "runtime.rpc_ns", "runtime.rpc_self_ns", "runtime.proxy_self_ns", "runtime.driver_self_ns",
    "runtime.rpc.retries_per_op", "runtime.rpc.dedup_hits", "runtime.rpc.timeouts",
    "virt_latency_p50_us", "virt_latency_p99_us", "virt_ops_per_s", "failed_ratio",
    "obs.snapshot_us", "obs.metrics_registered",
    "driver.op_host_us_p99", "trace.overhead_ratio",
}
CODEC = lambda p: {"net.codec.%s.%s" % (p, k) for k in (
    "encode_request_ns", "decode_request_ns", "encode_reply_ns", "decode_reply_ns", "frame_bytes")}
APPLIES = {
    "rpc-small": COMMON_RPC | CODEC("rmi") | {"vm.ic_hit_ratio"},
    "rpc-bulk": COMMON_RPC | CODEC("soap") | CODEC("corba"),
    "rw-faulty": COMMON_RPC | CODEC("rmi") | {
        "vm.ic_hit_ratio", "runtime.discover_rpc_ns",
        "runtime.wal.records_per_op", "runtime.wal.bytes_per_op", "runtime.wal.snapshots",
        "runtime.adapt.decisions", "runtime.adapt.migrations", "runtime.adapt.invalidations",
        "runtime.adapt.replica_read_ratio", "runtime.directory.cache_hit_ratio"},
    "transform-jdk": {
        "support.thread_pool.steals", "corpus.generate_ms", "model.verify_ms",
        "transform.analyze_ms", "transform.generate_ms", "transform.out_classes",
        "obs.snapshot_us", "obs.metrics_registered", "failed_ratio",
        "driver.op_host_us_p99", "trace.overhead_ratio"},
}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.results = {}
        cls.traces = {}
        for w in APPLIES:
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", w, "--seed", str(SEED), "--seconds", SECONDS,
                 "--trace", "1"], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                raise AssertionError("%s traced run failed (exit %d)" % (w, proc.returncode))
            cls.results[w] = json.loads(proc.stdout.splitlines()[-1])
            path = os.path.join(build_dir(), "traces", "%s-seed%d.json" % (w, SEED))
            with open(path) as f:
                cls.traces[w] = json.load(f)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(APPLIES))

    def test_result_names_match_benchmark_json(self):
        wanted = [m["name"] for m in self.spec["per_layer"]]
        for w, r in self.results.items():
            self.assertEqual(list(r["metrics"]), wanted, w)
            self.assertEqual(list(self.traces[w]["perfbench"]["metrics"]), wanted, w)

    def test_applicable_metrics_present(self):
        for w, applies in APPLIES.items():
            na = set(self.traces[w]["perfbench"]["not_applicable"])
            self.assertFalse(applies & na, "%s: %s reported as not applicable" % (w, sorted(applies & na)))

    def test_self_times_non_negative(self):
        for w in ("rpc-small", "rpc-bulk", "rw-faulty"):
            m = self.results[w]["metrics"]
            for name in ("runtime.rpc_self_ns", "runtime.proxy_self_ns", "runtime.driver_self_ns"):
                self.assertGreaterEqual(m[name]["value"], 0.0, "%s %s" % (w, name))

    def test_sweep_parts_within_rpc(self):
        for w in ("rpc-small", "rpc-bulk", "rw-faulty"):
            p = self.traces[w]["perfbench"]["config"]["sweep_rpc_parts_ns"]
            self.assertLessEqual(p["codec"] + p["transfers"] + p["server_vm"], p["rpc"], w)

    def test_spans_cover_setup_driver_ops_and_sweep(self):
        for w, t in self.traces.items():
            names = {e["name"] for e in t["traceEvents"]}
            self.assertIn("op", names, w)
            self.assertIn("driver.run", names, w)
            self.assertTrue(any(n.startswith("setup.") for n in names), w)
            self.assertTrue(any(n.startswith("sweep.") for n in names), w)
            ops = [e for e in t["traceEvents"] if e["name"] == "op"]
            self.assertTrue(all(e["args"]["op"] > 0 and e["args"]["parent"] > 0 for e in ops), w)

    def test_config_pins_inputs(self):
        for w, t in self.traces.items():
            c = t["perfbench"]["config"]
            for key in ("seed", "build_type", "nproc"):
                self.assertIn(key, c, w)
            self.assertEqual(c["seed"], SEED)


class BareDirectory(unittest.TestCase):
    def test_fails_without_program_sources(self):
        bare = os.path.join(build_dir(), "test-bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rpc-small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
