#!/usr/bin/env python3
"""Self-tests of the SplitFT benchmark, in its small-size mode.

    python3 perfbench/test_perfbench.py

Checks that every workload emits every metric BENCHMARK.json names (and the
per-layer values its layers actually produce), that an injected oracle
mismatch fails the run, that virtual metrics repeat exactly for one seed and
differ for another, and that the benchmark refuses to run without the
repository's sources. The first test builds the benchmark if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer values each workload must produce itself (the rest may be the
# zero run.py reports for a layer the workload leaves idle).
COMMON_LAYERS = [
    "ncl.recover.get_peers_ms", "ncl.recover.connect_ms",
    "ncl.recover.sync_peers_ms", "ncl.recover.sync_peers_cold_ms",
    "ncl.record_virt_us.p50", "ncl.records_per_op",
    "rdma.read_bytes_per_recovery", "sim.virt_s_per_host_s",
    "sim.arena_slab_growth", "controller.rpcs_per_recovery",
    "controller.rpc_virt_us.p50", "ncl.pool.cold_connects",
    "ncl.client.suffix_reposts", "ncl.client.peers_replaced",
    "rdma.failed_wrs", "rdma.wr_retries", "common.status.discards_nonok",
    "obs.attributed_fraction", "obs.tracing_overhead",
    "recover.cold_virt_ms", "op_samples",
]
LAYERS = {
    "ycsb_a_kv": COMMON_LAYERS + [
        "workload.next_host_ns", "workload.value_for_host_ns",
        "harness.self_host_frac", "apps.get_host_ns", "apps.commit_host_ns",
        "apps.get_virt_us.p50", "apps.get_virt_us.p99",
        "apps.commit_virt_us.p50", "apps.commit_virt_us.p99",
        "apps.writes_per_commit", "apps.kvstore.block_cache_hit_ratio",
        "apps.kvstore.evictions", "apps.replay_self_virt_ms",
        "splitft.make_server_host_ms", "splitft.route.ncl_opens",
        "splitft.route.dfs_opens", "rdma.wrs_per_append",
        "rdma.wrs_per_doorbell",
        "rdma.write_bytes_per_user_byte", "rdma.wr_write_virt_us",
        "dfs.write_amp", "dfs.background_syncs", "dfs.fsync_wait_us.p99",
        "dfs.reads_per_get", "dfs.read_self_virt_ms",
        "dfs.readahead_hit_ratio", "common.crc32c_host_GBps.frame",
    ],
    "tenants_pooled": COMMON_LAYERS + [
        "ncl.append_host_ns.rep", "ncl.append_host_ns.ec",
        "ncl.drain_host_ns.rep", "ncl.drain_host_ns.ec", "ncl.create_host_us",
        "ncl.pool.qps_open", "ncl.peer.slab_bytes_per_log_byte.rep",
        "ncl.peer.slab_bytes_per_log_byte.ec", "rdma.wrs_per_append",
        "rdma.wrs_per_doorbell",
        "rdma.write_bytes_per_user_byte", "rdma.wr_write_virt_us",
        "controller.rpcs_per_tenant", "sim.heap_callables_growth",
        "sim.pending_events_end",
    ],
    "recover_redis": COMMON_LAYERS + [
        "workload.next_host_ns", "apps.get_host_ns", "apps.commit_host_ns",
        "apps.redis.replayed_commands", "apps.replay_self_virt_ms",
        "splitft.make_server_host_ms", "dfs.read_self_virt_ms",
        "dfs.readahead_hit_ratio", "common.crc32c_host_GBps.frame",
        "common.crc32c_host_GBps.rdb", "process.rss_growth_mb_per_cycle",
        "recover.warm_virt_ms",
    ],
}


def run(workload, seed=1, trace=0, seconds=2, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--small"] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def last_pass(workload, trace):
    with open(os.path.join(OUT_DIR, "last-%s-trace%d.json" %
                           (workload, trace))) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):

    def test_every_metric_emitted(self):
        for workload in LAYERS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    rc, result, err = run(workload, trace=trace)
                    self.assertEqual(rc, 0, err)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    names = [m["name"] for m in SPEC[kind]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for m in SPEC[kind]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])
                    if kind == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
            traced = last_pass(workload, 1)
            produced = dict(traced["virt"], **traced["host"],
                            **traced["traced"])
            for name in LAYERS[workload]:
                if name != "obs.tracing_overhead":
                    self.assertIn(name, produced, workload)
            self.assertGreaterEqual(traced["traced"]["obs.attributed_fraction"],
                                    0.95, workload)
            self.assertTrue(os.path.isfile(os.path.join(
                OUT_DIR, "spans-%s-seed1.json" % workload)))

    def test_injected_mismatch_fails(self):
        for workload in LAYERS:
            with self.subTest(workload=workload):
                rc, result, _ = run(workload, seed=3,
                                    extra=["--inject-mismatch"])
                self.assertEqual(rc, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_virtual_metrics_repeat_and_depend_on_seed(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        for workload in LAYERS:
            with self.subTest(workload=workload):
                virt = []
                for seed in (5, 5, 6):
                    rc, _, err = run(workload, seed=seed)
                    self.assertEqual(rc, 0, err)
                    virt.append(last_pass(workload, 0)["virt"])
                self.assertEqual(virt[0], virt[1])
                for name, bound in bounds.items():
                    if name not in virt[0]:
                        continue  # a host-time metric
                    a, b = virt[0][name], virt[2][name]
                    self.assertLessEqual(abs(a - b) / a, bound, name)
                self.assertNotEqual(virt[0], virt[2])

    def test_refuses_to_run_without_sources(self):
        isolated = os.path.join(OUT_DIR, "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, result, _ = run("tenants_pooled", cwd=isolated)
        shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
