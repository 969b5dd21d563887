#!/usr/bin/env python3
"""The repo benchmark: one command that builds the simulator from the
checkout, generates a seeded trace corpus, runs one workload for a set
time through the programs users run (gaze_sim, gaze_serve), checks the
outputs and prints every metric by name and unit. The last stdout line
is the result JSON.

  python3 perfbench/run.py --workload matrix_1c --seed 1 --seconds 30 \\
      --trace 0          # end-to-end metrics
  ... --trace 1          # traced run: the per-layer split
  python3 perfbench/run.py --compare BEFORE.json AFTER.json
  python3 perfbench/run.py --selftest

Run it from the repo root. Builds and scratch files go under
$CARGO_TARGET_DIR (default .bench_build). See perfbench/README.md.
"""

import argparse
import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

THREADS = min(4, len(os.sched_getaffinity(0)))

# Blocks a prefetch can sit in, per core, when statistics restart after
# warmup: L1D (48 KiB) + L2 (512 KiB) of 64 B blocks.
WINDOW_BLOCKS_PER_CORE = 48 * 1024 // 64 + 512 * 1024 // 64

# Setup repetitions in an end-to-end run; setup_s is their median.
SETUP_REPS = 7

MATRIX_1C = {
    "kind": "sim",
    "traces": ["leslie3d", "fotonik3d_s", "fluidanimate", "BFS-17",
               "PageRank-1", "canneal", "mcf"],
    "prefetchers": ["gaze", "pmp", "vberti"],
    "cores": 1, "records": 300000, "warmup": 100000, "sim": 200000,
}

MIX_4C = {
    "kind": "sim",
    "traces": ["leslie3d", "lbm", "BFS-17", "PageRank-1"],
    "prefetchers": ["gaze"],
    "cores": 4, "records": 300000, "warmup": 60000, "sim": 120000,
}

# serve_overlap: a fixed pool of small specs that overlap in cells,
# with short phases and mixed attach levels. The seed draws the order.
SERVE_PHASES = {"warmup": 10000, "sim": 40000}
SERVE_POOL = [
    (["gaze"], ["leslie3d", "mcf"], ["l1"]),
    (["gaze", "pmp"], ["leslie3d"], ["l1"]),
    (["pmp"], ["fluidanimate", "canneal"], ["l2"]),
    (["gaze"], ["fluidanimate"], ["l2"]),
    (["vberti", "gaze"], ["BFS-17"], ["l1"]),
    (["ip_stride"], ["mcf", "BFS-17"], ["l2"]),
    (["gaze", "vberti"], ["canneal", "leslie3d"], ["l1", "l2"]),
    (["pmp", "ip_stride"], ["fluidanimate"], ["l1"]),
    (["gaze"], ["PageRank-1", "mcf"], ["l2"]),
    (["vberti"], ["PageRank-1"], ["l1", "l2"]),
    (["ip_stride", "gaze"], ["canneal"], ["l1"]),
    (["pmp", "gaze"], ["PageRank-1", "leslie3d"], ["l2"]),
]
SERVE = {
    "kind": "serve",
    "traces": ["leslie3d", "fluidanimate", "BFS-17", "PageRank-1",
               "canneal", "mcf"],
    "records": 60000,
    "submissions": 60,   # per daemon (one closed loop, fresh cache)
    "connections": THREADS,
    # One CPU stays free for the load generator and the daemon's socket
    # thread, whose latency the submit metrics measure; with all CPUs
    # simulating, the run-to-run spread of every timing was about 3x.
    "workers": max(1, THREADS - 1),
}

WORKLOADS = {"matrix_1c": MATRIX_1C, "mix_4c": MIX_4C,
             "serve_overlap": SERVE}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "sim_minstr_per_s": "Minstr/s", "cells_per_s": "cells/s",
    "peak_rss_mb": "MB", "submit_p50_ms": "ms", "submit_p95_ms": "ms",
    "cached_submit_p50_ms": "ms", "gaze_speedup": "ratio",
    "gaze_accuracy": "ratio", "gaze_coverage": "ratio",
}

PER_LAYER = {
    "workloads.gen_s": "s", "workloads.records": "count",
    "tracing.encode_s": "s", "tracing.bytes_per_record": "B",
    "tracing.decode_ns_per_record": "ns",
    "harness.cell_s": "s", "harness.baseline_s": "s",
    "harness.baseline_reuse_frac": "ratio", "harness.summarize_us": "us",
    "driver.pool_busy_frac": "ratio", "driver.cell_max_s": "s",
    "sim.build_ms": "ms", "sim.warmup_s": "s", "sim.measure_s": "s",
    "sim.ns_per_instr": "ns", "sim.ns_per_event": "ns",
    "sim.events_dispatched": "count", "sim.cycles": "count",
    "sim.skip_frac": "ratio",
    "core.instructions": "count", "core.rob_full_frac": "ratio",
    "core.frontend_stall_frac": "ratio",
    "l1d.accesses": "count", "l1d.miss_frac": "ratio",
    "l1d.pf_dropped_frac": "ratio", "l2.miss_frac": "ratio",
    "llc.accesses": "count", "llc.miss_frac": "ratio",
    "llc.pf_dropped_mshr": "count",
    "dram.reads": "count", "dram.writes": "count",
    "dram.row_hit_frac": "ratio", "dram.bus_busy_frac": "ratio",
    "dram.avg_read_latency_cycles": "cycles",
    "prefetchers.on_access_calls": "count", "prefetchers.on_access_ns": "ns",
    "prefetchers.hook_frac": "ratio", "prefetchers.issued": "count",
    "prefetchers.useful_frac": "ratio", "prefetchers.late_frac": "ratio",
    "campaign.expand_ms": "ms", "campaign.lookup_us": "us",
    "campaign.store_us": "us", "campaign.report_ms": "ms",
    "campaign.cache_hit_frac": "ratio",
    "serve.accept_ms": "ms", "serve.queue_wait_ms": "ms",
    "serve.exec_s": "s", "serve.report_ms": "ms", "serve.dedup_frac": "ratio",
    "serve.cells_executed": "count", "serve.rejected": "count",
    "bench.trace_overhead_frac": "ratio",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (no result line printed)."""


# ---------------------------------------------------------------- build

class Build:
    def __init__(self, root):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.top = os.path.abspath(os.path.join(root, target))
        self.dir = os.path.join(self.top, "cmake")
        self.root = root

    def exe(self, name):
        sub = "gaze/src" if name.startswith("gaze_") else ""
        return os.path.join(self.dir, sub, name)

    def ensure(self):
        src = os.path.join(self.root, "perfbench")
        if not os.path.isfile(os.path.join(self.dir, "CMakeCache.txt")):
            self._run(["cmake", "-S", src, "-B", self.dir,
                       "-DCMAKE_BUILD_TYPE=Release"])
        self._run(["cmake", "--build", self.dir, "-j", str(THREADS),
                   "--target", "gaze_sim", "gaze_serve", "perfbench_tool"])
        out = subprocess.run([self.exe("perfbench_tool"), "build-info"],
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    @staticmethod
    def _run(cmd):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


# -------------------------------------------------------------- helpers

def spawn_wait4(cmd):
    """Run a program, discarding its output, and reap it with wait4:
    (wall_s, cpu_s, rss_mb, rc) of that one child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            proc.returncode)


def make_corpus(build, cfg, seed, corpus_dir):
    """Generate + encode the corpus; returns (wall_s, tool report)."""
    os.makedirs(corpus_dir, exist_ok=True)
    t0 = time.perf_counter()
    out = subprocess.run(
        [build.exe("perfbench_tool"), "corpus", "--seed=%d" % seed,
         "--records=%d" % cfg["records"], "--out=" + corpus_dir,
         "--workloads=" + ",".join(cfg["traces"])],
        capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise BenchError("corpus generation failed: " + out.stderr.strip())
    return wall, json.loads(out.stdout)


def write_spec(path, name, prefetchers, workloads, levels, cores, warmup,
               sim, trace_dir):
    spec = {"name": name, "prefetchers": prefetchers,
            "workloads": workloads, "levels": levels, "cores": [cores],
            "warmup": warmup, "sim": sim, "trace_dir": trace_dir}
    with open(path, "w") as f:
        json.dump(spec, f)
    return spec


def run_traced(build, spec_paths, work):
    """The traced in-process run over @p spec_paths; returns the tool
    output and the report texts in spec order."""
    cache = os.path.join(work, "traced_cache")
    reports = os.path.join(work, "traced_reports")
    for d in (cache, reports):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    out = subprocess.run(
        [build.exe("perfbench_tool"), "traced",
         "--specs=" + ",".join(spec_paths), "--threads=%d" % THREADS,
         "--cache-dir=" + cache, "--report-dir=" + reports,
         "--spans=" + os.path.join(work, "spans.json")],
        capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError("traced run failed: " + out.stderr.strip()[-2000:])
    texts = []
    for i in range(len(spec_paths)):
        with open(os.path.join(reports, "%d.json" % i)) as f:
            texts.append(f.read())
    return json.loads(out.stdout), texts


def layer_metrics(tool, corpus):
    """Per-layer metrics that come from the traced tool and the corpus
    report (the workload-specific ones are added by the caller)."""
    sp = tool["spans"]
    c = tool["counters"]

    def total(name):
        return sp.get(name, {}).get("total_s", 0.0)

    def mean(name, scale):
        s = sp.get(name)
        return s["total_s"] / s["count"] * scale if s else 0.0

    reuse = sp.get("harness.baseline_reuse", {}).get("count", 0)
    computed = sp.get("harness.baseline", {}).get("count", 0)
    return {
        "workloads.gen_s": corpus["gen_s"],
        "workloads.records": corpus["records"],
        "tracing.encode_s": corpus["encode_s"],
        "tracing.bytes_per_record":
            corpus["payload_bytes"] / corpus["records"],
        "tracing.decode_ns_per_record":
            tool["decode_s"] / tool["decoded_records"] * 1e9,
        "harness.cell_s": total("harness.cell"),
        "harness.baseline_s": total("harness.baseline"),
        "harness.baseline_reuse_frac": reuse / max(1, reuse + computed),
        "harness.summarize_us": mean("harness.summarize", 1e6),
        "sim.build_ms": mean("sim.build", 1e3),
        "sim.warmup_s": total("sim.warmup"),
        "sim.measure_s": total("sim.measure"),
        "sim.ns_per_instr": c["sim_ns_per_instr"],
        "sim.ns_per_event": c["sim_ns_per_event"],
        "sim.events_dispatched": c["sim_events"],
        "sim.cycles": c["sim_cycles"],
        "sim.skip_frac": c["sim_skip_frac"],
        "core.instructions": c["core_instructions"],
        "core.rob_full_frac": c["core_rob_full_frac"],
        "core.frontend_stall_frac": c["core_frontend_stall_frac"],
        "l1d.accesses": c["l1d_accesses"],
        "l1d.miss_frac": c["l1d_miss_frac"],
        "l1d.pf_dropped_frac": c["l1d_pf_dropped_frac"],
        "l2.miss_frac": c["l2_miss_frac"],
        "llc.accesses": c["llc_accesses"],
        "llc.miss_frac": c["llc_miss_frac"],
        "llc.pf_dropped_mshr": c["llc_pf_dropped_mshr"],
        "dram.reads": c["dram_reads"],
        "dram.writes": c["dram_writes"],
        "dram.row_hit_frac": c["dram_row_hit_frac"],
        "dram.bus_busy_frac": c["dram_bus_busy_frac"],
        "dram.avg_read_latency_cycles": c["dram_avg_read_latency_cycles"],
        "prefetchers.on_access_calls": c["pf_on_access_calls"],
        "prefetchers.on_access_ns": c["pf_on_access_ns"],
        "prefetchers.hook_frac": c["pf_hook_frac"],
        "prefetchers.issued": c["pf_issued"],
        "prefetchers.useful_frac": c["pf_useful_frac"],
        "prefetchers.late_frac": c["pf_late_frac"],
        "campaign.expand_ms": total("campaign.expand") * 1e3,
        "campaign.lookup_us": mean("campaign.lookup", 1e6),
        "campaign.store_us": mean("campaign.store", 1e6),
        "campaign.report_ms": mean("campaign.report", 1e3),
    }


def traced_rows(tool):
    return [benchlib.cell_row(c) for c in tool["cells"]]


def compare_rows(traced, untraced, ops):
    """Every untraced cell must reappear unchanged in the traced run:
    the timing wrappers must not perturb simulated results."""
    by_key = {benchlib.row_key(r): r for r in traced}
    for row in untraced:
        if by_key.get(benchlib.row_key(row)) != row:
            ops.fail("traced cell differs from untraced: %s"
                     % json.dumps(row))


def check_traced_cells(tool, ops):
    for c in tool["cells"]:
        ops.attempt()
        bad = benchlib.invariant_failures(
            c, WINDOW_BLOCKS_PER_CORE * c["cores"])
        if c["min_core_instructions"] < c["sim_target"]:
            bad.append("retired %d < target %d" %
                       (c["min_core_instructions"], c["sim_target"]))
        if bad:
            ops.fail("traced %s x %s: %s" %
                     (c["prefetcher"], c["workload"], "; ".join(bad)))


def gaze_quality(cells):
    """Speedup as a geomean, accuracy and coverage as arithmetic means
    over the gaze cells: the repo's suite aggregation (a chase cell's
    coverage can be 0, which a geomean cannot take)."""
    gz = [c for c in cells if c["prefetcher"] == "gaze"]
    return {
        "gaze_speedup": benchlib.geomean(c["speedup"] for c in gz),
        "gaze_accuracy": sum(c["accuracy"] for c in gz) / len(gz),
        "gaze_coverage": sum(c["coverage"] for c in gz) / len(gz),
    }


def median_over_time(reps):
    return {k: benchlib.median([r[k] for r in reps]) for k in reps[0]}


# ---------------------------------------------------- gaze_sim workloads

class SimWorkload:
    def __init__(self, build, cfg, seed, work):
        self.build, self.cfg, self.seed, self.work = build, cfg, seed, work
        self.corpus = os.path.join(work, "corpus")
        self.spec_path = os.path.join(work, "spec.json")
        write_spec(self.spec_path, "perfbench", cfg["prefetchers"],
                   cfg["traces"], ["l1"], cfg["cores"], cfg["warmup"],
                   cfg["sim"], self.corpus)
        self.ref_digest = None

    def run_once(self, ops, rep):
        cfg = self.cfg
        out = os.path.join(self.work, "gaze_sim.json")
        cmd = [self.build.exe("gaze_sim"),
               "--prefetchers=" + ",".join(cfg["prefetchers"]),
               "--workloads=" + ",".join(cfg["traces"]),
               "--trace-dir=" + self.corpus, "--level=l1",
               "--cores=%d" % cfg["cores"], "--threads=%d" % THREADS,
               "--warmup=%d" % cfg["warmup"], "--sim=%d" % cfg["sim"],
               "--quiet", "--out=" + out]
        wall, cpu, rss, rc = spawn_wait4(cmd)
        n_cells = len(cfg["prefetchers"]) * len(cfg["traces"])
        ops.attempt(n_cells)
        if rc != 0:
            ops.fail("gaze_sim exited %d" % rc, n_cells)
            return None
        with open(out) as f:
            doc = json.load(f)
        cells = doc["cells"]
        rows = [benchlib.cell_row(c, "l1", cfg["cores"]) for c in cells]
        dig = benchlib.digest(rows)
        for c in cells:
            bad = benchlib.invariant_failures(
                c, WINDOW_BLOCKS_PER_CORE * cfg["cores"])
            if bad:
                ops.fail("%s x %s: %s" % (c["prefetcher"], c["workload"],
                                          "; ".join(bad)))
        jobs = n_cells + len(cfg["traces"])
        target = (cfg["warmup"] + cfg["sim"]) * cfg["cores"] * jobs
        instr = doc["engine"]["instructions_simulated"]
        if len(cells) != n_cells:
            ops.fail("gaze_sim reported %d of %d cells" %
                     (len(cells), n_cells), n_cells)
        if instr < target:
            ops.fail("retired %d < target %d instructions" % (instr, target))
        if self.ref_digest is None:
            self.ref_digest = dig
        elif dig != self.ref_digest:
            ops.fail("rep %d digest %s != %s" % (rep, dig, self.ref_digest),
                     n_cells)
        cell_s = [c["seconds"] for c in cells]
        return {
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "sim_minstr_per_s": instr / wall / 1e6,
            "cells_per_s": n_cells / wall,
            "cell_s": cell_s, "cells": cells, "rows": rows, "digest": dig,
            "strict_exceptions": sum(not benchlib.strictly_ordered(c)
                                     for c in cells),
            "pool_busy_frac": sum(cell_s) / (doc["elapsed_seconds"]
                                             * doc["config"]["threads"]),
        }

    def end_to_end(self, seconds, ops):
        setups = [make_corpus(self.build, self.cfg, self.seed,
                              self.corpus)[0] for _ in range(SETUP_REPS)]
        reps = []
        t0 = time.perf_counter()
        while not reps or (time.perf_counter() - t0 < seconds
                           and len(reps) < 200) or len(reps) < 3:
            r = self.run_once(ops, len(reps))
            if r is None:
                break
            reps.append(r)
        if not reps:
            raise BenchError("gaze_sim produced no result")
        cell_ms = [s * 1e3 for r in reps for s in r["cell_s"]]
        keys = ("wall_s", "cpu_s", "peak_rss_mb", "sim_minstr_per_s",
                "cells_per_s")
        m = {k: benchlib.median([r[k] for r in reps]) for k in keys}
        m["setup_s"] = benchlib.median(setups)
        m["submit_p50_ms"] = benchlib.median(cell_ms)
        m["submit_p95_ms"] = benchlib.percentile(cell_ms, 95)
        # gaze_sim keeps no result cache: every cell takes the compute
        # path, so the read-path latency is the cell latency itself.
        m["cached_submit_p50_ms"] = m["submit_p50_ms"]
        m.update(gaze_quality(reps[0]["cells"]))
        timings = {
            "setup_s": benchlib.timing_summary(setups),
            "wall_s": benchlib.timing_summary([r["wall_s"] for r in reps]),
            "cpu_s": benchlib.timing_summary([r["cpu_s"] for r in reps]),
            "cell_ms": benchlib.timing_summary(cell_ms),
        }
        detail = {"reps": len(reps), "timings": timings,
                  "strict_order_exceptions": reps[0]["strict_exceptions"]}
        return m, self.ref_digest, detail

    def traced(self, seconds, ops):
        _, corpus = make_corpus(self.build, self.cfg, self.seed, self.corpus)
        pairs = []
        t0 = time.perf_counter()
        while not pairs or time.perf_counter() - t0 < seconds:
            plain = self.run_once(ops, len(pairs))
            if plain is None:
                break
            tool, _ = run_traced(self.build, [self.spec_path], self.work)
            check_traced_cells(tool, ops)
            compare_rows(traced_rows(tool), plain["rows"], ops)
            m = layer_metrics(tool, corpus)
            m["driver.pool_busy_frac"] = plain["pool_busy_frac"]
            m["driver.cell_max_s"] = max(plain["cell_s"])
            lookups = tool["cache_lookups"]
            m["campaign.cache_hit_frac"] = tool["cache_hits"] / lookups
            for k in ("serve.accept_ms", "serve.queue_wait_ms",
                      "serve.exec_s", "serve.report_ms", "serve.dedup_frac",
                      "serve.cells_executed", "serve.rejected"):
                m[k] = 0  # no serve layer in a gaze_sim job
            traced_cell_s = tool["spans"]["harness.cell"]["total_s"]
            m["bench.trace_overhead_frac"] = (
                traced_cell_s / sum(plain["cell_s"]) - 1.0)
            pairs.append(m)
        if not pairs:
            raise BenchError("gaze_sim produced no result")
        detail = {"reps": len(pairs),
                  "timings": {"harness.cell_s": benchlib.timing_summary(
                      [p["harness.cell_s"] for p in pairs])}}
        return median_over_time(pairs), plain["digest"], detail


# ------------------------------------------------------ serve workload

class Conn:
    """One closed-loop client connection of the load generator."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.buf = b""
        self.cur = None


class ServeWorkload:
    def __init__(self, build, cfg, seed, work):
        self.build, self.cfg, self.seed, self.work = build, cfg, seed, work
        self.corpus = os.path.join(work, "corpus")
        self.specs = []
        self.spec_paths = []
        for i, (pfs, wls, levels) in enumerate(SERVE_POOL):
            path = os.path.join(work, "pool%02d.json" % i)
            self.specs.append(write_spec(
                path, "pool%02d" % i, pfs, wls, levels, 1,
                SERVE_PHASES["warmup"], SERVE_PHASES["sim"], self.corpus))
            self.spec_paths.append(path)
        self.reports = {}   # spec index -> report text, across all reps
        self.digest_rows = {}

    def distinct_jobs(self, indices):
        """Cells + baselines the daemon must simulate for these specs,
        each exactly once (the dedup promise)."""
        jobs = set()
        for i in set(indices):
            pfs, wls, levels = SERVE_POOL[i]
            for w in wls:
                jobs.add(("baseline", w))
                for pf in pfs:
                    for lv in levels:
                        jobs.add((pf, lv, w))
        return len(jobs)

    def start_daemon(self, cache_dir):
        sock_rel = os.path.relpath(os.path.join(self.work, "serve.sock"))
        if os.path.exists(sock_rel):
            os.unlink(sock_rel)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [self.build.exe("gaze_serve"), "daemon", "--socket=" + sock_rel,
             "--cache-dir=" + cache_dir,
             "--threads=%d" % self.cfg["workers"]],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        while True:
            if proc.poll() is not None:
                raise BenchError("gaze_serve daemon exited at start")
            if os.path.exists(sock_rel):
                try:
                    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    probe.connect(sock_rel)
                    probe.close()
                    break
                except OSError:
                    pass
            if time.perf_counter() - t0 > 30:
                proc.kill()
                proc.wait()
                raise BenchError("gaze_serve daemon never listened")
            time.sleep(0.002)
        return proc, sock_rel, time.perf_counter() - t0

    def request_line(self, idx):
        return (json.dumps({"op": "submit", "priority": 0,
                            "spec": self.specs[idx]}) + "\n").encode()

    def closed_loop(self, sock_path, order):
        """Run the submissions in @p order over the connections, each
        sending its next one after the previous report. Returns the
        per-submission records and the loop's wall time."""
        sel = selectors.DefaultSelector()
        conns = [Conn(sock_path) for _ in range(self.cfg["connections"])]
        queue = list(order)
        done = []
        t_start = time.perf_counter()

        def send_next(c):
            if not queue:
                return False
            idx = queue.pop(0)
            c.cur = {"spec": idx, "send": time.perf_counter(),
                     "progress": []}
            c.sock.setblocking(True)
            c.sock.sendall(self.request_line(idx))
            c.sock.setblocking(False)
            return True

        for c in conns:
            if send_next(c):
                sel.register(c.sock, selectors.EVENT_READ, c)
        while sel.get_map():
            events = sel.select(timeout=120)
            if not events:
                raise BenchError("no answer from the daemon in 120 s")
            for key, _ in events:
                c = key.data
                chunk = c.sock.recv(1 << 20)
                if not chunk:
                    raise BenchError("daemon closed a connection")
                c.buf += chunk
                while b"\n" in c.buf:
                    line, c.buf = c.buf.split(b"\n", 1)
                    now = time.perf_counter()
                    ev = json.loads(line)
                    kind = ev.get("event")
                    if kind == "accepted":
                        c.cur["accepted"] = now
                        c.cur["counts"] = ev
                        continue
                    if kind == "progress":
                        c.cur["progress"].append((now, ev["seconds"],
                                                  ev["cell"]))
                        continue
                    c.cur["end"] = now
                    c.cur["event"] = kind
                    c.cur["body"] = ev
                    done.append(c.cur)
                    if not send_next(c):
                        sel.unregister(c.sock)
        wall = time.perf_counter() - t_start
        status = self.status(sock_path)
        for c in conns:
            c.sock.close()
        sel.close()
        return done, wall, status

    @staticmethod
    def status(sock_path):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sock_path)
        s.sendall(b'{"op":"status"}\n')
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
        s.close()
        return json.loads(buf.split(b"\n", 1)[0])["server"]

    def stop_daemon(self, proc, sock_path):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sock_path)
        s.sendall(b'{"op":"shutdown"}\n')
        s.recv(1 << 12)
        s.close()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except ChildProcessError:
            raise BenchError("gaze_serve daemon vanished")
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def check_submission(self, sub, cache_dir, ops):
        ops.attempt()
        kind = sub["event"]
        if kind != "report":
            ops.fail("submission of pool%02d ended with %s: %s"
                     % (sub["spec"], kind, sub["body"]))
            return
        text = sub["body"]["report"]
        prev = self.reports.setdefault(sub["spec"], text)
        if text != prev:
            ops.fail("pool%02d report differs between submissions"
                     % sub["spec"])
            return
        doc = json.loads(text)
        for c in doc["cells"]:
            key = (c["prefetcher"], c["level"], c["cores"], c["workload"])
            if key in self.digest_rows:
                continue
            with open(os.path.join(cache_dir, c["cell"] + ".json")) as f:
                rec = json.load(f)
            row = benchlib.cell_row(
                c, cycles=rec["cycles_executed"] + rec["cycles_skipped"])
            bad = benchlib.invariant_failures(
                c, WINDOW_BLOCKS_PER_CORE * c["cores"])
            if bad:
                ops.fail("pool%02d %s: %s" % (sub["spec"], key,
                                              "; ".join(bad)))
            self.digest_rows[key] = (row, c)

    def one_rep(self, rep, ops):
        """Fresh cache, fresh daemon, one closed loop of submissions."""
        cache_dir = os.path.join(self.work, "cache%d" % rep)
        shutil.rmtree(cache_dir, ignore_errors=True)
        rng = random.Random(self.seed * 1000003 + rep)
        order = [rng.randrange(len(SERVE_POOL))
                 for _ in range(self.cfg["submissions"])]
        proc, sock_path, start_s = self.start_daemon(cache_dir)
        try:
            subs, wall, status = self.closed_loop(sock_path, order)
            cpu, rss = self.stop_daemon(proc, sock_path)
        except (OSError, ValueError, KeyError) as e:
            raise BenchError("serve closed loop failed: %r" % e)
        finally:
            if proc.poll() is None and proc.returncode is None:
                proc.kill()
                proc.wait()
        for sub in subs:
            self.check_submission(sub, cache_dir, ops)
        # Each distinct job must be simulated exactly once. The status
        # field "executed" counts one completion per waiting submission
        # (Service::onCellDone), so a deduplicated job shows up once per
        # sharer; the simulations are executed - dedup_hits.
        expect = self.distinct_jobs(order)
        simulated = status["executed"] - status["dedup_hits"]
        if simulated != expect:
            ops.fail("daemon simulated %d jobs, expected %d distinct"
                     % (simulated, expect))
        if proc.returncode != 0:
            ops.fail("daemon exited %d" % proc.returncode)
        shutil.rmtree(cache_dir, ignore_errors=True)
        cells = sum(s["counts"]["cells"] for s in subs if "counts" in s)
        # A deduplicated job reports progress to every sharer: count
        # each simulated job once, by its label.
        job_s = {p[2]: p[1] for s in subs for p in s["progress"]}
        executed_instr = simulated * (SERVE_PHASES["warmup"]
                                      + SERVE_PHASES["sim"])
        return {
            "simulated": simulated,
            "start_s": start_s, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": rss, "subs": subs, "status": status,
            "cells_per_s": cells / wall,
            "sim_minstr_per_s": executed_instr / wall / 1e6,
            "pool_busy_frac": (sum(job_s.values())
                               / (wall * status["threads"])),
            "cell_max_s": max(job_s.values(), default=0.0),
            "job_s": sum(job_s.values()),
        }

    def quality(self):
        cells = [c for _, c in self.digest_rows.values()]
        return gaze_quality(cells)

    def digest(self):
        return benchlib.digest([r for r, _ in self.digest_rows.values()])

    def end_to_end(self, seconds, ops):
        setups = [make_corpus(self.build, self.cfg, self.seed,
                              self.corpus)[0] for _ in range(SETUP_REPS)]
        reps = []
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < seconds \
                or len(reps) < 3:
            reps.append(self.one_rep(len(reps), ops))
        lat = [(s["end"] - s["send"]) * 1e3 for r in reps for s in r["subs"]]
        cached = [(s["end"] - s["send"]) * 1e3 for r in reps
                  for s in r["subs"] if "counts" in s
                  and s["counts"]["cached"] == s["counts"]["cells"]]
        fresh = [(s["end"] - s["send"]) * 1e3 for r in reps
                 for s in r["subs"] if "counts" in s
                 and s["counts"]["enqueued"] > 0]
        m = {k: benchlib.median([r[k] for r in reps])
             for k in ("wall_s", "cpu_s", "peak_rss_mb", "cells_per_s",
                       "sim_minstr_per_s")}
        m["setup_s"] = (benchlib.median(setups)
                        + benchlib.median([r["start_s"] for r in reps]))
        m["submit_p50_ms"] = benchlib.median(lat)
        m["submit_p95_ms"] = benchlib.percentile(lat, 95)
        m["cached_submit_p50_ms"] = benchlib.median(cached)
        m.update(self.quality())
        timings = {
            "setup_s": benchlib.timing_summary(setups),
            "daemon_start_s": benchlib.timing_summary(
                [r["start_s"] for r in reps]),
            "wall_s": benchlib.timing_summary([r["wall_s"] for r in reps]),
            "submit_ms": benchlib.timing_summary(lat),
            "cached_submit_ms": benchlib.timing_summary(cached),
            "fresh_submit_ms": benchlib.timing_summary(fresh),
        }
        detail = {"reps": len(reps), "submissions": len(lat),
                  "timings": timings,
                  "status_executed_minus_simulated":
                      sum(r["status"]["dedup_hits"] for r in reps)}
        return m, self.digest(), detail

    def traced(self, seconds, ops):
        _, corpus = make_corpus(self.build, self.cfg, self.seed, self.corpus)
        pairs = []
        t0 = time.perf_counter()
        while not pairs or time.perf_counter() - t0 < seconds:
            r = self.one_rep(len(pairs), ops)
            tool, texts = run_traced(self.build, self.spec_paths,
                                     self.work)
            check_traced_cells(tool, ops)
            # Reports built in-process from the traced results must be
            # byte-identical to the daemon's: traced == untraced.
            for i, text in enumerate(texts):
                if i in self.reports and self.reports[i] != text:
                    ops.fail("traced report of pool%02d differs from the "
                             "daemon's" % i)
            subs = r["subs"]
            counts = [s["counts"] for s in subs if "counts" in s]
            cells = sum(c["cells"] for c in counts)
            with_progress = [s for s in subs if s["progress"]]
            m = layer_metrics(tool, corpus)
            m["driver.pool_busy_frac"] = r["pool_busy_frac"]
            m["driver.cell_max_s"] = r["cell_max_s"]
            m["campaign.cache_hit_frac"] = (
                sum(c["cached"] for c in counts) / cells)
            m["serve.accept_ms"] = benchlib.median(
                [(s["accepted"] - s["send"]) * 1e3 for s in subs
                 if "accepted" in s])
            m["serve.queue_wait_ms"] = benchlib.median(
                [(s["progress"][0][0] - s["accepted"]) * 1e3
                 for s in with_progress]) if with_progress else 0.0
            m["serve.exec_s"] = benchlib.median(
                [s["progress"][-1][0] - s["progress"][0][0]
                 for s in with_progress]) if with_progress else 0.0
            m["serve.report_ms"] = benchlib.median(
                [(s["end"] - (s["progress"][-1][0] if s["progress"]
                              else s["accepted"])) * 1e3
                 for s in subs if "accepted" in s])
            m["serve.dedup_frac"] = sum(c["shared"] for c in counts) / cells
            m["serve.cells_executed"] = r["simulated"]
            m["serve.rejected"] = r["status"]["rejected"]
            traced_job_s = (tool["spans"]["harness.cell"]["total_s"]
                            + tool["spans"]["harness.baseline"]["total_s"])
            m["bench.trace_overhead_frac"] = traced_job_s / r["job_s"] - 1.0
            pairs.append(m)
        compare_rows(traced_rows(tool),
                     [r for r, _ in self.digest_rows.values()], ops)
        detail = {"reps": len(pairs)}
        return median_over_time(pairs), self.digest(), detail


# ------------------------------------------------------------------ main

def emit(metrics, units, ops, extra_lines):
    for line in extra_lines:
        print(line)
    for name in sorted(units):
        print("%-34s %16.6f %s" % (name, metrics[name], units[name]))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result here")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if args.selftest:
        import unittest
        here = os.path.dirname(os.path.abspath(__file__))
        suite = unittest.defaultTestLoader.discover(here, "test_*.py")
        ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as f:
                docs.append(json.load(f))
        lines = benchlib.compare(*docs)
        print("\n".join(lines))
        return 3 if lines[0].startswith("REFUSED") else 0
    if not args.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        log("perfbench: run from a repo checkout (no CMakeLists.txt/src "
            "in %s)" % root)
        return 2
    build = Build(root)
    try:
        info = build.ensure()
        cfg = WORKLOADS[args.workload]
        work = os.path.join(build.top, "work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        cls = SimWorkload if cfg["kind"] == "sim" else ServeWorkload
        wl = cls(build, cfg, args.seed, work)
        ops = benchlib.Ops()
        if args.trace:
            metrics, dig, detail = wl.traced(args.seconds, ops)
            units = PER_LAYER
        else:
            metrics, dig, detail = wl.end_to_end(args.seconds, ops)
            units = END_TO_END
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1

    prov = benchlib.provenance(root, info, args.seed, args.workload,
                               args.trace, args.seconds)
    full = {"provenance": prov, "digest": dig, "detail": detail,
            "failures": ops.reasons,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}
    for path in filter(None, [args.out, os.path.join(
            work, "result_trace%d.json" % args.trace)]):
        with open(path, "w") as f:
            json.dump(full, f, indent=1, sort_keys=True)
            f.write("\n")
    lines = ["provenance: " + json.dumps(prov, sort_keys=True),
             "digest: " + dig,
             "detail: " + json.dumps(detail, sort_keys=True)]
    lines += ["FAILED: " + r for r in ops.reasons]
    emit(metrics, units, ops, lines)
    return 0


def _terminate(signum, frame):
    # Unwind so the finally blocks stop the daemon and reap children.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main(sys.argv[1:]))
