"""Helpers of the repo benchmark that need no build: timing statistics,
the digest of simulated results, operation accounting, provenance and
the before/after comparison rule. test_benchlib.py is their self-test.
"""

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess

# Percentiles tried for a timing's tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)


def tail_percentile(n):
    """Highest ladder percentile with >= MIN_BEYOND of n samples beyond
    it, or None when n is too small for any."""
    for p in TAIL_LADDER:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= MIN_BEYOND:
            return p
    return None


def timing_summary(values):
    """Median plus the highest percentile with >= 10 samples beyond it,
    with the sample count: how every timing is reported."""
    out = {"n": len(values), "median": median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


def geomean(values):
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# Per-cell statistics that make up the digest: the identity of the
# cell, then its simulated outcome. Host time never enters it.
DIGEST_KEYS = ("prefetcher", "level", "cores", "workload", "ipc",
               "base_ipc", "cycles", "pf_issued", "pf_filled",
               "pf_useful", "pf_late", "llc_miss_base", "llc_miss_pf")


def digest(cells):
    """Order-independent hash of the cells' simulated statistics."""
    rows = sorted(json.dumps([c[k] for k in DIGEST_KEYS]) for c in cells)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def row_key(row):
    """A digest row's cell identity."""
    return tuple(row[k] for k in DIGEST_KEYS[:4])


def cell_row(cell, level="l1", cores=1, cycles=None):
    """Normalize a gaze_sim / campaign report / traced cell to the
    digest keys."""
    row = {k: cell.get(k) for k in DIGEST_KEYS}
    row["level"] = cell.get("level", level)
    row["cores"] = cell.get("cores", cores)
    if cycles is None:
        cycles = cell["cycles_executed"] + cell["cycles_skipped"]
    row["cycles"] = cycles
    return row


def invariant_failures(cell, window_blocks):
    """Checks on one cell's prefetch counters. Statistics restart after
    warmup while prefetched blocks are still resident or in flight, so a
    block filled before the reset can be counted useful after it; the
    allowance is the prefetch-holding capacity (window_blocks). Returns
    a list of failure texts (empty when the cell passes)."""
    bad = []
    issued, filled = cell["pf_issued"], cell["pf_filled"]
    useful, late = cell["pf_useful"], cell["pf_late"]
    if min(issued, filled, useful, late) < 0:
        bad.append("negative prefetch counter")
    if filled > issued + window_blocks:
        bad.append("filled %d > issued %d + %d" %
                   (filled, issued, window_blocks))
    if useful > filled + window_blocks:
        bad.append("useful %d > filled %d + %d" %
                   (useful, filled, window_blocks))
    if not cell["ipc"] > 0 or not cell["base_ipc"] > 0:
        bad.append("non-positive IPC")
    return bad


def strictly_ordered(cell):
    """useful <= filled <= issued without the warmup-window allowance."""
    return cell["pf_useful"] <= cell["pf_filled"] <= cell["pf_issued"]


class Ops:
    """Attempted / failed operation count with the reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def attempt(self, n=1):
        self.attempted += n

    def fail(self, reason, n=1):
        self.failed += n
        if len(self.reasons) < 50:
            self.reasons.append(reason)


def git_commit(root):
    """HEAD of the checkout at @p root, or None when it is not itself a
    git repository (git must not find an enclosing one)."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest(root):
    """Hash of the simulator sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(root, build_info, seed, workload, trace, run_seconds):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "gaze_obs": build_info["gaze_obs"],
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "run_seconds": run_seconds,
        "commit": git_commit(root),
        "source_digest": source_digest(root),
    }


# Fields that must agree before two results may be compared: the host
# and the build configuration, and what was measured.
SAME_FOR_COMPARISON = ("nproc", "cpu_model", "compiler", "build_type",
                       "gaze_obs", "workload", "trace", "seed")


def comparison_refusal(before, after):
    """None when before/after may be compared, else the reason not."""
    pb, pa = before["provenance"], after["provenance"]
    diffs = ["%s: %r vs %r" % (k, pb.get(k), pa.get(k))
             for k in SAME_FOR_COMPARISON if pb.get(k) != pa.get(k)]
    if diffs:
        return "results differ in host or config (" + "; ".join(diffs) + ")"
    return None


def compare(before, after):
    """Lines of an after/before table, or a single refusal line."""
    why = comparison_refusal(before, after)
    if why:
        return ["REFUSED: no ratios printed: " + why]
    lines = []
    for name, m in sorted(after["metrics"].items()):
        old = before["metrics"].get(name)
        if old is None:
            lines.append("%-34s %14.6g %-9s (new)" %
                         (name, m["value"], m["unit"]))
            continue
        ratio = m["value"] / old["value"] if old["value"] else float("nan")
        lines.append("%-34s %14.6g -> %14.6g %-9s x%.4f" %
                     (name, old["value"], m["value"], m["unit"], ratio))
    db, da = before.get("digest"), after.get("digest")
    lines.append("digest: %s -> %s (%s)" %
                 (db, da, "same" if db == da else "MODEL CHANGED"))
    return lines
