#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the imcverify CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --trace 1   # every metric, every workload

Each workload is a fixed config under ``bench/workloads/`` plus the CLI
subcommands it runs; ``--seed`` becomes the Monte Carlo seed (``--seed`` of
the CLI). One iteration runs every subcommand of the workload, each in a
fresh single-threaded ``python3`` process (``bench/child.py``), into a clean
output directory, then checks every exported artifact. Iterations repeat
until ``--seconds`` have passed (always at least one).

With ``--trace 0`` the last stdout line reports the end-to-end metrics, the
medians over iterations of:

* ``total_s``: spawn of the first CLI process to the return of ``main``
  (after ``summary.json`` is written), summed over the subcommands;
* ``setup_s``: the same for an invocation without phases (interpreter
  start, package import, config load and validation, grid partition and
  summary write), median of ``SETUP_PROBES`` fresh processes per run;
* ``peak_rss_mb``: the largest max-RSS of the iteration's processes.

Both times are wall times scaled by the CPU speed measured while they ran
(``SpeedProbe``); the unscaled wall times are printed and kept in the
report.

With ``--trace 1`` each iteration is a plain run followed by a traced run
whose processes wrap the package's public functions (see ``child.py``); the
last line reports the per-layer metrics (see ``README.md``), including the
tracing overhead (traced ``total_s`` minus plain ``total_s``) and
``pipeline.outside_s``, the part of ``total_s`` outside the phase timers
of ``summary.json`` (set-up plus, when phased, artifact reloads).

``attempted``/``failed`` count output checks; ``correct`` is true when
every structural check passed (see ``artifacts.py`` and ``README.md``).
Everything the run writes goes under ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.special import erf

import artifacts

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
SRC = ROOT / "src"

# name -> (config file, CLI subcommands run in order, why it is here)
WORKLOADS = {
    "paper-mult-40": (
        "paper-mult-40.yaml", ("run",),
        "paper config at 40x40: structured noise-CDF abstraction dominates",
    ),
    "general-sin-20": (
        "general-sin-20.yaml", ("run",),
        "general structure: interval-arithmetic posteriors dominate, noise CDF idle",
    ),
    "additive-h200-phased": (
        "additive-h200-phased.yaml", ("abstract", "verify", "improve"),
        "200 fixed sweeps dominate; the only workload that reloads artifacts from disk",
    ),
    "mixture-mc-h30": (
        "mixture-mc-h30.yaml", ("run",),
        "Monte Carlo with mixture and bisection samplers dominates",
    ),
}

END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("config", "geometry", "dynamics", "noise", "imc", "verify", "cluster", "mc", "pipeline", "cli")

# per-layer metric -> span name whose outermost calls it times
SPAN_TIMES = {
    "config.load_s": "config.load_config",
    "geometry.partition_s": "geometry.partition_domain",
    "dynamics.posterior_s": "dynamics.posterior",
    "dynamics.posterior_f_s": "dynamics.posterior_f",
    "dynamics.eval_point_s": "dynamics.eval_point",
    "noise.cdf_s": "noise.cdf",
    "noise.interval_probability_s": "noise.interval_probability",
    "noise.inverse_cdf_s": "noise.inverse_cdf",
    "imc.build_s": "imc.build_imc",
    "imc.write_s": "imc.write_imc",
    "imc.read_s": "imc.read_imc",
    "verify.rvi_s": "verify.robust_value_iteration",
    "verify.write_results_s": "verify.write_results",
    "verify.read_results_s": "verify.read_results",
    "cluster.improve_s": "cluster.cluster_improve",
    "cluster.select_s": "cluster.select_cluster",
    "mc.estimate_s": "mc.estimate_satisfaction",
    "mc.export_simulate_s": "mc.simulate",
    "mc.write_trajectories_s": "mc.write_trajectories",
}
# per-layer metric -> span name whose calls it counts (nested calls included)
SPAN_CALLS = {
    "dynamics.posterior_calls": "dynamics.posterior",
    "dynamics.posterior_f_calls": "dynamics.posterior_f",
    "dynamics.eval_point_calls": "dynamics.eval_point",
    "noise.cdf_calls": "noise.cdf",
    "noise.interval_probability_calls": "noise.interval_probability",
    "noise.inverse_cdf_calls": "noise.inverse_cdf",
    "cluster.select_calls": "cluster.select_cluster",
}
PAIR_SPANS = ("imc.transition_bounds_structured", "imc.transition_bounds_general")

PER_LAYER = {
    "pipeline.abstract_s": "s",
    "pipeline.verify_s": "s",
    "pipeline.improve_s": "s",
    "pipeline.simulate_s": "s",
    "pipeline.outside_s": "s",
    "cli.import_s": "s",
    "config.load_s": "s",
    "geometry.partition_s": "s",
    "geometry.cells": "count",
    "dynamics.posterior_calls": "count",
    "dynamics.posterior_s": "s",
    "dynamics.posterior_f_calls": "count",
    "dynamics.posterior_f_s": "s",
    "dynamics.eval_point_calls": "count",
    "dynamics.eval_point_s": "s",
    "noise.cdf_calls": "count",
    "noise.cdf_s": "s",
    "noise.interval_probability_calls": "count",
    "noise.interval_probability_s": "s",
    "noise.inverse_cdf_calls": "count",
    "noise.inverse_cdf_s": "s",
    "imc.build_s": "s",
    "imc.pairs_evaluated": "count",
    "imc.pairs_stored": "count",
    "imc.stored_ratio": "ratio",
    "imc.pairs_per_s": "1/s",
    "imc.row_nnz_mean": "count",
    "imc.interval_width_mean": "prob",
    "imc.csv_mb": "MB",
    "imc.write_s": "s",
    "imc.read_s": "s",
    "verify.write_results_s": "s",
    "verify.read_results_s": "s",
    "verify.rvi_s": "s",
    "verify.sweeps": "count",
    "verify.sweeps_per_s": "1/s",
    "verify.row_updates_per_s": "1/s",
    "verify.undetermined_frac": "ratio",
    "verify.mean_gap": "prob",
    "cluster.improve_s": "s",
    "cluster.select_calls": "count",
    "cluster.select_s": "s",
    "cluster.proposals": "count",
    "cluster.improved_states": "count",
    "cluster.undetermined_frac": "ratio",
    "cluster.mean_gap": "prob",
    "mc.estimate_s": "s",
    "mc.estimate_trajectories": "count",
    "mc.trajectories_per_s": "1/s",
    "mc.export_simulate_s": "s",
    "mc.export_trajectories": "count",
    "mc.export_steps": "count",
    "mc.write_trajectories_s": "s",
    "mc.cells_validated": "count",
    "mc.unsound_cells": "count",
    "mc_unsound_frac": "ratio",
    "check_fail_frac": "ratio",
    "cli.exit_code": "code",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "bench.wall_s": "s",
    "bench.speed_factor": "ratio",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# No iteration starts once this much of the run is gone and the last one
# would not fit again: runs must end well within 180 s.
MAX_RUN_S = 150.0
CHILD_TIMEOUT_S = 170.0
# Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 3
# Exports whose bytes must not depend on the Monte Carlo seed.
SEED_FREE = ("imc.csv", "labels.csv", "results.csv", "results_improved.csv")


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "imcverify").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class _Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    def add(self, other: "_Interval") -> "_Interval":
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    def mul(self, other: "_Interval") -> "_Interval":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Interval(min(p), max(p))


def _probe_work(pool: list, start: int) -> None:
    """A fixed mix of the kinds of work the program does: interpreter
    integer loops, numpy scalar calls into ``scipy.special``, frozen
    dataclass interval arithmetic, and reads of objects scattered over more
    memory than the caches hold (``pool[start:start + WALK]``). It calls no
    code of the program, so a change to the program cannot change the
    reference."""
    acc = 0
    for i in range(4000):
        acc += i & 7
    for i in range(20):
        t = np.asarray(i * 1e-3)
        acc += float(np.where(t < 0.0, 0.0, 0.5 * (1.0 + erf(np.clip(t, 0.0, 1.0) / 1.4142))))
    x, y, c = _Interval(0.1, 0.2), _Interval(-0.3, 0.4), _Interval(0.5, 0.6)
    for _ in range(80):
        x = x.add(y).mul(c)
        x = _Interval(math.sin(x.lo) * 0.1, abs(math.sin(x.hi)) * 0.1 + 0.2)
    for v in pool[start : start + WALK]:
        acc += v.hi - v.lo


# objects in the probe's pool, and how many one probe reads
POOL = 150_000
WALK = 200


class SpeedProbe:
    """Samples the speed of the CPU that the benchmark and its children are
    pinned to: every ``PERIOD_S`` a thread times ``_probe_work``. The host's
    speed drifts by 15-25% over seconds to minutes, in CPU time as well as
    in wall time, so each measured wall time is scaled by ``REF_S / mean
    probe CPU time`` over its own window: seconds at the speed at which the
    probe takes ``REF_S``. The thread costs the children about 5% of the
    CPU, the same share in every run."""

    PERIOD_S = 0.02
    REF_S = 1.0e-3

    def __init__(self):
        self.stamp = array("d")
        self.took = array("d")
        # allocated in one shuffled order and listed in another, so that
        # walking the list jumps around memory
        rng = random.Random(0)
        order = list(range(POOL))
        rng.shuffle(order)
        self._pool = [_Interval(float(i), float(i) + 1.0) for i in order]
        rng.shuffle(self._pool)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        start = 0
        while not self._stop.wait(self.PERIOD_S):
            # CPU time of this thread: time-sharing the CPU with a child
            # must not count as slowness
            t = time.thread_time()
            _probe_work(self._pool, start)
            self.took.append(time.thread_time() - t)
            self.stamp.append(time.monotonic())
            start = (start + WALK) % (POOL - WALK)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a wall time measured over [t0, t1] (1.0 if no sample)."""
        lo = bisect.bisect_left(self.stamp, t0)
        hi = bisect.bisect_right(self.stamp, t1)
        took = self.took[lo:hi]
        return self.REF_S / statistics.fmean(took) if len(took) else 1.0


@dataclass
class Context:
    workload: str
    seed: int
    env: dict
    probe: SpeedProbe

    @property
    def config_path(self) -> Path:
        return BENCH / "workloads" / WORKLOADS[self.workload][0]


def invoke(ctx: Context, cmd: str, out: Path, mode: str) -> dict:
    """One CLI subcommand (or, for ``cmd == "setup"``, an invocation
    without phases) in a fresh process; returns its measurements."""
    tag = f"{cmd}-{mode}"
    record_path = out.parent / f"record-{tag}.json"
    spans_path = out.parent / f"spans-{tag}.npz"
    for p in (record_path, spans_path):
        p.unlink(missing_ok=True)
    if cmd == "setup":
        args = [str(ctx.config_path), str(out), str(ctx.seed)]
    else:
        args = [cmd, "-c", str(ctx.config_path), "--output-dir", str(out), "--seed", str(ctx.seed)]
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path), str(spans_path), mode, *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=ctx.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stderr = -9, exc.stderr or b""
    t_wait = time.monotonic()
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {"end": t_wait, "maxrss_kb": 0, "import_s": 0.0}
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError):
        summary = {}
    phases = {k: v.get("seconds", 0.0) for k, v in summary.get("phases", {}).items()}
    wall = record["end"] - t0
    speed = ctx.probe.factor(t0, record["end"])
    return {
        "cmd": cmd,
        "exit": returncode,
        "wall_s": wall,
        "speed": speed,
        "total_s": wall * speed,
        "outside_s": wall - sum(phases.values()),
        "phases": phases,
        "maxrss_mb": record["maxrss_kb"] / 1024.0,
        "import_s": record["import_s"],
        "summary": summary,
        "record": record,
        "spans": spans_path if spans_path.exists() else None,
        "stderr_tail": stderr.decode(errors="replace")[-2000:],
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_iteration(ctx: Context, mode: str) -> dict:
    out = fresh_dir(WORK / ctx.workload / mode / "out")
    invs = [invoke(ctx, cmd, out, mode) for cmd in WORKLOADS[ctx.workload][1]]
    return {
        "out": out,
        "invocations": invs,
        "total_s": sum(i["total_s"] for i in invs),
        "wall_s": sum(i["wall_s"] for i in invs),
        "outside_s": sum(i["outside_s"] for i in invs),
        "peak_rss_mb": max(i["maxrss_mb"] for i in invs),
    }


def csv_hashes(out: Path) -> dict[str, str]:
    return {p.name: artifacts.sha256(p) for p in sorted(out.glob("*.csv"))}


class HashLedger:
    """sha256 of every CSV export, compared across iterations and across
    runs in this checkout (same source tree and config; the trajectories
    file also keyed by seed)."""

    def __init__(self, key: str, seed: int):
        self.path = WORK / "hashes.json"
        self.key, self.seed = key, seed
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def _slot(self, name: str) -> str:
        return f"{self.key}|{name}" if name in SEED_FREE else f"{self.key}|{name}|seed={self.seed}"

    def check(self, hashes: dict[str, str], checks: artifacts.Checks) -> None:
        """The first digest seen for a slot becomes its reference."""
        for name, digest in hashes.items():
            ref = self.known.setdefault(self._slot(name), digest)
            checks.add("structural", f"sha256.{name}", ref == digest, f"{digest[:12]} vs reference {ref[:12]}")

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def span_metrics(invocations: list[dict]) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced processes of one
    iteration, summed over its subcommands."""
    m: dict[str, float] = {k: 0.0 for k in list(SPAN_TIMES) + list(SPAN_CALLS)}
    m.update({f"self_s.{layer}": 0.0 for layer in LAYERS})
    m["imc.pairs_evaluated"] = 0.0
    m["cluster.proposals"] = 0.0
    m["trace.spans"] = 0.0
    for inv in invocations:
        if inv["spans"] is None:
            continue
        names = inv["record"]["span_names"]
        with np.load(inv["spans"]) as z:
            name, parent, outer = z["name"], z["parent"], z["outer"].astype(bool)
            start, end = z["start"], z["end"]
        n = len(name)
        m["trace.spans"] += n
        if n == 0:
            continue
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names])
        per_layer = np.bincount(layer_of[name], weights=self_time, minlength=len(LAYERS))
        for layer, v in zip(LAYERS, per_layer):
            m[f"self_s.{layer}"] += float(v)
        calls = np.bincount(name, minlength=len(names))
        incl = np.bincount(name, weights=dur * outer, minlength=len(names))
        ids = {s: i for i, s in enumerate(names)}
        for metric, span in SPAN_TIMES.items():
            if span in ids:
                m[metric] += float(incl[ids[span]])
        for metric, span in SPAN_CALLS.items():
            if span in ids:
                m[metric] += float(calls[ids[span]])
        if "imc.build_imc" in ids:
            pair_ids = [ids[s] for s in PAIR_SPANS if s in ids]
            is_pair = np.isin(name, pair_ids)
            for i in np.flatnonzero(name == ids["imc.build_imc"]):
                stop = int(np.searchsorted(start, end[i], side="left"))
                m["imc.pairs_evaluated"] += float(np.count_nonzero(is_pair[i + 1 : stop]))
        m["cluster.proposals"] += inv["record"].get("results", {}).get("cluster.select_cluster", 0)
    return m


def check_iteration(it: dict, config: dict, ledger: HashLedger, checks: artifacts.Checks) -> dict:
    """All output checks on one plain iteration; returns its artifact metrics."""
    for inv in it["invocations"]:
        checks.add("structural", f"cli.exit_code.{inv['cmd']}", inv["exit"] == 0, f"exit {inv['exit']}")
    m = artifacts.check_and_measure(it["out"], config, checks)
    records = []
    for inv in it["invocations"]:
        records += inv["summary"].get("phases", {}).get("simulate", {}).get("validation", [])
    validated, unsound = artifacts.check_mc(records, checks)
    m["mc.cells_validated"] = validated
    m["mc.unsound_cells"] = unsound
    it["hashes"] = csv_hashes(it["out"])
    ledger.check(it["hashes"], checks)
    return m


def layer_metrics(plain: dict, traced: dict, art: dict, config: dict, checks: artifacts.Checks) -> dict:
    m = {k: 0.0 for k in PER_LAYER}
    m.update(art)
    for inv in plain["invocations"]:
        for phase, secs in inv["phases"].items():
            m[f"pipeline.{phase}_s"] = m.get(f"pipeline.{phase}_s", 0.0) + secs
        if "cells" in inv["summary"]:
            m["geometry.cells"] = inv["summary"]["cells"]
        sweeps = inv["summary"].get("phases", {}).get("verify", {}).get("iterations")
        if sweeps is not None:
            m["verify.sweeps"] = sweeps
    m.update(span_metrics(traced["invocations"]))
    m["cli.import_s"] = sum(i["import_s"] for i in traced["invocations"])
    codes = [i["exit"] for i in plain["invocations"] + traced["invocations"]]
    m["cli.exit_code"] = next((c for c in codes if c != 0), 0)
    m["pipeline.outside_s"] = plain["outside_s"]
    m["bench.wall_s"] = plain["wall_s"]
    m["bench.speed_factor"] = plain["total_s"] / plain["wall_s"]
    m["trace.total_s"] = traced["total_s"]
    m["trace.overhead_s"] = traced["total_s"] - plain["total_s"]

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m["imc.stored_ratio"] = rate(m["imc.pairs_stored"], m["imc.pairs_evaluated"])
    m["imc.pairs_per_s"] = rate(m["imc.pairs_evaluated"], m["imc.build_s"])
    m["verify.sweeps_per_s"] = rate(m["verify.sweeps"], m["verify.rvi_s"])
    free = m.pop("verify.free_states", 0)
    # one min- and one max-adversary row update per free state per sweep
    m["verify.row_updates_per_s"] = rate(2 * free * m["verify.sweeps"], m["verify.rvi_s"])
    mc_cfg = config.get("monte_carlo", {})
    m["mc.estimate_trajectories"] = m["mc.cells_validated"] * mc_cfg.get("trajectories", 1000)
    m["mc.trajectories_per_s"] = rate(m["mc.estimate_trajectories"], m["mc.estimate_s"])
    m["mc_unsound_frac"] = rate(m["mc.unsound_cells"], m["mc.cells_validated"])
    m["check_fail_frac"] = rate(checks.failed, checks.attempted)
    return {k: m[k] for k in PER_LAYER}


def tail_percentile(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    if n < 20:
        return f"median={med:.6g} (n={n}; no tail percentile below 20 samples)"
    q = int(100 * (n - 10) / n)
    tail = float(np.percentile(values, q))
    return f"median={med:.6g} p{q}={tail:.6g} n={n}"


def provenance(workload: str, seed: int, seconds: int, trace: int, iterations: int, run_no: int, src_hash: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "iterations": iterations,
        "run_count": run_no,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": commit,
        "src_sha256": src_hash,
        "machine": platform.machine(),
    }


def bump_run_count(workload: str) -> int:
    path = WORK / "runs.json"
    try:
        counts = json.loads(path.read_text())
    except (OSError, ValueError):
        counts = {}
    counts[workload] = counts.get(workload, 0) + 1
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return counts[workload]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cfg_name, _, why = WORKLOADS[workload]
    cfg_path = BENCH / "workloads" / cfg_name
    config = yaml.safe_load(cfg_path.read_text())
    src_hash = source_hash()
    key = hashlib.sha256((src_hash + cfg_path.read_text()).encode()).hexdigest()[:16]
    ledger = HashLedger(f"{workload}|{key}", seed)
    checks = artifacts.Checks()

    setups, plains, layer_rows = [], [], []
    with SpeedProbe() as probe:
        ctx = Context(workload, seed, child_env(), probe)
        out = fresh_dir(WORK / workload / "setup" / "out")
        for _ in range(SETUP_PROBES):
            inv = invoke(ctx, "setup", out, "setup")
            checks.add("structural", "setup.exit_code", inv["exit"] == 0, f"exit {inv['exit']}")
            setups.append(inv["total_s"])
        t_start = time.monotonic()
        while True:
            t_it = time.monotonic()
            plain = run_iteration(ctx, "plain")
            art = check_iteration(plain, config, ledger, checks)
            plains.append(plain)
            if trace:
                traced = run_iteration(ctx, "traced")
                for inv in traced["invocations"]:
                    checks.add("structural", f"cli.exit_code.{inv['cmd']}.traced", inv["exit"] == 0, f"exit {inv['exit']}")
                for name, digest in csv_hashes(traced["out"]).items():
                    same = plain["hashes"].get(name) == digest
                    checks.add("structural", f"sha256.{name}.traced", same, "" if same else "traced export differs from the plain one")
                layer_rows.append(layer_metrics(plain, traced, art, config, checks))
            now = time.monotonic()
            if now - t_start >= seconds or now - t_start + (now - t_it) > MAX_RUN_S:
                break
    ledger.save()

    run_no = bump_run_count(workload)
    prov = provenance(workload, seed, seconds, trace, len(plains), run_no, src_hash)
    if trace:
        metrics = {k: (statistics.median(r[k] for r in layer_rows), u) for k, u in PER_LAYER.items()}
    else:
        metrics = {
            "total_s": (statistics.median(p["total_s"] for p in plains), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plains), "MB"),
        }

    print(f"# workload {workload}: {why}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    samples = {"total_s": [p["total_s"] for p in plains], "setup_s": setups,
               "peak_rss_mb": [p["peak_rss_mb"] for p in plains]}
    for k, unit in END_TO_END.items():
        if samples[k]:
            print(f"# e2e {k} [{unit}] " + tail_percentile(samples[k]))
    print("# unscaled wall time " + tail_percentile([p["wall_s"] for p in plains])
          + f"; speed factors {[round(i['speed'], 4) for p in plains for i in p['invocations']]}")
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:34s} {value:>16.6g} {unit}")
    failures = [c for c in checks.items if not c["ok"]]
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed, structural ok: {checks.structural_ok()}")
    for c in failures:
        print(f"#   FAIL {c['fails']}/{c['runs']} [{c['kind']}] {c['name']}: {c['detail']}")

    result = {
        "correct": checks.structural_ok(),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "provenance": prov,
        "result": result,
        "setup_samples": setups,
        "samples": [
            {k: p[k] for k in ("total_s", "wall_s", "outside_s", "peak_rss_mb")} | {"invocations": [
                {x: i[x] for x in ("cmd", "exit", "total_s", "wall_s", "speed", "outside_s", "phases", "maxrss_mb", "import_s")}
                for i in p["invocations"]
            ]}
            for p in plains
        ],
        "per_layer_iterations": layer_rows,
        "failed_checks": failures,
        "stderr_tail": {i["cmd"]: i["stderr_tail"] for i in plains[-1]["invocations"] if i["exit"] != 0},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imcverify" / "cli.py").is_file():
        print(f"error: the imcverify sources are missing under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    # One CPU for the benchmark, its children and the speed probe, so that
    # the probe measures the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # byte-compile once so that no measured process pays for it
    compileall.compile_dir(str(SRC), quiet=1)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        r = run_workload(name, args.seed, args.seconds, args.trace)
        combined["correct"] &= r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
