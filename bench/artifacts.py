"""Reading the exported artifacts of one imcverify output directory, the
output checks run on them, and the per-layer counts derived from them.

Counts taken from files (rather than from calls into the program) survive
refactors that remove or merge functions: ``imc.csv`` rows, ``results*.csv``
rows, ``trajectories.csv`` rows and the ``summary.json`` fields.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

AVOID_LABELS = ("obstacle", "unsafe")


class Checks:
    """Named pass/fail results. ``structural`` checks are invariants of the
    exported numbers (and of the process); the other kinds are verdict
    checks against independent references.

    A check is counted once per run however often it is repeated: it fails
    if any repetition fails. So ``attempted`` and ``failed`` do not depend
    on how many iterations fit in the run's time."""

    def __init__(self):
        self._by_name: dict[tuple[str, str], dict] = {}

    def add(self, kind: str, name: str, ok: bool, detail: str = "") -> None:
        c = self._by_name.setdefault((kind, name), {"kind": kind, "name": name, "ok": True, "detail": "", "runs": 0, "fails": 0})
        c["runs"] += 1
        if not ok:
            c["fails"] += 1
            if c["ok"]:
                c["ok"], c["detail"] = False, detail

    @property
    def items(self) -> list[dict]:
        return list(self._by_name.values())

    @property
    def attempted(self) -> int:
        return len(self._by_name)

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self._by_name.values())

    def structural_ok(self) -> bool:
        return all(c["ok"] for c in self._by_name.values() if c["kind"] == "structural")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_imc(path: Path) -> tuple[list[int], list[float], list[float]]:
    src, lower, upper = [], [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            s, _, lo, up = line.rstrip("\n").split(",")
            src.append(int(s))
            lower.append(float(lo))
            upper.append(float(up))
    return src, lower, upper


def read_results(path: Path) -> list[tuple[float, float, str]]:
    """(p_lower, p_upper, class) per state, in state order."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(r[-3]), float(r[-2]), r[-1]) for r in rows]


def read_labels(path: Path) -> dict[str, set[int]]:
    out: dict[str, set[int]] = defaultdict(set)
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            state, label = line.rstrip("\n").split(",", 1)
            out[label].add(int(state))
    return out


def _exact(value) -> Fraction:
    """The decimal the config author wrote: YAML floats round-trip through
    their shortest repr."""
    return Fraction(repr(value)) if isinstance(value, float) else Fraction(value)


def expected_label_cells(config: dict) -> dict[str, set[int]]:
    """Cells whose open interior meets the open interior of a label box,
    with grid edges computed in exact rational arithmetic. Flat indices are
    row-major with the last dimension fastest, as in the program."""
    domain = [(_exact(lo), _exact(hi)) for lo, hi in config["domain"]]
    grid = config["grid"]
    out: dict[str, set[int]] = {}
    for name, boxes in config.get("labels", {}).items():
        cells: set[int] = set()
        for box in boxes:
            per_dim = []
            for (d_lo, d_hi), r, (b_lo, b_hi) in zip(domain, grid, box):
                b_lo, b_hi = _exact(b_lo), _exact(b_hi)
                width = (d_hi - d_lo) / r
                per_dim.append(
                    [
                        i
                        for i in range(r)
                        if d_lo + i * width < b_hi and d_lo + (i + 1) * width > b_lo
                    ]
                )
            flat = [0]
            for r, idx in zip(grid, per_dim):
                flat = [f * r + i for f in flat for i in idx]
            cells.update(flat)
        out[name] = cells
    return out


def check_and_measure(out: Path, config: dict, checks: Checks) -> dict:
    """Run the output checks on one finished output directory and return
    the artifact-derived metrics. Missing files fail their checks."""
    m: dict[str, float] = {}
    imc_path = out / "imc.csv"
    if imc_path.exists():
        src, lower, upper = read_imc(imc_path)
        bad = sum(not (0.0 <= lo <= up <= 1.0) for lo, up in zip(lower, upper))
        checks.add("structural", "imc.entry_bounds", bad == 0, f"{bad} rows violate 0<=lower<=upper<=1")
        rows_lo: dict[int, list[float]] = defaultdict(list)
        rows_up: dict[int, list[float]] = defaultdict(list)
        for s, lo, up in zip(src, lower, upper):
            rows_lo[s].append(lo)
            rows_up[s].append(up)
        bad_rows = [
            s
            for s in rows_lo
            if math.fsum(rows_lo[s]) > 1.0 or math.fsum(rows_up[s]) < 1.0
        ]
        checks.add(
            "structural", "imc.row_sums", not bad_rows,
            f"{len(bad_rows)} rows violate sum(lower)<=1<=sum(upper)",
        )
        n_pairs = len(src)
        m["imc.pairs_stored"] = n_pairs
        m["imc.row_nnz_mean"] = n_pairs / max(1, len(rows_lo))
        m["imc.interval_width_mean"] = math.fsum(u - l for l, u in zip(lower, upper)) / max(1, n_pairs)
        m["imc.csv_mb"] = imc_path.stat().st_size / 1e6
    else:
        checks.add("structural", "imc.entry_bounds", False, "imc.csv missing")
        checks.add("structural", "imc.row_sums", False, "imc.csv missing")

    results = {}
    for key, name in (("verify", "results.csv"), ("cluster", "results_improved.csv")):
        path = out / name
        if not path.exists():
            continue
        rows = read_results(path)
        results[key] = rows
        bad = sum(lo > up for lo, up, _ in rows)
        checks.add("structural", f"{name}.p_lower_le_p_upper", bad == 0, f"{bad} states with p_lower > p_upper")
        n = max(1, len(rows))
        m[f"{key}.undetermined_frac"] = sum(c == "undetermined" for _, _, c in rows) / n
        m[f"{key}.mean_gap"] = math.fsum(up - lo for lo, up, _ in rows) / n
    if "verify" not in results:
        checks.add("structural", "results.csv.p_lower_le_p_upper", False, "results.csv missing")
    if config.get("cluster", {}).get("passes", 0) > 0:
        if "verify" in results and "cluster" in results and len(results["verify"]) == len(results["cluster"]):
            pairs = list(zip(results["verify"], results["cluster"]))
            wider = sum((u2 - l2) > (u1 - l1) for (l1, u1, _), (l2, u2, _) in pairs)
            changed = sum((l1, u1) != (l2, u2) for (l1, u1, _), (l2, u2, _) in pairs)
            checks.add("structural", "improve.not_wider", wider == 0, f"{wider} improved intervals wider than verified")
            m["cluster.improved_states"] = changed
        else:
            checks.add("structural", "improve.not_wider", False, "results.csv or results_improved.csv missing or mismatched")

    labels_path = out / "labels.csv"
    found = read_labels(labels_path) if labels_path.exists() else {}
    for name, cells in sorted(expected_label_cells(config).items()):
        got = found.get(name, set())
        checks.add(
            "label", f"labels.{name}", got == cells,
            f"labels.csv has {len(got)} cells, exact geometry gives {len(cells)}",
        )
    if found and "verify" in results:
        avoid = set().union(*(found.get(a, set()) for a in AVOID_LABELS))
        pinned = found.get("goal", set()) | avoid
        m["verify.free_states"] = len(results["verify"]) - len(pinned)

    traj = out / "trajectories.csv"
    if traj.exists():
        with open(traj, encoding="utf-8") as fh:
            next(fh)
            ids = [line.split(",", 1)[0] for line in fh]
        m["mc.export_trajectories"] = len(set(ids))
        m["mc.export_steps"] = len(ids)
    return m


def check_mc(records: list[dict], checks: Checks) -> tuple[int, int]:
    """One verdict check per validated cell: its Clopper-Pearson interval
    must meet the verified interval. Returns (validated, unsound)."""
    unsound = 0
    for r in records:
        lo, hi = r["ci"]
        ok = lo <= r["p_upper"] and r["p_lower"] <= hi
        unsound += not ok
        checks.add(
            "mc", f"mc.cell_{r['state']}", ok,
            f"CI [{lo:.4g}, {hi:.4g}] vs verified [{r['p_lower']:.4g}, {r['p_upper']:.4g}]",
        )
    return len(records), unsound
