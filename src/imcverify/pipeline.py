"""Pipeline orchestration: abstract, verify, improve, simulate.

Each phase writes its artifacts into the configured output directory, so
the CLI subcommands compose. The config is the only source of the grid, the
specification, labels included, and the abstraction, and a phase reloads
only what it cannot recompute: a result table for improve and simulate, if
its stamp matches the config and posterior table bytes (``RunContext.key``;
none for a config built in code), so any edit of them means verify again.
Verify and improve build the IMC from the config unless abstract ran in the
same process, so ``imc.csv`` and ``labels.csv`` are records of the last
abstract that nothing reads back. ``build_context`` reads a posterior table
once per process; a phase that bounds transitions builds the cells'
posteriors, the one place that uses a noise grid or that table, once
(``RunContext.posteriors``). Before a phase writes its exports
it deletes those of every later phase, stamps included. A result is its
bounds, classified where it is written or counted.
Exports are byte-reproducible for a fixed config and seed; the summary
additionally records wall-clock times and the peak RSS after each phase,
and is a report, not an export.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .cluster import cluster_improve
from .config import RunConfig
from .dynamics import GENERAL
from .errors import InputError
from .geometry import StatePartition, partition_domain
from .imc import (
    CellPosteriors,
    Imc,
    assign_labels,
    build_imc,
    cell_posteriors,
    read_posterior_table,
    write_imc,
)
from .mc import estimate_satisfaction, write_trajectories
from .verify import (
    _CLASSES,
    ReachAvoidSpec,
    VerificationResult,
    _sha256_hex,
    classify_arrays,
    read_results,
    robust_value_iteration,
    stamp_path,
    write_results,
)

IMC_FILE = "imc.csv"
LABELS_FILE = "labels.csv"
RESULTS_FILE = "results.csv"
IMPROVED_FILE = "results_improved.csv"
TRAJECTORIES_FILE = "trajectories.csv"
SUMMARY_FILE = "summary.json"
# the exports of abstract, verify, improve and simulate, in phase order
EXPORTS = (IMC_FILE, LABELS_FILE, RESULTS_FILE, IMPROVED_FILE, TRAJECTORIES_FILE)

log = logging.getLogger("imcverify")


class RunContext(NamedTuple):
    """Everything derivable from the configuration alone and cheap to build:
    the label masks of the grid cells, and the posterior table's (lo, hi)
    arrays if the config names one, read once, so a label off the grid lines
    or a missing or malformed table fails here, before any phase runs or
    writes. ``key`` is what a result table's stamp ties it to: the config
    file's bytes, then the bytes the table was parsed from; None for a
    config built in code."""

    config: RunConfig
    partition: StatePartition
    spec: ReachAvoidSpec
    labels: dict[str, np.ndarray]
    table: Optional[tuple[np.ndarray, np.ndarray]]
    key: Optional[bytes]

    def posteriors(self) -> CellPosteriors:
        """The posteriors of every cell, under the noise grid of a general
        system or from the posterior table if one is configured. A general
        system's hold every cell's image under every noise cell (under its
        own component's, if noise-separable): build them only to bound
        transitions, and do not keep them."""
        cfg = self.config
        return cell_posteriors(self.partition, cfg.model, cfg.noise, self.table, cfg.noise_grid)


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (2**20 bytes):
    VmHWM where Linux has it, else ``ru_maxrss``."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource  # not on Windows, which also has no /proc
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024  # bytes on macOS, else KiB


def build_context(config: RunConfig) -> RunContext:
    spec = ReachAvoidSpec(horizon=config.horizon, threshold=config.threshold)
    partition = partition_domain(*config.domain, config.grid)
    labels = assign_labels(partition, config.labels)
    path, table, key = config.posterior_table, None, config.source
    if path is not None:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise InputError(f"{path}: file does not exist") from None
        except OSError as exc:
            raise InputError(f"{path}: {exc.strerror}") from None
        table = read_posterior_table(data, path, partition.n_cells, config.model.n)
        key = None if key is None else key + data
    return RunContext(config, partition, spec, labels, table, key)


def _drop_exports_after(ctx: RunContext, last: str) -> None:
    """Delete the exports after ``last``, the final export of the phase about
    to write: later phases derived them from what it overwrites."""
    for name in EXPORTS[EXPORTS.index(last) + 1 :]:
        for path in (ctx.config.output_dir / name, stamp_path(ctx.config.output_dir / name)):
            path.unlink(missing_ok=True)


def phase_abstract(ctx: RunContext) -> tuple[Imc, dict]:
    posts = ctx.posteriors()
    imc = build_imc(posts, ctx.labels)
    out = ctx.config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _drop_exports_after(ctx, LABELS_FILE)
    write_imc(imc, out / IMC_FILE, out / LABELS_FILE)
    return imc, _abstraction_statistics(imc, posts)


def _abstraction_statistics(imc: Imc, posts: CellPosteriors) -> dict:
    """The candidate pairs and band factors (none for a general system that
    is not noise-separable) the build bounds, the IMC's stored entries,
    their mean number per row and the mean width ``upper - lower`` of their
    intervals."""
    entries, sizes = len(imc.dst), posts.last - posts.first
    return {
        "pairs": int(sizes.prod(axis=1).sum()),
        "factors": 0 if posts.structure == GENERAL else int(sizes.sum()),
        "entries": entries,
        "row_nnz_mean": entries / (len(imc.indptr) - 1),
        "interval_width_mean": float(np.mean(imc.upper - imc.lower)),
    }


def phase_verify(ctx: RunContext, imc: Imc) -> VerificationResult:
    result = robust_value_iteration(
        imc,
        ctx.spec,
        convergence_tol=ctx.config.convergence_tol,
        max_iterations=ctx.config.max_iterations,
    )
    _drop_exports_after(ctx, RESULTS_FILE)
    write_results(result, ctx.partition, ctx.spec.threshold,
                  ctx.config.output_dir / RESULTS_FILE, ctx.key)
    return result


def load_results(ctx: RunContext, improved: bool = False) -> VerificationResult:
    name = IMPROVED_FILE if improved else RESULTS_FILE
    return read_results(ctx.config.output_dir / name, ctx.partition, ctx.key)


def phase_improve(
    ctx: RunContext, imc: Imc, posts: CellPosteriors, result: VerificationResult
) -> tuple[VerificationResult, int]:
    """The cluster pass over ``imc`` and the posteriors it was built from;
    returns the improved result and the number of states whose interval
    changed."""
    improved = cluster_improve(imc, posts, result, ctx.spec)
    changed = (improved.p_lower != result.p_lower) | (improved.p_upper != result.p_upper)
    _drop_exports_after(ctx, IMPROVED_FILE)
    write_results(improved, ctx.partition, ctx.spec.threshold,
                  ctx.config.output_dir / IMPROVED_FILE, ctx.key)
    return improved, int(np.count_nonzero(changed))


def _selected_cells(ctx: RunContext) -> list[int]:
    mc = ctx.config.monte_carlo
    n = ctx.partition.n_cells
    if isinstance(mc.cells, list):
        return sorted(set(mc.cells))
    if mc.cells == "all":
        return list(range(n))
    return list(range(0, n, max(1, n // 20)))  # about 20 cells


def phase_simulate(ctx: RunContext, result: VerificationResult) -> list[dict]:
    """Validate verified intervals by simulation from selected cell centers.

    Returns one record per sampled cell with the empirical estimate, its
    confidence interval, the verified interval and the soundness verdict
    (the CI-widened estimate must intersect the verified interval). The
    first ``export_trajectories`` validation trajectories of each cell are
    written to the trajectories export. Cell c's uniforms are the
    counter-based SplitMix64 stream keyed by ``(seed, c)`` (see
    ``estimate_satisfaction``).
    """
    cfg = ctx.config
    mc = cfg.monte_carlo
    horizon = cfg.horizon if cfg.horizon is not None else mc.horizon
    cells = _selected_cells(ctx)
    lo, hi = ctx.partition.corners(np.asarray(cells, dtype=int))
    validations = estimate_satisfaction(
        cfg.model,
        cfg.noise,
        ctx.partition,
        ctx.labels,
        0.5 * (lo + hi),
        mc.trajectories,
        horizon,
        seeds=[(mc.seed, cell_idx) for cell_idx in cells],
        confidence=mc.confidence,
        keep=mc.export_trajectories,
    )
    records: list[dict] = []
    exported = []
    for cell_idx, (estimate, ci, kept) in zip(cells, validations):
        exported.extend(kept)
        p_lo = float(result.p_lower[cell_idx])
        p_hi = float(result.p_upper[cell_idx])
        records.append(
            {
                "state": cell_idx,
                "estimate": estimate,
                "ci": [ci[0], ci[1]],
                "p_lower": p_lo,
                "p_upper": p_hi,
                "sound": bool(ci[0] <= p_hi and p_lo <= ci[1]),
            }
        )
    write_trajectories(exported, cfg.output_dir / TRAJECTORIES_FILE, cfg.model.n)
    unsound = [r["state"] for r in records if not r["sound"]]
    if unsound:
        log.warning(
            "Monte Carlo validation failed on %d of %d sampled cells: the confidence "
            "interval misses the verified interval of states %s",
            len(unsound), len(records), unsound,
        )
    return records


def _record_phase(summary: dict, name: str, t0: float, detail: str, stats: dict) -> None:
    """Record phase ``name`` in the summary: its seconds since ``t0``, the
    peak RSS so far and ``stats``; log them at INFO with ``detail``."""
    phase = summary["phases"][name] = {
        "seconds": time.perf_counter() - t0, "peak_rss_mb": _peak_rss_mb(), **stats
    }
    log.info("%s: %.3f s, %s, peak RSS %.1f MB",
             name, phase["seconds"], detail, phase["peak_rss_mb"])


def run_pipeline(
    config: RunConfig, phases: Sequence[str] = ("abstract", "verify", "improve", "simulate")
) -> dict:
    """Run the requested phases in order and write the summary. Verify and
    improve build the IMC unless abstract ran first; improve and simulate
    reload the stamped result table of a verify that did not run. Returns
    the summary."""
    ctx = build_context(config)
    out = config.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path through one
        raise InputError(f"output directory {out}: {exc.strerror}") from None

    summary: dict = {"provenance": {"version": __version__, "config_sha256": None,
                                    "seed": config.monte_carlo.seed}, "phases": {}}
    imc: Optional[Imc] = None
    result: Optional[VerificationResult] = None

    if "abstract" in phases:
        t0 = time.perf_counter()
        imc, stats = phase_abstract(ctx)
        detail = f"{stats['pairs']} pairs, {stats['factors']} factors, {stats['entries']} entries"
        _record_phase(summary, "abstract", t0, detail, stats)
    if {"verify", "improve", "simulate"} & set(phases):
        summary["states"] = ctx.partition.n_states
        summary["cells"] = ctx.partition.n_cells

    if "verify" in phases:
        if imc is None:
            imc = build_imc(ctx.posteriors(), ctx.labels)
        t0 = time.perf_counter()
        result = phase_verify(ctx, imc)
        lower, upper = result.fixpoints
        _record_phase(
            summary, "verify", t0,
            f"{result.iterations} sweeps, bitwise fixpoint from sweep {lower} (lower), "
            f"{upper} (upper)",
            {"iterations": result.iterations, "converged": result.converged,
             "fixpoint_sweep": {"lower": lower, "upper": upper},
             "upper_residual": result.upper_residual,
             "walked_rows": dict(zip(("lower", "upper"), result.walked_rows))},
        )

    if "improve" in phases and config.cluster_passes > 0:
        if result is None:
            result = load_results(ctx)
        posts = ctx.posteriors()
        if imc is None:
            imc = build_imc(posts, ctx.labels)
        t0 = time.perf_counter()
        result, improved = phase_improve(ctx, imc, posts, result)
        del posts  # not kept for simulate, as ctx.posteriors() asks
        _record_phase(summary, "improve", t0, f"{improved} states improved",
                      {"improved": improved, "rounds": result.iterations,
                       "walked_rows": dict(zip(("lower", "upper"), result.walked_rows))})
    elif "improve" in phases:
        log.info("improve: skipped, as cluster.passes is 0")

    if "simulate" in phases and config.monte_carlo.enabled:
        if result is None:  # an improved table stamped for this config has cluster.passes > 0
            result = load_results(ctx, improved=(out / IMPROVED_FILE).exists())
        t0 = time.perf_counter()
        records = phase_simulate(ctx, result)
        _record_phase(
            summary, "simulate", t0,
            f"{len(records)} cells x {config.monte_carlo.trajectories} trajectories",
            {"validation": records, "all_sound": all(r["sound"] for r in records)},
        )
    elif "simulate" in phases:
        log.info("simulate: skipped, as monte_carlo.enabled is false")

    if result is not None:
        codes = classify_arrays(result.p_lower, result.p_upper, ctx.spec.threshold)
        counts = dict(zip(_CLASSES, np.bincount(codes, minlength=len(_CLASSES)).tolist()))
        summary["classification"] = {
            "counts": counts,
            "fractions": {k: v / len(codes) for k, v in counts.items()},
        }

    if config.source is not None:
        summary["provenance"]["config_sha256"] = _sha256_hex(config.source)
    # encoded whole before the file opens: a value json cannot encode
    # leaves the previous summary as it was, not cut off at that value
    text = json.dumps(summary, indent=2) + "\n"
    (out / SUMMARY_FILE).write_text(text, encoding="utf-8")
    return summary
