"""Pipeline orchestration: abstract, verify, improve, simulate.

Each phase writes its artifacts into the configured output directory and
later phases can reload them, so the CLI subcommands compose. Exports are
byte-reproducible for a fixed config and seed; the summary additionally
records wall-clock times and is a report, not an export.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cluster import cluster_improve
from .config import RunConfig
from .dynamics import GENERAL, DynamicsModel
from .errors import InputError
from .geometry import StatePartition, partition_domain
from .imc import (
    Imc,
    PosteriorTable,
    build_imc,
    read_imc,
    read_posterior_table,
    write_imc,
)
from .mc import ReachAvoidRegions, estimate_satisfaction, write_trajectories
from .noise import NoiseGrid, NoiseModel, uniform_noise_grid
from .verify import (
    ReachAvoidSpec,
    VerificationResult,
    read_results,
    robust_value_iteration,
    write_results,
)

IMC_FILE = "imc.csv"
LABELS_FILE = "labels.csv"
RESULTS_FILE = "results.csv"
IMPROVED_FILE = "results_improved.csv"
TRAJECTORIES_FILE = "trajectories.csv"
SUMMARY_FILE = "summary.json"

log = logging.getLogger("imcverify")


@dataclass
class RunContext:
    """Everything derivable from the configuration alone."""

    config: RunConfig
    partition: StatePartition
    model: DynamicsModel
    noise: NoiseModel
    noise_cells: Optional[NoiseGrid]
    posterior_table: Optional[PosteriorTable]
    spec: ReachAvoidSpec


def build_context(config: RunConfig) -> RunContext:
    partition = partition_domain(config.domain, config.grid)
    model = config.dynamics_model()
    noise_cells = None
    if model.structure == GENERAL:
        noise_cells = uniform_noise_grid(config.noise, config.noise_grid)
    table = None
    if config.posterior_table is not None:
        table = read_posterior_table(
            config.posterior_table, partition.n_cells, config.domain.dim
        )
    spec = ReachAvoidSpec(horizon=config.horizon, threshold=config.threshold)
    return RunContext(
        config=config,
        partition=partition,
        model=model,
        noise=config.noise,
        noise_cells=noise_cells,
        posterior_table=table,
        spec=spec,
    )


def phase_abstract(ctx: RunContext) -> Imc:
    imc = build_imc(
        ctx.partition,
        ctx.model,
        ctx.noise,
        ctx.config.labels,
        posterior_table=ctx.posterior_table,
        noise_cells=ctx.noise_cells,
    )
    out = ctx.config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_imc(imc, out / IMC_FILE, out / LABELS_FILE)
    return imc


def load_imc(ctx: RunContext) -> Imc:
    out = ctx.config.output_dir
    bounds, labels = out / IMC_FILE, out / LABELS_FILE
    if not bounds.exists() or not labels.exists():
        raise InputError(
            f"missing abstraction artifacts in {out}; run the abstract phase first"
        )
    return read_imc(bounds, labels, ctx.partition)


def phase_verify(ctx: RunContext, imc: Imc) -> VerificationResult:
    result = robust_value_iteration(
        imc,
        ctx.spec,
        convergence_tol=ctx.config.convergence_tol,
        max_iterations=ctx.config.max_iterations,
    )
    write_results(result, imc, ctx.config.output_dir / RESULTS_FILE)
    return result


def load_results(ctx: RunContext, imc: Imc, improved: bool = False) -> VerificationResult:
    out = ctx.config.output_dir
    name = IMPROVED_FILE if improved else RESULTS_FILE
    path = out / name
    if not path.exists():
        raise InputError(
            f"missing result table {path}; run the verify phase first"
        )
    return read_results(path, imc, ctx.spec.threshold)


def phase_improve(
    ctx: RunContext, imc: Imc, result: VerificationResult
) -> tuple[VerificationResult, list[int]]:
    """Clustering passes; returns the improved result and the number of
    states whose interval changed in each pass."""
    per_pass: list[int] = []
    current = result
    for _ in range(ctx.config.cluster_passes):
        improved = cluster_improve(
            imc,
            ctx.model,
            ctx.noise,
            current,
            ctx.spec,
            posterior_table=ctx.posterior_table,
            noise_cells=ctx.noise_cells,
        )
        changed = int(
            np.count_nonzero(
                (improved.p_lower != current.p_lower)
                | (improved.p_upper != current.p_upper)
            )
        )
        per_pass.append(changed)
        current = improved
        if changed == 0:
            break
    if ctx.config.cluster_passes > 0:
        write_results(current, imc, ctx.config.output_dir / IMPROVED_FILE)
    return current, per_pass


def _selected_cells(ctx: RunContext) -> list[int]:
    mc = ctx.config.monte_carlo
    n = ctx.partition.n_cells
    if isinstance(mc.cells, list):
        return sorted(set(mc.cells))
    if mc.cells == "all":
        return list(range(n))
    stride = mc.cell_stride if mc.cell_stride > 0 else max(1, n // 20)
    return list(range(0, n, stride))


def phase_simulate(
    ctx: RunContext, imc: Imc, result: VerificationResult
) -> list[dict]:
    """Validate verified intervals by simulation from selected cell centers.

    Returns one record per sampled cell with the empirical estimate, its
    confidence interval, the verified interval and the soundness verdict
    (the CI-widened estimate must intersect the verified interval). The
    first ``export_trajectories`` validation trajectories of each cell are
    written to the trajectories export.
    """
    cfg = ctx.config
    mc = cfg.monte_carlo
    regions = ReachAvoidRegions(
        domain=cfg.domain,
        goals=tuple(cfg.labels.get("goal", ())),
        avoids=tuple(cfg.labels.get("obstacle", ())),
    )
    horizon = cfg.horizon if cfg.horizon is not None else mc.horizon
    records: list[dict] = []
    exported = []
    for cell_idx in _selected_cells(ctx):
        lo, hi = ctx.partition.corners(cell_idx)
        x0 = tuple((0.5 * (lo + hi)).tolist())
        estimate, ci, kept = estimate_satisfaction(
            ctx.model,
            ctx.noise,
            regions,
            x0,
            mc.trajectories,
            horizon,
            seed=(mc.seed, cell_idx),
            confidence=mc.confidence,
            keep=mc.export_trajectories,
        )
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
    write_trajectories(exported, cfg.output_dir / TRAJECTORIES_FILE, ctx.model.n)
    unsound = [r["state"] for r in records if not r["sound"]]
    if unsound:
        log.warning(
            "Monte Carlo validation failed on %d of %d sampled cells: the confidence "
            "interval misses the verified interval of states %s",
            len(unsound), len(records), unsound,
        )
    return records


def run_pipeline(
    config: RunConfig, phases: Sequence[str] = ("abstract", "verify", "improve", "simulate")
) -> dict:
    """Run the requested phases in order, reusing on-disk artifacts for any
    phase that is skipped, and write the summary. Returns the summary."""
    ctx = build_context(config)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    summary: dict = {"phases": {}}
    imc: Optional[Imc] = None
    result: Optional[VerificationResult] = None

    if "abstract" in phases:
        t0 = time.perf_counter()
        imc = phase_abstract(ctx)
        summary["phases"]["abstract"] = {"seconds": time.perf_counter() - t0}
    if {"verify", "improve", "simulate"} & set(phases):
        if imc is None:
            imc = load_imc(ctx)
        summary["states"] = imc.n_states
        summary["cells"] = ctx.partition.n_cells

    if "verify" in phases:
        t0 = time.perf_counter()
        result = phase_verify(ctx, imc)
        summary["phases"]["verify"] = {
            "seconds": time.perf_counter() - t0,
            "iterations": result.iterations,
            "converged": result.converged,
        }

    if "improve" in phases and config.cluster_passes > 0:
        if result is None:
            result = load_results(ctx, imc)
        t0 = time.perf_counter()
        result, per_pass = phase_improve(ctx, imc, result)
        summary["phases"]["improve"] = {
            "seconds": time.perf_counter() - t0,
            "passes": [{"pass": i + 1, "improved": c} for i, c in enumerate(per_pass)],
        }

    if "simulate" in phases and config.monte_carlo.enabled:
        if result is None:
            improved = (out / IMPROVED_FILE).exists() and config.cluster_passes > 0
            result = load_results(ctx, imc, improved=improved)
        t0 = time.perf_counter()
        records = phase_simulate(ctx, imc, result)
        summary["phases"]["simulate"] = {
            "seconds": time.perf_counter() - t0,
            "validation": records,
            "all_sound": all(r["sound"] for r in records),
        }

    if result is not None:
        counts = {"satisfies": 0, "violates": 0, "undetermined": 0}
        for c in result.classification:
            counts[c] += 1
        n = len(result.classification)
        summary["classification"] = {
            "counts": counts,
            "fractions": {k: v / n for k, v in counts.items()},
        }

    with open(out / SUMMARY_FILE, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
