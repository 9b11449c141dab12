"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with -s to see them live). Oracles live in
oracles.py and are independent of the code paths they check: direct kernel
evaluation on x-grids, brute-force cut-point sweeps, exhaustive vertex
enumeration, direct linear solves, and Monte Carlo simulation.
"""

import time

import numpy as np

from imcverify.cluster import cluster_improve
from imcverify.config import load_config
from imcverify.dynamics import parse_dynamics
from imcverify.geometry import partition_domain
from imcverify.imc import (
    CellPosteriors,
    Imc,
    assign_labels,
    build_imc,
    cell_posteriors,
    pair_bounds,
)
from imcverify.noise import (
    Mixture,
    NoiseModel,
    TruncatedGaussian,
    Uniform,
    optimal_partition_affine,
    optimal_partition_multiplicative,
)
from imcverify.pipeline import (
    IMC_FILE,
    IMPROVED_FILE,
    LABELS_FILE,
    RESULTS_FILE,
    TRAJECTORIES_FILE,
    run_pipeline,
)
from imcverify.verify import ReachAvoidSpec, VerificationResult, robust_value_iteration
from boxes import box
from csr_rows import csr, extremes, label_masks
from oracles import (
    chain_reach_probability,
    extreme_by_vertex_enumeration,
    kernel_grid_extrema,
    sweep_best_bounds,
)


def _report(number: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


# --- criterion 1: transition-bound soundness ---------------------------------


def _noise_1d(rng, multiplicative: bool):
    kind = int(rng.integers(0, 3))
    if multiplicative:
        if kind == 0:
            return Uniform(0.8, 1.2)
        if kind == 1:
            return TruncatedGaussian(1.0, 0.1, 0.9, 1.1)
        return Mixture(
            (0.5, 0.5), (Uniform(0.85, 0.95), Uniform(1.0, 1.15))
        )
    if kind == 0:
        lo = float(rng.uniform(-0.5, -0.1))
        return Uniform(lo, lo + float(rng.uniform(0.2, 0.8)))
    if kind == 1:
        return TruncatedGaussian(
            float(rng.uniform(-0.1, 0.1)), float(rng.uniform(0.1, 0.3)), -0.6, 0.6
        )
    return Mixture((0.5, 0.5), (Uniform(-0.05, -0.01), Uniform(0.0, 0.04)))


def _random_systems(seed: int):
    """22 randomized structured systems: 1D/2D, additive/multiplicative,
    uniform/truncated-Gaussian/mixture noise."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(8):  # 1D additive, affine
        a = float(rng.uniform(-1.2, 1.2))
        b = float(rng.uniform(-0.4, 0.4))
        systems.append(
            (
                parse_dynamics([f"{a}*x1 + {b} + w1"], 1, "additive"),
                NoiseModel((_noise_1d(rng, False),)),
                box([[-2.0, 2.0]]),
                (6,),
            )
        )
    for _ in range(2):  # 1D additive, nonlinear
        a = float(rng.uniform(0.4, 0.9))
        c = float(rng.uniform(0.1, 0.3))
        systems.append(
            (
                parse_dynamics([f"{a}*x1 + {c}*sin(x1) + w1"], 1, "additive"),
                NoiseModel((_noise_1d(rng, False),)),
                box([[-2.0, 2.0]]),
                (6,),
            )
        )
    for _ in range(4):  # 1D multiplicative, positive affine
        a = float(rng.uniform(0.3, 0.8))
        b = float(rng.uniform(0.1, 0.5))
        systems.append(
            (
                parse_dynamics([f"{a}*x1 + {b}"], 1, "multiplicative"),
                NoiseModel((_noise_1d(rng, True),)),
                box([[0.3, 2.1]]),
                (6,),
            )
        )
    for _ in range(4):  # 2D additive, affine
        coeffs = rng.uniform(-0.7, 0.7, (2, 2))
        offs = rng.uniform(-0.3, 0.3, 2)
        exprs = [
            f"{coeffs[i, 0]}*x1 + {coeffs[i, 1]}*x2 + {offs[i]} + w{i + 1}"
            for i in range(2)
        ]
        systems.append(
            (
                parse_dynamics(exprs, 2, "additive"),
                NoiseModel((_noise_1d(rng, False), _noise_1d(rng, False))),
                box([[-1.5, 1.5], [-1.5, 1.5]]),
                (3, 3),
            )
        )
    for _ in range(4):  # 2D multiplicative, positive rows
        coeffs = rng.uniform(0.1, 0.8, (2, 2))
        exprs = [f"{coeffs[i, 0]}*x1 + {coeffs[i, 1]}*x2" for i in range(2)]
        systems.append(
            (
                parse_dynamics(exprs, 2, "multiplicative"),
                NoiseModel((_noise_1d(rng, True), _noise_1d(rng, True))),
                box([[0.3, 2.3], [0.3, 2.3]]),
                (3, 3),
            )
        )
    return systems


def test_criterion_1_transition_bound_soundness():
    t0 = time.perf_counter()
    systems = _random_systems(20260810)
    assert len(systems) >= 20
    checked = 0
    ok = True
    for model, noise, domain, resolution in systems:
        part = partition_domain(*domain, resolution)
        goal = box([[[e[0], e[1]] for e in part.edges]])
        imc = build_imc(cell_posteriors(part, model, noise), assign_labels(part, {"goal": goal}))
        for src in range(part.n_cells):
            q = part.corners(src)
            for k in range(imc.indptr[src], imc.indptr[src + 1]):
                if imc.dst[k] == imc.unsafe_index:
                    t_min, t_max = kernel_grid_extrema(model, noise, q, domain)
                    t_min, t_max = 1.0 - t_max, 1.0 - t_min
                else:
                    t_min, t_max = kernel_grid_extrema(
                        model, noise, q, part.corners(imc.dst[k])
                    )
                checked += 1
                if imc.lower[k] > t_min + 1e-9 or imc.upper[k] < t_max - 1e-9:
                    ok = False
    elapsed = time.perf_counter() - t0
    _report(
        1,
        f"kernel-oracle soundness on {len(systems)} systems, "
        f"{checked} stored pairs, runtime < 2 min",
        ok and elapsed < 120.0,
        elapsed,
    )


# --- criterion 2: partition optimality ----------------------------------------


def test_criterion_2_partition_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7117)
    ok = True
    for trial in range(500):
        multiplicative = trial % 2 == 1
        comp = _noise_1d(rng, multiplicative)
        if multiplicative:
            c = float(rng.uniform(0.3, 1.5))
            d = c + float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.3, 1.5))
            b = a + float(rng.uniform(0.05, 1.0))
            eps1, eps2, eps3, eps4 = optimal_partition_multiplicative(c, d, a, b)
            structure = "multiplicative"
        else:
            c = float(rng.uniform(-1.0, 1.0))
            d = c + float(rng.uniform(0.0, 1.2))
            a = float(rng.uniform(-1.3, 1.0))
            b = a + float(rng.uniform(0.05, 1.2))
            eps1, eps2, eps3, eps4 = optimal_partition_affine(c, d, a, b)
            structure = "additive"
        ours_lower = 0.0 if eps3 > eps4 else comp.interval_probability(eps3, eps4)
        ours_upper = comp.interval_probability(eps1, eps2)
        best_lower, best_upper = sweep_best_bounds(structure, (c, d), (a, b), comp)
        if ours_lower < best_lower - 1e-9 or ours_upper > best_upper + 1e-9:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "corollary cut points beat or match a 1e-3 sweep on 500 triples, "
        "runtime < 1 min",
        ok and elapsed < 60.0,
        elapsed,
    )


# --- criterion 3: adversary correctness ----------------------------------------


def test_criterion_3_adversary_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        anchor = rng.dirichlet(np.ones(m))
        lows = anchor * rng.uniform(0.0, 1.0, m)
        ups = anchor + (1.0 - anchor) * rng.uniform(0.0, 1.0, m)
        values = rng.uniform(0.0, 1.0, m)
        row = tuple((i, float(lows[i]), float(ups[i])) for i in range(m))
        for mode, greedy in zip(("min", "max"), extremes(values, row)):
            exhaustive = extreme_by_vertex_enumeration(values, lows, ups, mode)
            if abs(greedy - exhaustive) > 1e-12:
                ok = False
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "greedy adversary equals vertex enumeration on 1000 rows, tol 1e-12, "
        "runtime < 10 s",
        ok and elapsed < 10.0,
        elapsed,
    )


# --- criterion 4: value-iteration fixture --------------------------------------


def test_criterion_4_value_iteration_fixture():
    t0 = time.perf_counter()
    part = partition_domain(*box([[0.0, 2.0]]), (2,))
    rows = (
        ((0, 0.2, 0.4), (1, 0.4, 0.6), (2, 0.1, 0.3)),
        ((1, 1.0, 1.0),),
        ((2, 1.0, 1.0),),
    )
    imc = Imc(part, *csr(rows), label_masks(2, goal=[1]))
    res = robust_value_iteration(imc, ReachAvoidSpec(), convergence_tol=1e-12)
    error = abs(res.p_lower[0] - 4.0 / 7.0)
    elapsed = time.perf_counter() - t0
    _report(
        4,
        f"3-state fixture p_lower = 4/7 (error {error:.2e}), runtime < 1 s",
        error < 1e-8 and elapsed < 1.0,
        elapsed,
    )


# --- criterion 5: degenerate-chain equivalence ----------------------------------


def test_criterion_5_degenerate_chain_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(20):
        n_cells = int(rng.integers(3, 10))
        n = n_cells + 1
        rows = []
        chain = []
        for s in range(n_cells):
            if s == 0:  # goal, absorbing
                rows.append(((s, 1.0, 1.0),))
                chain.append({s: 1.0})
                continue
            probs = rng.dirichlet(np.ones(n) * 0.8)
            rows.append(tuple((t, float(p), float(p)) for t, p in enumerate(probs) if p > 0))
            chain.append({t: float(p) for t, p in enumerate(probs) if p > 0})
        rows.append(((n_cells, 1.0, 1.0),))
        chain.append({n_cells: 1.0})
        part = partition_domain(*box([[0.0, float(n_cells)]]), (n_cells,))
        imc = Imc(part, *csr(rows), label_masks(n_cells, goal=[0]))
        res = robust_value_iteration(imc, ReachAvoidSpec(), convergence_tol=1e-13)
        exact = chain_reach_probability(chain, {0}, {n_cells})
        if (
            np.max(np.abs(res.p_lower - exact)) > 1e-8
            or np.max(np.abs(res.p_upper - exact)) > 1e-8
        ):
            ok = False
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "lower = upper value iteration matches linear solve on 20 chains, "
        "tol 1e-8, runtime < 10 s",
        ok and elapsed < 10.0,
        elapsed,
    )


# --- criterion 6: clustering never-worse and effective ----------------------------


def test_criterion_6_clustering():
    t0 = time.perf_counter()
    part = partition_domain(*box([[0.0, 5.0]]), (5,))
    model = parse_dynamics(["x1 + 2 + w1"], 1, "additive")
    noise = NoiseModel((Uniform(-1.25, 1.25),))
    posts = cell_posteriors(part, model, noise)
    imc = build_imc(posts, assign_labels(part, {"goal": box([[[4.0, 5.0]]])}))
    planted_lo = np.array([0.0, 0.8, 0.8, 0.8, 0.0, 0.0])
    planted_hi = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    res = VerificationResult(planted_lo, planted_hi)
    out = cluster_improve(imc, posts, res, ReachAvoidSpec())
    never_worse = bool(
        np.all(out.p_lower >= planted_lo) and np.all(out.p_upper <= planted_hi)
    )
    effective = bool(np.any(out.p_lower > planted_lo))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "one clustering pass strictly improves some p_lower and never "
        "degrades any bound, runtime < 10 s",
        never_worse and effective and elapsed < 10.0,
        elapsed,
    )


# --- criterion 7: end-to-end Monte Carlo soundness --------------------------------

PAPER_CONFIG = """\
domain: [[0.25, 2.25], [0.25, 2.25]]
grid: [20, 20]
dynamics:
  expressions: ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"]
  structure: multiplicative
noise:
  components:
    - {type: truncated_gaussian, mean: 1.0, std: 0.1, lo: 0.9, hi: 1.1}
    - {type: truncated_gaussian, mean: 1.0, std: 0.1, lo: 0.9, hi: 1.1}
labels:
  goal: [[[0.25, 0.55], [0.25, 0.55]]]
  obstacle: [[[1.85, 2.15], [0.45, 0.75]]]
spec:
  horizon: unbounded
  threshold: 0.9
cluster:
  passes: 0
monte_carlo:
  trajectories: 1000
  seed: 20260810
  confidence: 0.99
  horizon: 200
  cells: stride
  export_trajectories: 2
output_dir: out
"""


def test_criterion_7_end_to_end_monte_carlo(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "paper.yaml"
    cfg_path.write_text(PAPER_CONFIG)
    config = load_config(cfg_path)
    summary = run_pipeline(config)
    validation = summary["phases"]["simulate"]["validation"]
    counts = summary["classification"]["counts"]
    ok = (
        summary["phases"]["simulate"]["all_sound"]
        and len(validation) >= 20
        and counts["satisfies"] > 0
        and counts["violates"] > 0
    )
    elapsed = time.perf_counter() - t0
    _report(
        7,
        f"paper 2D multiplicative system, 20x20 grid: {len(validation)} "
        "sampled cells all inside verified intervals (N=1000, 99% CI), "
        "runtime < 5 min",
        ok and elapsed < 300.0,
        elapsed,
    )


# --- criterion 8: partition cell budget --------------------------------------------


def test_criterion_8_cell_budget(monkeypatch):
    t0 = time.perf_counter()
    counts = []

    original = Uniform.interval_probability

    def counting(self, lo, hi):
        counts.append(1)
        return original(self, lo, hi)

    monkeypatch.setattr(Uniform, "interval_probability", counting)
    noise = NoiseModel((Uniform(-0.5, 0.5), Uniform(-0.5, 0.5)))
    # one pair: from the posterior box [0, 0.4] x [-0.2, 0.2] toward [0.1, 0.5] x [0, 0.3]
    posts = CellPosteriors(np.array([[0.0, -0.2]]), np.array([[0.4, 0.2]]), "additive", noise)
    counts.clear()
    pair_bounds(posts, [0], np.array([[0.1, 0.0]]), np.array([[0.5, 0.3]]))
    per_component = len(counts) / noise.n
    # one middle-cell evaluation per bound per component, within the
    # 3-cells-per-component budget; the builder makes the same calls, each
    # over all targets of a source at once
    ok = per_component <= 3
    elapsed = time.perf_counter() - t0
    _report(
        8,
        f"structured path evaluates {per_component:.0f} cells per component "
        "per pair (budget 3)",
        ok,
        elapsed,
    )


# --- criterion 9: determinism -------------------------------------------------------

SMALL_CONFIG = """\
domain: [[0.25, 2.25], [0.25, 2.25]]
grid: [8, 8]
dynamics:
  expressions: ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"]
  structure: multiplicative
noise:
  components:
    - {type: truncated_gaussian, mean: 1.0, std: 0.1, lo: 0.9, hi: 1.1}
    - {type: truncated_gaussian, mean: 1.0, std: 0.1, lo: 0.9, hi: 1.1}
labels:
  goal: [[[0.25, 0.75], [0.25, 0.75]]]
spec:
  horizon: unbounded
cluster:
  passes: 1
monte_carlo:
  trajectories: 200
  seed: 99
  horizon: 100
  cells: stride
  export_trajectories: 3
output_dir: OUTDIR
"""


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    paths = []
    for name in ("run_a", "run_b"):
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(SMALL_CONFIG.replace("OUTDIR", name))
        config = load_config(cfg_path)
        run_pipeline(config)
        paths.append(config.output_dir)
    ok = True
    for artifact in (IMC_FILE, LABELS_FILE, RESULTS_FILE, IMPROVED_FILE,
                     TRAJECTORIES_FILE):
        a = (paths[0] / artifact).read_bytes()
        b = (paths[1] / artifact).read_bytes()
        if a != b:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "repeated pipeline runs with a fixed seed produce byte-identical "
        "exports",
        ok,
        elapsed,
    )
