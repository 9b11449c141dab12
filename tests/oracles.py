"""Independent oracles used across the test suite.

Everything here recomputes quantities from first principles (direct kernel
evaluation, exhaustive enumeration, direct linear solves, exact rational
sums) and stays off the code paths it is checking.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, floor

import numpy as np

from imcverify.dynamics import ADDITIVE, MULTIPLICATIVE, eval_point
from imcverify.imc import AVOID_LABELS, GOAL_LABEL, RowLayout
from imcverify.noise import NoiseModel
from imcverify.verify import _rank


def kernel_grid_extrema(
    model, noise: NoiseModel, q, target, points: int = 200
) -> tuple[float, float]:
    """Min and max over a grid of x in the box q of the exact one-step
    kernel T(target | x) = Pr(f(x, w) in target); q and target are ``(lo,
    hi)`` pairs of arrays of shape (n,).

    Uses the per-component CDFs directly: for g(x) + w the component mass is
    F(B - g(x)) - F(A - g(x)); for g(x) * w with positive g it is
    F(B / g(x)) - F(A / g(x)). No noise partitions are involved.
    """
    dim = len(q[0])
    axes = [np.linspace(q[0][d], q[1][d], points) for d in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([m.ravel() for m in mesh], axis=-1)
    neutral = 0.0 if model.structure == ADDITIVE else 1.0
    w = np.full_like(xs, neutral)
    g = eval_point(model, xs, w)  # g(x) exactly, by neutral noise

    t = np.ones(xs.shape[0])
    for d in range(dim):
        comp = noise.components[d]
        a, b = target[0][d], target[1][d]
        if model.structure == ADDITIVE:
            lo, hi = a - g[:, d], b - g[:, d]
        elif model.structure == MULTIPLICATIVE:
            assert np.all(g[:, d] > 0.0)
            lo, hi = a / g[:, d], b / g[:, d]
        else:
            raise ValueError("kernel oracle supports structured models only")
        t *= np.clip(np.asarray(comp.cdf(hi)) - np.asarray(comp.cdf(lo)), 0.0, 1.0)
    return float(t.min()), float(t.max())


def sweep_best_bounds(
    structure: str,
    postf: tuple[float, float],
    target: tuple[float, float],
    component,
    step: float = 1e-3,
) -> tuple[float, float]:
    """Best lower bound and best upper bound achievable by any 3-interval
    noise partition with cut points on a uniform grid over the support.

    Each candidate partition {(-inf,t1], [t1,t2], [t2,inf)} is scored by
    applying the containment/intersection indicators to the exact posterior
    of each cell, then weighting by the cell mass. Cut points outside the
    support cannot change the score, so sweeping the padded support hull is
    exhaustive at the given resolution.
    """
    c, d = postf
    a, b = target
    sup_lo, sup_hi = component.support
    ts = np.arange(sup_lo - step, sup_hi + 2 * step, step)
    cdf = np.asarray(component.cdf(ts))
    k = len(ts)
    t1 = ts[:, None]
    t2 = ts[None, :]
    f1 = cdf[:, None]
    f2 = cdf[None, :]
    valid = t1 <= t2

    if structure == ADDITIVE:
        # posterior of cell [u, v] is [c + u, d + v]
        def contained(u, v):
            return (c + u >= a) & (d + v <= b)

        def intersects(u, v):
            return (c + u <= b) & (d + v >= a)

        lower = np.where(contained(t1, t2), f2 - f1, 0.0)
        upper = np.where(intersects(t1, t2), f2 - f1, 0.0)
        # left cell (-inf, t1]: posterior (-inf, d + t1]
        upper = upper + np.where(d + t1 >= a, f1, 0.0)
        # right cell [t2, inf): posterior [c + t2, inf)
        upper = upper + np.where(c + t2 <= b, 1.0 - f2, 0.0)
    elif structure == MULTIPLICATIVE:
        assert min(a, b, c, d) > 0.0 and sup_lo > 0.0
        lower = np.where((c * t1 >= a) & (d * t2 <= b), f2 - f1, 0.0)
        upper = np.where((c * t1 <= b) & (d * t2 >= a), f2 - f1, 0.0)
        # left cell (0, t1]: posterior (0, d * t1]
        upper = upper + np.where(d * t1 >= a, f1, 0.0)
        # right cell [t2, inf): posterior [c * t2, inf)
        upper = upper + np.where(c * t2 <= b, 1.0 - f2, 0.0)
    else:
        raise ValueError(f"unsupported structure {structure!r}")

    best_lower = float(np.where(valid, lower, -np.inf).max())
    best_upper = float(np.where(valid, upper, np.inf).min())
    return best_lower, best_upper


def extreme_by_vertex_enumeration(values, lows, ups, mode: str) -> float:
    """Extreme expectation over the adversary polytope by enumerating its
    vertices: all but one coordinate at a bound, the free one absorbing the
    remaining mass."""
    m = len(values)
    tol = 1e-12
    best = None
    for free in range(m):
        others = [i for i in range(m) if i != free]
        for bits in product((0, 1), repeat=m - 1):
            gamma = np.zeros(m)
            for i, bit in zip(others, bits):
                gamma[i] = ups[i] if bit else lows[i]
            gamma[free] = 1.0 - gamma.sum()
            if not (lows[free] - tol <= gamma[free] <= ups[free] + tol):
                continue
            e = float(np.dot(gamma, values))
            if best is None:
                best = e
            elif mode == "min":
                best = min(best, e)
            else:
                best = max(best, e)
    assert best is not None, "no feasible vertex found"
    return best


def full_sweeps(imc, spec, convergence_tol: float = 1e-6, max_iterations: int = 10**5):
    """Value iteration that walks every row of one ``RowLayout`` on every
    sweep of a bound that has not returned its own bits, each iterate kept
    monotone as ``robust_value_iteration`` keeps it (up to min(max(T(v), v),
    1), or down to min(T(v), v) when the upper bound is swept again from 1
    after a failed pre-fixpoint check). Returns p_lower, p_upper, the sweep
    count, convergence, per bound the first sweep that returned its bits,
    and per bound the free rows its sweeps walked. It shares the walk of a
    whole layout, which CI checks against a row-at-a-time walk, and none of
    the dirty-row code (``RowLayout.reading``, ``RowLayout.part``)."""
    goal = imc.labels[GOAL_LABEL]
    avoid = np.logical_or.reduce([imc.labels[k] for k in AVOID_LABELS if k in imc.labels])
    free = ~(goal | avoid)
    layout = RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper)
    tol = None if spec.horizon is not None else convergence_tol
    sweeps = spec.horizon if spec.horizon is not None else max_iterations

    def sweep(bounds, signs, done, falling):
        fixpoints, walked = [None] * len(bounds), [0] * len(bounds)
        while done < sweeps and None in fixpoints:
            done, delta = done + 1, 0.0
            for b, sign in enumerate(signs):
                if fixpoints[b] is not None:
                    continue
                old = bounds[b][free]
                new = layout.walk(_rank(bounds[b], sign), bounds[b])[free]
                new = np.minimum(new, old) if falling else np.minimum(np.maximum(new, old), 1.0)
                delta = max(delta, float(np.max(np.abs(new - old), initial=0.0)))
                if new.tobytes() == old.tobytes():
                    fixpoints[b] = done
                bounds[b][free] = new
                walked[b] += int(free.sum())
            if tol is not None and delta < tol:
                return done, True, fixpoints, walked
        return sweeps, False, fixpoints, walked

    bounds = [goal.astype(float), goal.astype(float)]
    iterations, stopped, fixpoints, walked = sweep(bounds, (1.0, -1.0), 0, False)
    residual = 0.0
    if spec.horizon is None and fixpoints[1] is None:
        swept = layout.walk(_rank(bounds[1], -1.0), bounds[1])
        residual = float(np.max(np.minimum(swept, 1.0) - bounds[1], where=free, initial=0.0))
    if residual:
        upper = [(~avoid).astype(float)]
        iterations, stopped, (fixpoints[1],), (falling,) = sweep(upper, (-1.0,), iterations, True)
        bounds[1], walked[1] = upper[0], walked[1] + falling
    converged = spec.horizon is not None or not free.any() or stopped
    return (np.minimum(*bounds), bounds[1], iterations, converged, tuple(fixpoints),
            tuple(walked))


def chain_reach_probability(rows, goal: set[int], avoid: set[int]) -> np.ndarray:
    """Exact reach probability of a Markov chain by direct linear solve.

    ``rows[i]`` maps successor index to probability. Goal states get value
    1, avoid states 0; transient values solve (I - P_tt) p = P_tg 1.
    """
    n = len(rows)
    transient = [i for i in range(n) if i not in goal and i not in avoid]
    idx = {s: j for j, s in enumerate(transient)}
    a = np.zeros((len(transient), len(transient)))
    b = np.zeros(len(transient))
    for s in transient:
        for t, p in rows[s].items():
            if t in goal:
                b[idx[s]] += p
            elif t in idx:
                a[idx[s], idx[t]] += p
    p_t = np.linalg.solve(np.eye(len(transient)) - a, b)
    out = np.zeros(n)
    for s in goal:
        out[s] = 1.0
    for s, j in idx.items():
        out[s] = p_t[j]
    return out


def drift_reach_probability(x: float, goal: float, lo: float, hi: float, horizon: int) -> Fraction:
    """Exact chance that the 1-D walk x' = x + w, w ~ U[lo, hi] with 0 < lo
    and hi - lo below the goal's width, reaches a goal [goal, ...] within
    ``horizon`` steps from x. Every step rises and none can jump the goal,
    so it reaches the goal iff x + S_H >= goal, where S_H = H lo + (hi - lo)
    IrwinHall(H); the floats are read as the fractions they are, and the
    Irwin-Hall CDF is its exact alternating sum (Irwin, Biometrika 19, 1927).
    The probability rises with x, so over a closed cell it is least at the
    lower edge and largest at the upper one."""
    t = (Fraction(goal) - Fraction(x) - horizon * Fraction(lo)) / (Fraction(hi) - Fraction(lo))
    if t <= 0:
        return Fraction(1)
    if t >= horizon:
        return Fraction(0)
    below = sum((-1) ** k * comb(horizon, k) * (t - k) ** horizon for k in range(floor(t) + 1))
    return 1 - below / factorial(horizon)


def empirical_kernel(model, noise: NoiseModel, x, target, n: int, seed: int):
    """Monte Carlo estimate of T(target | x) with its standard error; target
    is a ``(lo, hi)`` pair of arrays of shape (n,)."""
    rng = np.random.default_rng(seed)
    xs = np.tile(np.asarray(x, dtype=float), (n, 1))
    ws = np.empty((n, noise.n))
    for d, comp in enumerate(noise.components):
        ws[:, d] = np.asarray(comp.inverse_cdf(rng.random(n)))
    ys = eval_point(model, xs, ws)
    inside = np.ones(n, dtype=bool)
    for d, (lo, hi) in enumerate(zip(*target)):
        inside &= (ys[:, d] >= lo) & (ys[:, d] <= hi)
    p = float(np.count_nonzero(inside)) / n
    sigma = float(np.sqrt(max(p * (1.0 - p), 1.0 / n) / n))
    return p, sigma


MASK64 = 2**64 - 1
GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64_mix(z: int) -> int:
    """SplitMix64's output function (Steele, Lea & Flood, OOPSLA 2014) of a
    64-bit word, in Python ints masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64(state: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 seeded with ``state``: each
    adds the golden gamma to the state and mixes the sum."""
    out = []
    for _ in range(count):
        state = (state + GOLDEN64) & MASK64
        out.append(splitmix64_mix(state))
    return out


def splitmix64_key(seed) -> int:
    """The key of a Monte Carlo seed, an int >= 0 or a tuple of them: from
    0, key = mix(key + word + gamma) over each int's number of 64-bit words
    and then its words, least significant first (0 is one word)."""
    key = 0
    for v in seed if isinstance(seed, tuple) else (seed,):
        words = [v & MASK64]
        while v >> 64 * len(words):
            words.append((v >> 64 * len(words)) & MASK64)
        for w in [len(words), *words]:
            key = splitmix64_mix((key + w + GOLDEN64) & MASK64)
    return key


def splitmix64_uniforms(seed, n: int, steps: int, m: int) -> list:
    """The uniforms of a cell seeded with ``seed`` with n trajectories and m
    noise components, as nested lists [step][trajectory][component]: step
    t, trajectory i, component k reads output (t * n + i) * m + k of
    SplitMix64 from the seed's key, the output's top 53 bits over 2**53."""
    u = [(z >> 11) / 2**53 for z in splitmix64(splitmix64_key(seed), steps * n * m)]
    return [[u[(t * n + i) * m : (t * n + i + 1) * m] for i in range(n)] for t in range(steps)]


def cell_index_of_point(partition, x):
    """Index of the cell that owns the point x, or None if x is outside the
    domain. Points on interior grid lines resolve to the higher-index cell
    and the domain's upper faces to the last cell, so the result is always a
    cell whose closure contains x."""
    edges = partition.edges
    if not all(e[0] <= t <= e[-1] for e, t in zip(edges, x)):
        return None
    multi = (int(np.searchsorted(e, t, side="right")) - 1 for e, t in zip(edges, x))
    owner = [min(i, r - 1) for i, r in zip(multi, partition.resolution)]
    return int(np.ravel_multi_index(owner, partition.resolution))


def binomial_tail(n: int, s: int, p: float, upper: bool) -> Fraction:
    """P(X >= s) (``upper``) or P(X <= s) for X ~ Binomial(n, p), exactly:
    the float p is read as the fraction it is, a / d, and the tail is
    sum C(n, k) a^k (d - a)^(n - k) / d^n, summed over integers by Horner's
    rule in (d - a)."""
    a, d = Fraction(p).as_integer_ratio()
    ks = range(s, n + 1) if upper else range(s + 1)
    total, power = 0, a ** ks[0]
    for k in ks:  # total = sum of C(n, j) a^j (d - a)^(k - j) over j in ks up to k
        total = total * (d - a) + comb(n, k) * power
        power *= a
    return Fraction(total * (d - a) ** (n - ks[-1]), d**n)


# --- reference exports: one f-string line per row, each float by ``repr`` ---


def write_imc_lines(imc, bounds_path, labels_path) -> None:
    """``write_imc`` as f-string lines: (from,to,lower,upper) in CSR order,
    then (state,label) per label of each state, label names sorted."""
    with open(bounds_path, "w", encoding="utf-8") as fh:
        fh.write("from,to,lower,upper\n")
        for s in range(len(imc.indptr) - 1):
            for k in range(imc.indptr[s], imc.indptr[s + 1]):
                lo, up = float(imc.lower[k]), float(imc.upper[k])
                fh.write(f"{s},{int(imc.dst[k])},{lo!r},{up!r}\n")
    names = sorted(imc.labels)
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("state,label\n")
        for i in range(imc.n_states):
            fh.writelines(f"{i},{name}\n" for name in names if imc.labels[name][i])


def write_results_lines(result, partition, threshold, path) -> None:
    """``write_results`` as f-string lines; the unsafe state's bound fields
    are empty, and each class is the three-way comparison of the state's
    bounds with ``threshold``."""
    dim = len(partition.edges)
    bounds = [f"lo{d + 1},hi{d + 1}" for d in range(dim)]
    header = ["state"] + bounds + ["p_lower", "p_upper", "class"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(partition.n_states):
            if i < partition.n_cells:
                multi = np.unravel_index(i, partition.resolution)
                bounds = ",".join(f"{float(e[m])!r},{float(e[m + 1])!r}"
                                  for e, m in zip(partition.edges, multi))
            else:
                bounds = "," * (2 * dim - 1)
            p, q = float(result.p_lower[i]), float(result.p_upper[i])
            label = "satisfies" if p >= threshold else "violates" if q < threshold else "undetermined"
            fh.write(f"{i},{bounds},{p!r},{q!r},{label}\n")


def write_trajectories_lines(trajectories, path, dim: int) -> None:
    """``write_trajectories`` as f-string lines, one per step."""
    columns = ["trajectory", "step"] + [f"x{d + 1}" for d in range(dim)] + ["termination"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for tid, traj in enumerate(trajectories):
            for step, state in enumerate(traj.states.tolist()):
                fh.write(f"{tid},{step},{','.join(map(repr, state))},{traj.termination}\n")


def write_posterior_table_lines(table, path) -> None:
    """``write_posterior_table`` as f-string lines, one per state and component."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("state,component,lo,hi\n")
        for state, (lo, hi) in enumerate(zip(table[0].tolist(), table[1].tolist())):
            fh.writelines(f"{state},{d},{a!r},{b!r}\n" for d, (a, b) in enumerate(zip(lo, hi)))


def noise_grid_cells(noise: NoiseModel, resolution):
    """The uniform noise grid of ``resolution[d]`` cells along component d,
    by scalar loops. Returns, per component, the list of its own cells
    ``(lo, hi, probability)`` (``np.linspace`` over its support), and the
    tensor cells as arrays ``lo``, ``hi`` of shape (cells, n) and ``mass``:
    row-major with the last component fastest, each of mass the product of
    its components' probabilities in component order from 1.0, clamped to
    [0, 1]."""
    own = []
    for comp, r in zip(noise.components, resolution):
        edges = np.linspace(*comp.support, r + 1).tolist()
        own.append([(a, b, float(comp.interval_probability(a, b))) for a, b in zip(edges, edges[1:])])
    lo, hi, mass = [], [], []
    for cell in product(*own):
        p = 1.0
        for _, _, q in cell:
            p *= q
        lo.append([a for a, _, _ in cell])
        hi.append([b for _, b, _ in cell])
        mass.append(min(max(p, 0.0), 1.0))
    return own, (np.array(lo), np.array(hi), np.array(mass))
