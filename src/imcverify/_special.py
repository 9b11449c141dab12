"""``scipy.special.erf`` and ``ndtri`` in numpy, bit for bit: ports of the
Cephes ``erf``/``erfc`` and ``ndtri`` that scipy runs (Moshier, *Methods and
Programs for Mathematical Functions*, 1989): the same coefficients, Horner
order and branch points, and libm's ``exp`` and ``log`` through ``math``
(numpy's miss its last bit) on the elements that need them. A denominator's
leading 1 is explicit; ``1.0 * x`` is exact, so this is Cephes' ``p1evl``."""

from __future__ import annotations

import math

import numpy as np

_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# ndtri(y) = (v + v^3 P0(v^2) / Q0(v^2)) sqrt(2 pi), v = y - 1/2, for exp(-2) < y <= 1 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails: x - log(x) / x - z P(z) / Q(z), x = sqrt(-2 log y), z = 1 / x; P1/Q1 for x < 8
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    if not x.size:  # a branch no element takes costs one numpy call, not one per term
        return x
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:  # ans = ans * x + c in place, rounded as two ufunc calls round
        ans *= x
        ans += c
    return ans


def _libm(f, v):
    return np.fromiter(map(f, v.tolist()), float, v.size)


def erf(x):
    """``scipy.special.erf``; a 0-d or scalar input gives a numpy scalar, as
    a ufunc does."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x).ravel()
    # from |x| = 8 on, Cephes' erfc is below 1e-28 (its R/S branch, then
    # underflow), so erf rounds to 1
    out = np.ones(a.size)
    small = np.flatnonzero(a <= 1.0)
    v = a[small]
    v2 = v * v
    out[small] = v * _polevl(v2, _T) / _polevl(v2, _U)
    big = np.flatnonzero((a > 1.0) & (a < 8.0))
    v = a[big]
    out[big] = 1.0 - _libm(math.exp, -v * v) * _polevl(v, _P) / _polevl(v, _Q)
    out = np.copysign(out, x.ravel())
    out[np.isnan(a)] = np.nan
    return out.reshape(x.shape)[()]


def ndtri(y0):
    """``scipy.special.ndtri``, the standard Gaussian quantile: -inf at 0, inf
    at 1 and nan outside [0, 1], each set only when such values occur."""
    y0 = np.asarray(y0, dtype=float)
    flat = y0.ravel()
    upper = flat > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - flat, flat)
    mid, edge = y > _EXPM2, y <= 0.0  # edge: y0 is 0, 1 or outside [0, 1]
    # tail: y0 in (0, exp(-2)] or [1 - exp(-2), 1), or nan as in Cephes
    tail, mid, out = np.flatnonzero(~(mid | edge)), np.flatnonzero(mid), np.empty(flat.shape)
    v, y = y[mid] - 0.5, y[tail]  # frees y: only its central and tail elements are read
    v2 = v * v
    out[mid] = (v + v * np.divide(v2 * _polevl(v2, _P0), _polevl(v2, _Q0), out=v2)) * _S2PI
    x = np.sqrt(-2.0 * _libm(math.log, y))
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0  # False on nan, which either rational keeps
    for part, p, q in ((near, _P1, _Q1), (~near, _P2, _Q2)):  # each on its own elements
        zp = z[part]
        x1[part] = zp * _polevl(zp, p) / _polevl(zp, q)
    x = x - _libm(math.log, x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    if len(mid) + len(tail) < len(flat):
        out[edge] = np.select([flat[edge] == 0.0, flat[edge] == 1.0], [-np.inf, np.inf], np.nan)
    return out.reshape(y0.shape)[()]
