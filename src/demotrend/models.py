"""Candidate GDP-to-rate regression forms and information-theoretic scoring.

Eight nested-to-flexible curve shapes relate a demographic rate to GDP per
capita. Each is estimated by least squares (equivalently Gaussian maximum
likelihood), scored with the small-sample corrected information criterion,
and combined through normalized evidence weights. Breakpoint and exponent
searches are grid-based and fully deterministic: a closed-form screen of
every candidate, then an exact re-solve of the near-best ones.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg

from .core import Record
from .errors import (
    DegenerateX,
    DenominatorZero,
    EmptyInput,
    InsufficientData,
    NonFiniteInput,
    NonPositiveX,
)


class ModelForm(Enum):
    NULL = "Null"
    LINEAR = "Linear"
    DIVISION = "Division"
    NEG_LOG = "NegLog"
    NEG_POWER = "NegPower"
    LINEAR_SPLINE = "LinearSpline"
    RIGHT_HINGE = "RightHinge"
    LEFT_HINGE = "LeftHinge"


FORM_ORDER: tuple[ModelForm, ...] = tuple(ModelForm)

# The ``FitResult`` field that each coefficient column (b1, b2, b3, x1) of a
# form holds, or None where the form leaves the column NaN.
COEF_FIELDS: dict[ModelForm, tuple[str | None, ...]] = {
    ModelForm.NULL: ("ybar", None, None, None),
    ModelForm.LINEAR: ("beta1", "beta2", None, None),
    ModelForm.DIVISION: ("beta1", "beta2", None, None),
    ModelForm.NEG_LOG: ("beta1", "beta2", None, None),
    ModelForm.NEG_POWER: ("beta1", "beta2", "beta3", None),
    ModelForm.LINEAR_SPLINE: ("beta1", "beta2", "slope_right", "breakpoint_x1"),
    ModelForm.RIGHT_HINGE: ("beta1", "beta2", None, "breakpoint_x1"),
    ModelForm.LEFT_HINGE: ("beta1", "beta2", None, "breakpoint_x1"),
}

# Estimated quantities per form, residual sigma included.
PARAM_COUNT: dict[ModelForm, int] = {
    form: 1 + sum(name is not None for name in names) for form, names in COEF_FIELDS.items()}

# Perfect fits are floored here so log-likelihood terms stay finite.
RSS_FLOOR = 1e-12

# Exponent search space for the negative-power form.
POWER_GRID_LO = 0.05
POWER_GRID_HI = 5.0
POWER_GRID_STEP = 0.05
POWER_REFINE_RTOL = 1e-6

# Candidates screened within this share of y.y of the best exact RSS are re-solved.
SCREEN_RTOL = 1e-9
# Exponent and knot candidates are screened this many at a time, so a search
# holds (SCREEN_BLOCK, n) arrays, never a (candidates, n) one.
SCREEN_BLOCK = 64

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# A golden-section probe whose design's singular-value ratio is within this
# factor of lstsq's rcond is always solved (see _rss_bounds).
POWER_GATE = 1e4

# The largest exponent b of a form whose design holds x^-b. A sample on which
# x^-b or its sum of squares overflows has no finite design for the form.
_TOP_POWER = {ModelForm.DIVISION: 1.0, ModelForm.NEG_POWER: POWER_GRID_HI}

# Forms fitted as a straight line in a transformed x.
_TRANSFORMS = {
    ModelForm.LINEAR: lambda x: x,
    ModelForm.DIVISION: lambda x: 1.0 / x,
    ModelForm.NEG_LOG: np.log,
}

# The z column of each breakpoint form's design [basis, z], for the knots
# ``c`` of shape (C, 1): a (C, n) array.
_KNOT_COLUMNS = {
    ModelForm.LINEAR_SPLINE: lambda x, c: np.maximum(x - c, 0.0),
    ModelForm.RIGHT_HINGE: np.minimum,
    ModelForm.LEFT_HINGE: np.maximum,
}


class FitResult(Record, frozen=True):
    """One estimated curve plus its score: the one-row view of a fit.

    ``COEF_FIELDS`` names the fields each form sets: intercept and
    slope-or-scale ``beta1``/``beta2``, exponent ``beta3``, right slope
    ``slope_right``, knot ``breakpoint_x1`` and flat level ``ybar``, which
    hinge forms also set, to their plateau.
    """

    form: ModelForm
    sigma: float
    n_fit: int
    k_params: int
    aicc: float
    beta1: float | None = None
    beta2: float | None = None
    beta3: float | None = None
    slope_right: float | None = None
    breakpoint_x1: float | None = None
    ybar: float | None = None


def fit_result(form: ModelForm, coef, sigma: float, aicc: float, n: int) -> FitResult:
    """The ``FitResult`` of one coefficient row as ``fit_rows`` returns it."""
    fields = {name: float(v) for name, v in zip(COEF_FIELDS[form], coef) if name is not None}
    if form in (ModelForm.RIGHT_HINGE, ModelForm.LEFT_HINGE):  # the plateau level
        fields["ybar"] = fields["beta1"] + fields["beta2"] * fields["breakpoint_x1"]
    return FitResult(form=form, sigma=sigma, n_fit=n, k_params=PARAM_COUNT[form],
                     aicc=aicc, **fields)


def aicc(rss: float, n: int, k: int) -> float:
    """Small-sample corrected information criterion for a Gaussian fit.

    Parameters
    ----------
    rss : residual sum of squares (floored at ``RSS_FLOOR``).
    n : number of observations.
    k : number of estimated parameters, residual sigma included.
    """
    return float(scores(np.array([rss], dtype=float), n, k)[1][0])


def scores(rss: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Residual sigma and corrected criterion (see ``aicc``) of each RSS in ``rss``.

    The logarithm is ``math.log`` of each value, whose bits numpy's
    vectorized ``np.log`` is not guaranteed to reproduce.
    """
    if n <= k + 1:
        raise DenominatorZero(n, k)
    per_obs = np.maximum(rss, RSS_FLOOR) / n
    log = np.array([math.log(v) for v in per_obs.tolist()])
    return np.sqrt(per_obs), n * log + 2.0 * k + 2.0 * k * (k + 1.0) / (n - k - 1.0)


def akaike_weights(aiccs) -> list[float]:
    """Normalize criterion values into evidence weights (see ``evidence_weights``)."""
    a = np.asarray(list(aiccs), dtype=float)
    if a.size == 0:
        raise EmptyInput("akaike_weights requires at least one criterion value")
    return evidence_weights(a[None, :])[0].tolist()


def evidence_weights(aiccs: np.ndarray) -> np.ndarray:
    """Normalized evidence weights of each row of a 2-d array of criterion values.

    Each row's minimum is subtracted before exponentiation, so the result is
    invariant to a common additive shift and safe from overflow. A row sums
    as its 1-d copy does only in a C-ordered array.
    """
    aiccs = np.ascontiguousarray(aiccs)
    finite = np.isfinite(aiccs).all(axis=1)
    if not finite.all():
        raise NonFiniteInput("criterion values must be finite", row=int(finite.argmin()))
    rel = np.exp(-(aiccs - aiccs.min(axis=1, keepdims=True)) / 2.0)
    return rel / rel.sum(axis=1, keepdims=True)


def fit(form: ModelForm, xs, ys) -> FitResult:
    """Least-squares fit of one form to positive-x data (one row of ``fit_rows``)."""
    y = np.asarray(ys, dtype=float)
    if y.ndim != 1:
        raise ValueError("xs and ys must be 1-d sequences of equal length")
    coef, rss = fit_rows(form, xs, y[None, :])
    sigma, score = scores(rss, y.size, PARAM_COUNT[form])
    return fit_result(form, coef[0], sigma.item(), score.item(), y.size)


def fit_rows(form: ModelForm, xs, ys_rows) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of one form to each row of ``ys_rows``, all on the same
    ``xs``: coefficients ``(S, 4)`` and residual sums of squares ``(S,)``.

    A coefficient row holds the form's ``COEF_FIELDS``, NaN where it names
    none. Requires ``len(xs) >= k + 2`` so the corrected criterion is
    defined. Breakpoints are searched over interior observed x values (the
    two extremes at each end are excluded) with ties broken toward the
    smaller candidate; the negative-power exponent is found on a coarse grid
    and refined by golden-section search. A form whose design would not be
    finite on ``xs`` (Division where 1/x or its sum of squares overflows,
    NegPower where x^-POWER_GRID_HI does) raises ``DegenerateX``, as a
    constant ``xs`` does. The checks and the arrays that depend on x alone
    are made once, except a searched form's z rows (powers or knot columns),
    which are made ``SCREEN_BLOCK`` candidates at a time and again for each
    candidate solved; each row's result equals that of fitting it on its own.
    """
    x = np.asarray(xs, dtype=float)
    ys = np.ascontiguousarray(ys_rows, dtype=float)  # each row reduces as a 1-d array
    if x.ndim != 1 or ys.ndim != 2 or ys.shape[1] != x.size:
        raise ValueError("xs must be 1-d and ys_rows 2-d, with rows as long as xs")
    if not (np.isfinite(x).all() and np.isfinite(ys).all()):
        raise NonFiniteInput("fit inputs must be finite")
    if (x <= 0.0).any():
        raise NonPositiveX("all predictor values must be strictly positive")
    n = x.size
    k = PARAM_COUNT[form]
    if n < k + 2:
        raise InsufficientData(n, k)
    if form is not ModelForm.NULL and bool(np.all(x == x[0])):
        raise DegenerateX("constant predictor admits only the null form")
    if form in _TOP_POWER:
        with np.errstate(over="ignore"):
            top = x ** -_TOP_POWER[form]
            if not np.isfinite(top @ top):
                raise DegenerateX(f"x^-{_TOP_POWER[form]:g} overflows: no finite design")

    coef = np.full((len(ys), 4), np.nan)
    if not len(ys):
        return coef, np.empty(0)
    if form is ModelForm.NULL:
        coef[:, 0] = ys.mean(axis=1)
        return coef, np.square(ys - coef[:, :1]).sum(axis=1)
    if form in _TRANSFORMS:
        a = np.column_stack([np.ones(n), _TRANSFORMS[form](x)])
        coef[:, :2], rss = _solve_stack(np.broadcast_to(a, (len(ys), n, 2)), ys)
        return coef, rss
    if form is ModelForm.NEG_POWER:
        return _fit_neg_power(x, ys, coef)
    return _fit_breakpoint(form, x, ys, coef)


def raw_prediction(fit_result: FitResult, xs) -> np.ndarray:
    """Unclamped model values of one fit at the GDP values ``xs`` (1-d): the
    fit's coefficient row through ``predict_rows``."""
    x = np.asarray(xs, dtype=float)
    f = fit_result
    coef = np.array([[getattr(f, n) if n else None for n in COEF_FIELDS[f.form]]], dtype=float)
    return np.broadcast_to(predict_rows(f.form, coef, x), (1, x.size))[0].copy()


def predict_rows(form: ModelForm, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unclamped values, broadcastable to ``(S, T)``, of each coefficient row
    ``coef[s]`` of one form at GDP values ``x``, ``(T,)`` or ``(S, T)``.

    The negative-power form takes every row's power in one ``neg_powers``
    call, with the bits of ``x ** -b3`` for a scalar exponent.
    """
    b1, b2, b3, x1 = (coef[:, j, None] for j in range(4))
    if form is ModelForm.NULL:
        return b1
    if form is ModelForm.LINEAR:
        return b1 + b2 * x
    if form is ModelForm.DIVISION:
        return b1 + b2 / x
    if form is ModelForm.NEG_LOG:
        return b1 + b2 * np.log(x)
    if form is ModelForm.NEG_POWER:
        return b1 + b2 * neg_powers(x, coef[:, 2])
    if form is ModelForm.LINEAR_SPLINE:
        return b1 + b2 * np.minimum(x, x1) + b3 * np.maximum(x - x1, 0.0)
    if form is ModelForm.RIGHT_HINGE:
        return b1 + b2 * np.minimum(x, x1)
    return b1 + b2 * np.maximum(x, x1)


def _solve_stack(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients ``(S, k)`` and RSS ``(S,)`` of each ``y[s]`` on ``a[s]``.

    ``a`` is ``(S, n, k)`` and ``y`` is ``(S, n)``. One LAPACK call solves the
    whole stack; each slice is bit for bit what ``np.linalg.lstsq`` gives
    (default ``rcond``), which refuses stacks. A stacked ``matmul`` gives the
    RSS bit for bit as ``resid @ resid`` does; ``einsum`` does not.
    """
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        coef = _umath_linalg.lstsq(a, y[..., None], rcond, signature="ddd->ddid")[0][..., 0]
    resid = y - (a @ coef[..., None])[..., 0]
    return coef, sumsq(resid)


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def sumsq(r: np.ndarray) -> np.ndarray:
    """``r[s] @ r[s]`` for each row of ``r``, bit for bit."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def neg_powers(x: np.ndarray, b3s: np.ndarray) -> np.ndarray:
    """``x ** -b3`` for each positive exponent of ``b3s``, one row each: a
    ``(B, T)`` array from ``x`` of shape ``(T,)`` or ``(B, T)``.

    One ``np.power`` takes every exponent, and each row has the bits of
    ``x ** -b3`` with a scalar exponent. A scalar exponent of -1 takes
    numpy's reciprocal path and an array exponent does not, so rows whose
    exponent is exactly 1 are written as ``1.0 / x``.
    """
    b3 = np.asarray(b3s, dtype=float)
    powers = np.power(x, -b3[:, None])
    one = b3 == 1.0
    if one.any():
        powers[one] = 1.0 / np.broadcast_to(x, powers.shape)[one]
    return powers


def _power_designs(x: np.ndarray, b3s: np.ndarray) -> np.ndarray:
    """Stacked designs [1, x^-b3], one per exponent in ``b3s`` (see ``neg_powers``)."""
    a = np.ones((b3s.size, x.size, 2))
    a[:, :, 1] = neg_powers(x, b3s)
    return a


def _rss_bounds(x, ys, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Centred rows of ``ys``, and per row ``syy`` and the terms of a bound
    e >= |f - g| at each b in [lo, hi]: g = syy - szy^2 / szz is the
    closed-form RSS of y on A = [1, x^-b], f the RSS of ``_solve_stack``.

    With R the exact RSS, u the unit roundoff, s = sqrt(syy), F = ||A||_F,
    kappa = cond(A), C >= ||c*|| (|slope| <= s / sqrt(szz)), a = ||y|| + F C,
    lam = 1.01 eps (a + kappa s) for eps = 16 n u and t = 1.03 (n+3) u a
    + 2.03 u s + lam / 1000: centring moves sqrt(R) by at most t and the
    sums move g by (4.02 n + 27) u syy (Higham ch. 3-4; Chan, Golub and
    LeVeque 1983). ``gelsd`` solves a problem within eps of A and y in norm
    unless it drops a singular value (Higham ch. 20; Golub and Van Loan
    5.5). That error reaches c - c* through P_A and (A^+)^T, so 0 <=
    ||y - A c||^2 - R = ||A (c - c*)||^2 <= lam^2, and forming f moves its
    root by at most t and f by gamma_n f. So e = 1.01 (7 (n+4) u syy + 4 s t
    + 1.01 (lam + 2 t)^2), kept where 1 / kappa >= sqrt(n szz) / F^2 exceeds
    ``POWER_GATE`` times lstsq's rcond (nothing dropped, eps kappa < 1e-3)
    and 1e-150 < syy < 1e150 (underflow no worse than rounding). Bounding F
    and mean z over [lo, hi] gives e = e0 + e1 w + e2 w^2, w = szz^-1/2.
    """
    n, u = x.size, np.finfo(float).eps / 2
    ry = ys - ys.mean(axis=1, keepdims=True)
    syy = np.einsum("ij,ij->i", ry, ry)
    s, zmax = np.sqrt(syy), np.maximum(neg_powers(x, lo), neg_powers(x, hi)) * 1.01
    f2 = n + sumsq(zmax)
    a = np.stack([np.sqrt(sumsq(ys)) + np.sqrt(f2) * np.abs(ys.mean(axis=1)),
                  np.sqrt(f2) * (1.0 + zmax.mean(axis=1)) * s])  # a <= a[0] + a[1] w
    lam = 16.16 * n * u * (a + [0.0 * s, s * f2 / math.sqrt(n)])
    t = 1.03 * (n + 3) * u * a + [2.03 * u * s, 0.0 * s] + lam / 1000
    (l0, l1), (t0, t1) = lam + 2 * t, t
    wmax = np.where((syy > 1e-150) & (syy < 1e150),
                    math.sqrt(n) / (POWER_GATE * 2 * u * max(n, 2) * f2), 0.0)
    return ry, np.stack([syy, 7.07 * (n + 4) * u * syy + 4.04 * s * t0 + 1.0201 * l0 * l0,
                         4.04 * s * t1 + 2.0402 * l0 * l1, 1.0201 * l1 * l1, wmax])


def _bounded_rss(x, b, ry, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form RSS g of each centred row of ``ry`` on [1, x^-b], and the
    bound e >= |f - g| of ``_rss_bounds`` (inf where it is not proven)."""
    z = neg_powers(x, b)
    rz = z - z.sum(axis=1, keepdims=True) / x.size
    w = 1.0 / np.sqrt(sumsq(rz))
    syy, e0, e1, e2, wmax = bounds
    g = syy - ((rz[:, None, :] @ ry[:, :, None])[:, 0, 0] * w) ** 2
    return g, np.where(w < wmax, e0 + w * (e1 + e2 * w), np.inf)


def _fit_neg_power(x, ys, coef) -> tuple[np.ndarray, np.ndarray]:
    """Grid screen, exact grid minima, then golden-section search on every
    row's bracket in lockstep. A step's ``fc < fd`` comes from closed-form
    RSS where ``_rss_bounds`` proves its sign, else from solved probes."""
    steps = int(round((POWER_GRID_HI - POWER_GRID_LO) / POWER_GRID_STEP))
    grid = POWER_GRID_LO + np.arange(steps + 1) * POWER_GRID_STEP
    i, best_coef, best_rss = _search(ys, None, lambda i: neg_powers(x, grid[i]), grid.size)
    best_b3 = grid[i]

    # Per row still searching: lo, hi, the c and the d probe's exponent, g, e
    # and solved RSS f (NaN until a comparison needs it), the row's bounds.
    lo = np.maximum(POWER_GRID_LO, best_b3 - POWER_GRID_STEP)
    hi = np.minimum(POWER_GRID_HI, best_b3 + POWER_GRID_STEP)
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    ids, refined, nan = np.arange(len(ys)), np.empty(len(ys)), np.full(len(ys), np.nan)
    with np.errstate(all="ignore"):
        ry, bounds = _rss_bounds(x, ys, lo, hi)
        state = np.vstack([lo, hi, c, *_bounded_rss(x, c, ry, bounds), nan,
                           d, *_bounded_rss(x, d, ry, bounds), nan, bounds])
        while True:
            active = (state[1] - state[0]) > POWER_REFINE_RTOL * 0.5 * (state[0] + state[1])
            if not active.all():
                refined[ids[~active]] = 0.5 * (state[0] + state[1])[~active]
                ids, ry, state = ids[active], ry[active], state[:, active]
                if not ids.size:
                    break
            gap = state[7] - state[3]
            doubt = ~(np.abs(gap) > state[4] + state[8])
            left = gap > 0.0
            if doubt.any():
                slot, k = (doubt & np.isnan(state[5:10:4])).nonzero()
                _, state[5 + 4 * slot, k] = _solve_stack(
                    _power_designs(x, state[2 + 4 * slot, k]), ys[ids[k]])
                left = np.where(doubt, state[5] < state[9], left)
            lo, hi = np.where(left, state[0], state[2]), np.where(left, state[6], state[1])
            step = _INVPHI * (hi - lo)
            b = np.where(left, hi - step, lo + step)
            new = np.array([b, *_bounded_rss(x, b, ry, state[10:]), nan[: ids.size]])
            state[2:10] = np.where(left, np.concatenate([new, state[2:6]]),
                                   np.concatenate([state[6:10], new]))
            state[0], state[1] = lo, hi
    coef[:, :2], rss = _solve_stack(_power_designs(x, refined), ys)
    keep = best_rss < rss  # refinement can only help inside the bracket; be safe
    refined[keep], coef[keep, :2], rss[keep] = best_b3[keep], best_coef[keep], best_rss[keep]
    coef[:, 2] = refined
    return coef, rss


def _breakpoint_candidates(x: np.ndarray) -> np.ndarray:
    """Distinct values of the sorted ``x`` less its two smallest and two largest
    entries, strictly inside the range of ``x``, ascending.

    Sorting and dropping repeats does what ``np.unique`` does without
    importing ``numpy.ma``, which ``np.unique`` does on its first call.
    """
    xs_sorted = np.sort(x)
    interior = xs_sorted[2:-2]
    keep = (interior > xs_sorted[0]) & (interior < xs_sorted[-1])
    keep[1:] &= interior[1:] != interior[:-1]
    return interior[keep]


def _fit_breakpoint(form, x, ys, coef) -> tuple[np.ndarray, np.ndarray]:
    """``_search`` over the knots, each knot's z column [x - c]+, min(x, c)
    or max(x, c) beside [1, x] (LinearSpline) or [1]."""
    candidates = _breakpoint_candidates(x)
    if candidates.size == 0:
        raise DegenerateX("no interior breakpoint candidates")
    knot_column = _KNOT_COLUMNS[form]
    spline = form is ModelForm.LINEAR_SPLINE
    best, solved, rss = _search(ys, x if spline else None,
                                lambda i: knot_column(x, candidates[i, None]), candidates.size)
    coef[:, :2] = solved[:, :2]
    if spline:
        coef[:, 2] = solved[:, 1] + solved[:, 2]
    coef[:, 3] = candidates[best]
    return coef, rss


def _search(ys: np.ndarray, partial: np.ndarray | None, columns,
            count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_exact_minima`` over ``count`` candidates: candidate i's design is
    [1, z_i], or [1, partial, z_i] given ``partial``, and ``columns(i)``
    gives the z rows ``(len(i), n)`` of the candidate indices ``i``.

    The screen is the closed-form RSS of each y_s on each design: centring
    removes the intercept and ``partial`` is partialled out of every y_s and
    z_i (Frisch-Waugh-Lovell); a z_i with no variation left explains
    nothing. The y side is made once, the z rows ``SCREEN_BLOCK`` at a time
    (and again for each candidate solved), so no ``(count, n)`` array is
    held. A block's cross products are one BLAS matrix product, whose
    rounding may differ from a per-pair sum far inside ``SCREEN_RTOL``. A
    screen that overflows rules nothing out (see ``_exact_minima``): no warning.
    """
    n = ys.shape[1]
    basis = np.ones((n, 1)) if partial is None else np.column_stack([np.ones(n), partial])
    screened = []
    with np.errstate(all="ignore"):
        dx = None if partial is None else partial - partial.mean()
        ry = _residuals(ys, dx)
        syy = np.einsum("ij,ij->i", ry, ry)
        for start in range(0, count, SCREEN_BLOCK):
            rz = _residuals(columns(np.arange(start, min(start + SCREEN_BLOCK, count))), dx)
            szz = np.einsum("ij,ij->i", rz, rz)[:, None]
            szy = rz @ ry.T
            screened.append(
                syy - np.divide(szy * szy, szz, out=np.zeros_like(szy), where=szz > 0.0))
    return _exact_minima(np.concatenate(screened), ys, lambda i: np.concatenate(
        [np.broadcast_to(basis, (i.size, *basis.shape)), columns(i)[:, :, None]], axis=2))


def _residuals(a: np.ndarray, dx: np.ndarray | None) -> np.ndarray:
    """The rows of ``a`` centred, less their projection on ``dx`` (centred)."""
    a = a - a.mean(axis=1, keepdims=True)
    return a if dx is None else a - np.outer(a @ dx / (dx @ dx), dx)


def _exact_minima(screened: np.ndarray, ys: np.ndarray,
                  designs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``ys``, the index, coefficients and RSS that a ``_solve_stack``
    scan of every candidate picks: ``(S,)``, ``(S, k)`` and ``(S,)`` arrays.

    ``screened`` is the ``(C, S)`` screen and ``designs(i)`` stacks the
    design matrices of the candidate indices ``i``. That scan keeps, per
    row, the first candidate in ascending order with the least solved RSS.
    A solved RSS belongs to actual coefficients, so it never undercuts the
    exact least squares that the screen computes by more than rounding.
    Only candidates screened within ``SCREEN_RTOL * y.y`` of the row's best
    solved RSS can therefore win, and only they are solved: first those
    near the screened minimum, then any the solved RSS brings in range (an
    ill-conditioned candidate's solved RSS can exceed its screen). A screen
    that is not finite never rules a candidate out. Each round solves the
    shortlisted (candidate, row) pairs of all rows ``SCREEN_BLOCK`` at a time.
    """
    tol = SCREEN_RTOL * sumsq(ys)
    solved = np.zeros(screened.shape, dtype=bool)
    rss = np.full(screened.shape, np.inf)
    bound = screened.min(axis=0)
    columns = np.arange(len(ys))
    best_coef = None
    while True:
        cand, rows = np.nonzero(~(screened > bound + tol) & ~solved)
        if cand.size == 0:
            return best, best_coef, bound
        coef, rss[cand, rows] = map(np.concatenate, zip(*(
            _solve_stack(designs(cand[start:start + SCREEN_BLOCK]),
                         ys[rows[start:start + SCREEN_BLOCK]])
            for start in range(0, cand.size, SCREEN_BLOCK))))
        solved[cand, rows] = True
        # argmin takes the first of equal minima: the smallest index wins ties.
        best = rss.argmin(axis=0)
        if best_coef is None:
            best_coef = np.empty((len(ys), coef.shape[1]))
        won = best[rows] == cand
        best_coef[rows[won]] = coef[won]
        bound = rss[best, columns]
