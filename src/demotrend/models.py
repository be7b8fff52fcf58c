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

# Estimated quantities per form, residual sigma included.
PARAM_COUNT: dict[ModelForm, int] = {
    ModelForm.NULL: 2,
    ModelForm.LINEAR: 3,
    ModelForm.DIVISION: 3,
    ModelForm.NEG_LOG: 3,
    ModelForm.NEG_POWER: 4,
    ModelForm.LINEAR_SPLINE: 5,
    ModelForm.RIGHT_HINGE: 4,
    ModelForm.LEFT_HINGE: 4,
}

# Perfect fits are floored here so log-likelihood terms stay finite.
RSS_FLOOR = 1e-12

# Exponent search space for the negative-power form.
POWER_GRID_LO = 0.05
POWER_GRID_HI = 5.0
POWER_GRID_STEP = 0.05
POWER_REFINE_RTOL = 1e-6

# Candidates screened within this share of y.y of the best exact RSS are re-solved.
SCREEN_RTOL = 1e-9

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Forms fitted as a straight line in a transformed x.
_TRANSFORMS = {
    ModelForm.LINEAR: lambda x: x,
    ModelForm.DIVISION: lambda x: 1.0 / x,
    ModelForm.NEG_LOG: np.log,
}


class FitResult(Record, frozen=True):
    """One estimated curve plus its score: the one-row view of a fit.

    ``beta1``/``beta2`` are intercept and slope-or-scale, ``beta3`` is the
    positive exponent (negative-power form only), ``slope_right`` is the
    second-segment slope (two-slope spline only), ``breakpoint_x1`` is the
    estimated knot, and ``ybar`` holds the flat level (sample mean for the
    null form, plateau value for hinge forms).
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
    b1, b2, b3, x1 = (float(v) for v in coef)
    fields: dict = {"ybar": b1} if form is ModelForm.NULL else {"beta1": b1, "beta2": b2}
    if form is ModelForm.NEG_POWER:
        fields["beta3"] = b3
    elif form is ModelForm.LINEAR_SPLINE:
        fields.update(slope_right=b3, breakpoint_x1=x1)
    elif form in (ModelForm.RIGHT_HINGE, ModelForm.LEFT_HINGE):
        fields.update(breakpoint_x1=x1, ybar=b1 + b2 * x1)
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
    if not np.isfinite(aiccs).all():
        raise NonFiniteInput("criterion values must be finite")
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

    A coefficient row holds b1, b2, then b3 (the negative-power exponent) or
    the spline's right slope, then the breakpoint x1; the null form keeps its
    mean in b1, and a column the form does not use is NaN. Requires
    ``len(xs) >= k + 2`` so the corrected criterion is defined. Breakpoints
    are searched over interior observed x values (the two extremes at each
    end are excluded) with ties broken toward the smaller candidate; the
    negative-power exponent is found on a coarse grid and refined by
    golden-section search. The checks and every array that depends on x
    alone are made once; each row's result equals that of fitting the row
    on its own.
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


def predict(fit_result: FitResult, x: float) -> float:
    """Evaluate a fitted curve at one GDP value, clamped below at zero."""
    if not math.isfinite(x) or x <= 0.0:
        raise NonPositiveX(f"prediction requires positive finite GDP, got {x}")
    value = float(raw_prediction(fit_result, [x])[0])
    return value if value > 0.0 else 0.0


def raw_prediction(fit_result: FitResult, xs) -> np.ndarray:
    """Unclamped model values of one fit at the GDP values ``xs`` (1-d): the
    fit's coefficient row through ``predict_rows``."""
    x = np.asarray(xs, dtype=float)
    f = fit_result
    b1 = f.ybar if f.form is ModelForm.NULL else f.beta1
    b3 = f.slope_right if f.form is ModelForm.LINEAR_SPLINE else f.beta3
    coef = np.array([[b1, f.beta2, b3, f.breakpoint_x1]], dtype=float)
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


def _fit_neg_power(x, ys, coef) -> tuple[np.ndarray, np.ndarray]:
    steps = int(round((POWER_GRID_HI - POWER_GRID_LO) / POWER_GRID_STEP))
    grid = POWER_GRID_LO + np.arange(steps + 1) * POWER_GRID_STEP
    screens = _screen_rows(x ** -grid[:, None], ys)
    i, best_coef, best_rss = _exact_minima(screens, ys, lambda i: _power_designs(x, grid[i]))
    best_b3 = grid[i]

    # Golden-section search on every row's bracket in lockstep: each step
    # solves one probe for each row whose bracket is still too wide.
    batch = len(ys)
    lo = np.maximum(POWER_GRID_LO, best_b3 - POWER_GRID_STEP)
    hi = np.minimum(POWER_GRID_HI, best_b3 + POWER_GRID_STEP)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    _, f = _solve_stack(_power_designs(x, np.concatenate([c, d])), np.concatenate([ys, ys]))
    fc, fd = f[:batch], f[batch:]
    while (active := (hi - lo) > POWER_REFINE_RTOL * 0.5 * (lo + hi)).any():
        go_left = fc < fd
        left = np.flatnonzero(active & go_left)
        right = np.flatnonzero(active & ~go_left)
        hi[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = hi[left] - _INVPHI * (hi[left] - lo[left])
        lo[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = lo[right] + _INVPHI * (hi[right] - lo[right])
        probed = np.flatnonzero(active)
        f = np.empty(batch)
        _, f[probed] = _solve_stack(_power_designs(x, np.where(go_left, c, d)[probed]),
                                    ys[probed])
        fc[left], fd[right] = f[left], f[right]
    refined = 0.5 * (lo + hi)
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
    n = x.size
    candidates = _breakpoint_candidates(x)
    if candidates.size == 0:
        raise DegenerateX("no interior breakpoint candidates")
    ones = np.ones(n)
    c = candidates[:, None]
    if form is ModelForm.LINEAR_SPLINE:
        z, basis, partial = np.maximum(x - c, 0.0), np.column_stack([ones, x]), x
    elif form is ModelForm.RIGHT_HINGE:
        z, basis, partial = np.minimum(x, c), ones[:, None], None
    else:
        z, basis, partial = np.maximum(x, c), ones[:, None], None

    def designs(i: np.ndarray) -> np.ndarray:
        a = np.empty((i.size, n, basis.shape[1] + 1))
        a[:, :, :-1] = basis
        a[:, :, -1] = z[i]
        return a

    best, solved, rss = _exact_minima(_screen_rows(z, ys, partial), ys, designs)
    coef[:, :2] = solved[:, :2]
    if form is ModelForm.LINEAR_SPLINE:
        coef[:, 2] = solved[:, 1] + solved[:, 2]
    coef[:, 3] = candidates[best]
    return coef, rss


def _screen_rows(z: np.ndarray, ys: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Closed-form RSS of regressing each row y_s of ``ys`` on [1, z_c], or on
    [1, x, z_c] given ``x``, for every row z_c of ``z``: a ``(C, S)`` array.

    Centring removes the intercept; ``x`` is partialled out of every y_s and
    z_c (Frisch-Waugh-Lovell). A z_c with no variation left explains
    nothing, so its RSS is that of the basis alone. The ``(C, S)`` cross
    products are one BLAS matrix product. Its summation order is BLAS's, so
    a screen may differ from a per-pair sum in rounding, far inside
    ``SCREEN_RTOL``; ``_exact_minima`` re-solves every candidate that could win.
    """
    ry = ys - ys.mean(axis=1, keepdims=True)
    rz = z - z.mean(axis=1, keepdims=True)
    if x is not None:
        dx = x - x.mean()
        sxx = dx @ dx
        ry = ry - np.outer(ry @ dx / sxx, dx)
        rz = rz - np.outer(rz @ dx / sxx, dx)
    szz = np.einsum("ij,ij->i", rz, rz)[:, None]
    szy = rz @ ry.T
    syy = np.einsum("ij,ij->i", ry, ry)
    return syy - np.divide(szy * szy, szz, out=np.zeros_like(szy), where=szz > 0.0)


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
    shortlisted (candidate, row) pairs of all rows in one call.
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
        coef, rss[cand, rows] = _solve_stack(designs(cand), ys[rows])
        solved[cand, rows] = True
        # argmin takes the first of equal minima: the smallest index wins ties.
        best = rss.argmin(axis=0)
        if best_coef is None:
            best_coef = np.empty((len(ys), coef.shape[1]))
        won = best[rows] == cand
        best_coef[rows[won]] = coef[won]
        bound = rss[best, columns]
