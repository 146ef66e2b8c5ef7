"""LAPQ: loss-aware post-training quantization (Nahshan et al. [19]).

LAPQ observes that the network loss as a function of the clipping values is
smooth and roughly quadratic around the optimum, and that minimising the
``p``-norm of the tensor-level quantization error with an appropriately
chosen ``p`` tracks the loss minimum closely.  The original method seeds a
joint optimisation of all clipping scales from per-tensor p-norm optima;
this implementation performs the per-tensor stage, which is the part that
matters for the per-layer (α, β) compression study, and keeps the
p-exponent dependence on the target bit-width.

The Lp-metric clipping search runs over every tensor of one call at once:
all layers of a calibration recording for one side (weights or activations)
and bit width, each tensor contributing its rows (every output channel of a
weight tensor, or the one row of an activation sample).  Each tensor's
coarse grid of candidate clips is one codec call on its rows repeated once
per candidate; then Brent's bounded method (golden-section plus parabolic
steps) refines each row around its best candidate, run in lock step over
the rows of all tensors.  The refinement is a port of scipy.optimize's
bounded scalar minimiser with its constants, tolerance and evaluation cap,
and :func:`lp_errors` does the codec's arithmetic op for op and reduces
each row alone, so every row's clip equals a one-row-at-a-time
``minimize_scalar(method="bounded")`` search bit for bit, whichever tensors
share the call.  An activation row's exact zeros (often most of a post-ReLU
row) are left out of the codec arithmetic but kept in the mean, which keeps
that equality.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

import repro.observability as observability
from repro.quantization.base import QuantParams, QuantizationMethod

#: Constants of scipy.optimize's bounded scalar minimiser.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))

#: Objective evaluations per row after which the refinement gives up and the
#: row keeps its best grid candidate (scipy's ``maxiter`` default).
MAX_EVALUATIONS = 500


def lp_exponent_for_bits(num_bits: int) -> float:
    """Heuristic p(p-norm) vs bit-width mapping used by LAPQ.

    Lower bit-widths favour heavier clipping, obtained with a smaller
    exponent; the values follow the trend reported in the LAPQ paper
    (p ≈ 2 at 2 bits up to p ≈ 4 at 8 bits).
    """
    return float(np.clip(2.0 + (num_bits - 2) * (2.0 / 6.0), 2.0, 4.0))


def lp_errors(
    rows: np.ndarray,
    clips: np.ndarray,
    num_bits: int,
    p: float,
    one_sided: bool,
    columns: np.ndarray | None = None,
    full: np.ndarray | None = None,
) -> np.ndarray:
    """Mean ``|Q(x) - x| ** p`` of each row of ``rows`` (R, K) at its clip (R,).

    ``Q`` is the round trip through ``QuantParams.from_range(0, clip)`` when
    ``one_sided``, else through ``QuantParams.symmetric(clip)``.  The codec's
    operations run in place on one (R, K) buffer in the codec's order, and
    the mean reduces the contiguous last axis, so each row's error equals
    the same computation on that row alone.  Rows with ``clip <= 0`` get
    ``inf``.

    When ``rows`` holds only the ``columns`` of wider rows, the errors are
    written into those columns of ``full`` (at least R rows, zero in every
    other column) and the mean runs over ``full``'s rows.  Through
    ``from_range(0, clip)`` a zero sample round-trips to exactly 0, so its
    error is ``+0.0``: the zero columns hold what the codec would have
    computed there, and the mean sums the same terms in the same pairwise
    tree as over the wide rows.  Summing the compacted rows instead would
    regroup the terms and change the last bits.
    """
    clips = np.asarray(clips, dtype=np.float64)
    invalid = clips <= 0
    clips = np.where(invalid, 1.0, clips)
    if one_sided:
        params = QuantParams.from_range(0.0, clips, num_bits)
    else:
        params = QuantParams.symmetric(clips, num_bits)
    scale = params.scale[:, None]
    zero_point = params.zero_point[:, None]
    error = rows / scale
    error += zero_point
    np.round(error, out=error)
    np.clip(error, 0, params.max_level, out=error)
    error -= zero_point
    error *= scale
    error -= rows
    np.abs(error, out=error)
    error **= p
    if columns is not None:
        full = full[: len(rows)]
        full[:, columns] = error
        error = full
    errors = error.mean(axis=1)
    errors[invalid] = np.inf
    return errors


def _bounded_minimise(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    low: np.ndarray,
    high: np.ndarray,
    xatol: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimise independent scalar problems on ``[low, high]``, in lock step.

    A port of scipy 1.17's ``_minimize_scalar_bounded`` (Brent's method:
    golden-section steps, replaced by parabolic ones where the parabola
    through the last three points is trustworthy) over arrays of problems.
    ``objective(index, x)`` evaluates the problems ``index`` (ascending) at
    ``x``.  Every problem still searching takes one step per pass, so all of
    them share the evaluation count and stop at the same cap, and each
    problem's search is the one it would run alone.

    Returns each problem's best point, whether its search converged (not
    capped at :data:`MAX_EVALUATIONS`, no NaN), and the number of passes it
    took a step in.
    """
    a = low.copy()
    b = high.copy()
    xf = a + _GOLDEN_MEAN * (b - a)
    nfc = xf.copy()
    fulc = xf.copy()
    rat = np.zeros_like(xf)
    e = np.zeros_like(xf)
    fx = objective(np.arange(len(xf)), xf)
    fnfc = fx.copy()
    ffulc = fx.copy()
    fu = np.full_like(xf, np.inf)
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    active = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
    capped = np.zeros_like(active)
    steps = np.zeros(len(xf), dtype=np.int64)
    evaluations = 1
    # Every step is computed for every problem and kept only where the
    # problem is still searching, so the finished ones may divide by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.any():
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = (
                (np.abs(e) > tol1)
                & (np.abs(p) < np.abs(0.5 * q * e))
                & (p > q * (a - xf))
                & (p < q * (b - xf))
            )
            parabola = (p + 0.0) / q
            x = xf + parabola
            towards_middle = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            parabola = np.where(((x - a) < tol2) | ((b - x) < tol2), towards_middle, parabola)
            golden = np.where(xf >= xm, a - xf, b - xf)
            e = np.where(active, np.where(parabolic, rat, golden), e)
            rat = np.where(active, np.where(parabolic, parabola, _GOLDEN_MEAN * golden), rat)

            x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
            index = np.flatnonzero(active)
            fu[index] = objective(index, x[index])
            evaluations += 1
            steps += active

            better = active & (fu <= fx)
            worse = active & ~(fu <= fx)
            shift = worse & ((fu <= fnfc) | (nfc == xf))
            replace = worse & ~shift & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            a, b = (
                np.where(better & (x >= xf), xf, np.where(worse & (x < xf), x, a)),
                np.where(better & ~(x >= xf), xf, np.where(worse & ~(x < xf), x, b)),
            )
            fulc, ffulc = (
                np.where(better | shift, nfc, np.where(replace, x, fulc)),
                np.where(better | shift, fnfc, np.where(replace, fu, ffulc)),
            )
            nfc, fnfc = (
                np.where(better, xf, np.where(shift, x, nfc)),
                np.where(better, fx, np.where(shift, fu, fnfc)),
            )
            xf, fx = np.where(better, x, xf), np.where(better, fu, fx)

            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
            tol2 = 2.0 * tol1
            if evaluations >= MAX_EVALUATIONS:
                capped = active
                break
            active = active & (np.abs(xf - xm) > (tol2 - 0.5 * (b - a)))
    converged = ~capped & ~(np.isnan(xf) | np.isnan(fx) | np.isnan(fu))
    return xf, converged, steps


def _candidate_grid(max_abs: np.ndarray, num_candidates: int) -> np.ndarray:
    """Each row's ``np.linspace(0.2 * max_abs, max_abs, num_candidates)``."""
    start = 0.2 * max_abs
    delta = max_abs - start
    div = num_candidates - 1
    step = delta / div
    ramp = np.arange(num_candidates, dtype=np.float64)
    # linspace scales the ramp by delta / div, or by 1 / div then delta
    # where that step underflows to zero (denormal ranges).
    grid = np.where((step == 0)[:, None], ramp / div * delta[:, None], ramp * step[:, None])
    grid += start[:, None]
    grid[:, -1] = max_abs
    return grid


class _TensorSearch:
    """One tensor's part of a batched clip search, up to its refinement.

    It keeps the tensor's nonzero rows (R, K), and for ``one_sided`` rows
    with columns where every row is zero, the other columns only, plus one
    zero buffer of full-width rows that :func:`lp_errors` takes each mean
    over, so its errors are those of the search over whole rows bit for
    bit.  Construction evaluates the candidate grid in one codec call (the
    rows repeated once per candidate) and picks each row's best candidate
    and the bracket around it; ``search`` lists the rows to refine, the
    others (``high <= low``) keep their candidate.
    """

    def __init__(
        self, rows: np.ndarray, one_sided: bool, num_bits: int, num_candidates: int
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if not np.isfinite(rows).all():
            raise ValueError("cannot choose a clipping range for NaN or infinite values")
        self.num_bits = num_bits
        self.p = lp_exponent_for_bits(num_bits)
        self.one_sided = one_sided
        self.clips = np.full(len(rows), 1e-8)
        max_abs = np.abs(rows).max(axis=1)
        self.live = np.flatnonzero(max_abs > 0)
        if self.live.size < len(rows):
            rows, max_abs = rows[self.live], max_abs[self.live]
        self.columns = self.full = grid_full = None
        if one_sided:
            nonzero = rows.any(axis=0)
            if not nonzero.all():
                # The grid runs every row once per candidate, the refinement
                # at most once, so it keeps only the smaller buffer.
                self.columns = np.flatnonzero(nonzero)
                self.full = np.zeros_like(rows)
                grid_full = np.zeros((len(rows) * num_candidates, rows.shape[1]))
                rows = rows[:, self.columns]
        self.rows = rows

        candidates = _candidate_grid(max_abs, num_candidates)
        errors = lp_errors(
            np.tile(rows, (num_candidates, 1)),
            candidates.T.ravel(),
            num_bits,
            self.p,
            one_sided,
            self.columns,
            grid_full,
        )
        best = np.argmin(errors.reshape(num_candidates, len(rows)), axis=0)
        row = np.arange(len(rows))
        self.chosen = candidates[row, best]
        low = candidates[row, np.maximum(best - 1, 0)]
        high = candidates[row, np.minimum(best + 1, num_candidates - 1)]
        self.search = np.flatnonzero(~(high <= low))
        self.low, self.high = low[self.search], high[self.search]
        self.xatol = max_abs[self.search] * 1e-3

    def errors(self, index: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The Lp errors of the searched rows ``index`` at clips ``x``."""
        index = self.search[index]
        rows = self.rows[index] if index.size < len(self.rows) else self.rows
        return lp_errors(rows, x, self.num_bits, self.p, self.one_sided, self.columns, self.full)

    def finish(self, refined: np.ndarray, converged: np.ndarray) -> np.ndarray:
        """Every row's clip, given the refinement of the searched rows."""
        search = self.search
        self.chosen[search] = np.maximum(np.where(converged, refined, self.chosen[search]), 1e-8)
        self.clips[self.live] = self.chosen
        return self.clips


class LAPQQuantizer(QuantizationMethod):
    """Per-tensor Lp-norm optimised clipping.

    Args:
        num_candidates: number of coarse clipping candidates evaluated before
            the scalar refinement (keeps the optimisation robust to local
            minima of the discrete rounding error).
    """

    key = "M3"
    name = "LAPQ"

    def __init__(self, num_candidates: int = 12) -> None:
        if num_candidates < 2:
            raise ValueError("num_candidates must be >= 2")
        self.num_candidates = num_candidates

    # ------------------------------------------------------------------ search
    def _optimise_clips(
        self, tensors: Sequence[tuple[np.ndarray, bool]], num_bits: int
    ) -> list[np.ndarray]:
        """The Lp-optimal clip of every row of each ``(rows, one_sided)`` tensor.

        Each tensor's rows are evaluated on that tensor's own columns
        (:class:`_TensorSearch`).  One lock-step refinement runs over the
        searched rows of all tensors, its objective handing each tensor the
        active rows that are its own.  ``quantization.lapq.refine_steps``
        adds each tensor's pass count: the passes a call with that tensor
        alone runs.
        """
        searches = [
            _TensorSearch(rows, one_sided, num_bits, self.num_candidates)
            for rows, one_sided in tensors
        ]
        observability.add("quantization.lapq.rows", sum(len(t.clips) for t in searches))
        offsets = np.cumsum([0] + [t.search.size for t in searches])
        refined = converged = steps = np.empty(0)
        if offsets[-1]:

            def objective(index: np.ndarray, x: np.ndarray) -> np.ndarray:
                cuts = np.searchsorted(index, offsets)
                return np.concatenate([
                    t.errors(index[lo:hi] - start, x[lo:hi])
                    for t, start, lo, hi in zip(searches, offsets, cuts[:-1], cuts[1:])
                    if lo < hi
                ])

            refined, converged, steps = _bounded_minimise(
                objective,
                np.concatenate([t.low for t in searches]),
                np.concatenate([t.high for t in searches]),
                np.concatenate([t.xatol for t in searches]),
            )
        passes = 0
        for t, lo, hi in zip(searches, offsets[:-1], offsets[1:]):
            t.finish(refined[lo:hi], converged[lo:hi])
            passes += int(steps[lo:hi].max(initial=0))
        observability.add("quantization.lapq.refine_steps", passes)
        return [t.clips for t in searches]

    # ----------------------------------------------------------------- weights
    def weight_params(
        self,
        weights: np.ndarray,
        num_bits: int,
        per_channel: bool = True,
        channel_axis: int = 0,
    ) -> QuantParams:
        return self.weight_params_many([weights], num_bits, per_channel, channel_axis)[0]

    def weight_params_many(
        self,
        tensors: Sequence[np.ndarray],
        num_bits: int,
        per_channel: bool = True,
        channel_axis: int = 0,
    ) -> list[QuantParams]:
        shaped = []
        for weights in tensors:
            weights = np.asarray(weights, dtype=np.float64)
            if per_channel and weights.ndim > 1:
                moved = np.moveaxis(weights, channel_axis, 0)
                shaped.append((moved.reshape(len(moved), -1), channel_axis))
            else:
                shaped.append((weights.reshape(1, -1), None))
        clips = self._optimise_clips([(rows, False) for rows, _ in shaped], num_bits)
        return [
            QuantParams.symmetric(clip, num_bits, channel_axis=axis)
            if axis is not None
            else QuantParams.symmetric(clip[0], num_bits)
            for clip, (_, axis) in zip(clips, shaped)
        ]

    # ------------------------------------------------------------- activations
    def activation_params(self, samples: np.ndarray, num_bits: int) -> QuantParams:
        return self.activation_params_many([samples], num_bits)[0]

    def activation_params_many(
        self, samples: Sequence[np.ndarray], num_bits: int
    ) -> list[QuantParams]:
        rows = [np.asarray(s, dtype=np.float64).reshape(1, -1) for s in samples]
        one_sided = [bool(r.min() >= 0.0) for r in rows]
        clips = self._optimise_clips(list(zip(rows, one_sided)), num_bits)
        return [
            QuantParams.from_range(0.0, clip[0], num_bits)
            if sided
            else QuantParams.symmetric(clip[0], num_bits)
            for clip, sided in zip(clips, one_sided)
        ]
