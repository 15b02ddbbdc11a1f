"""Distribution comparison and single-parameter inference.

The entire trajectory distribution is fit with one dimensionless
evolution parameter tau: a chi-square between the observed histogram and
a model histogram is scanned over a tau grid, the minimum refined
parabolically, and the error bar taken from the delta-chi2 = 100
convention (the conventional one-parameter delta-chi2 = 1 interval is
reported alongside; it is 10x smaller for a parabolic minimum).  The
scan fits one slice at a time, shortest slice time first.  Each slice
starts at a grid point and its two neighbours: the point nearest
tau_prev * t / t_prev, where a constant coupling (tau = g t) puts its
minimum, or the grid's second point for the first slice and any slice
at t <= 0 or right after one.  It steps outward by 1, 2, 4, ... points
while the minimum is on the edge of what it evaluated, then evaluates
only the points its minimum depends on, bisecting first the gap beside
the lower of the two values that bracket it.  No slice looks at the
whole grid first, so a deeper second dip can go unseen.

Model histograms come either from the closed-form no-relaxation
solution or from the Fokker-Planck solver.  Every generator is called
as ``gen(tau)`` for all slices or ``gen(tau, which)`` for the slice
indices in ``which`` only, in that order; the scan calls it with one
slice at a time.  A model carries no errors: the chi-square weights
each bin by the observed histogram's error alone.

With ideal synthetic data (constant coupling) the fitted tau(t) is a
straight line through the origin; the slower initial build-up seen in
real hardware has no counterpart here and is not reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DistributionSnapshot, require_memory
from .fokker_planck import FP_CELLS, _Solver, _edge_cells, _rebin, analytic_bin_masses

__all__ = [
    "FitResult",
    "chi2",
    "fit_tau",
    "default_tau_scan",
    "make_analytic_model_gen",
    "make_fp_model_gen",
]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single-slice tau fit.

    ``tau_error`` follows the delta-chi2 = 100 error-bar convention;
    ``tau_error_dchi2_1`` is the conventional one-parameter interval.
    ``at_edge`` flags a scan minimum on the grid boundary (widen the
    scan); ``err_bracketed`` records whether the delta-chi2 = 100
    crossings lie inside the scanned range (otherwise the quoted error
    is a parabolic extrapolation).  ``scan`` holds (tau, chi2) rows for
    the whole grid; chi2 is NaN where :func:`fit_tau` did not evaluate it.
    """

    tau_best: float
    chi2_min: float
    tau_error: float
    tau_error_dchi2_1: float
    n_bins: int
    scan: np.ndarray
    at_edge: bool
    err_bracketed: bool

    def __post_init__(self):
        self.scan.setflags(write=False)


def chi2(observed: DistributionSnapshot, model: DistributionSnapshot) -> float:
    """Chi-square of a model against identically binned observed data.

    Sum over bins of (obs - model)^2 / obs_err^2; the model's errors are
    not read.  Each boundary point mass adds one term, weighted by the
    observed mass error, whenever either side carries one.
    """
    if (observed.n_bins, observed.bin_width) != (model.n_bins, model.bin_width):
        raise ValueError("snapshots use different binnings")
    no_error = "observed errors must be positive in every compared bin and boundary mass"
    err2 = observed.errors**2
    if np.any(err2 <= 0.0):
        raise ValueError(no_error)
    total = float(((observed.density - model.density) ** 2 / err2).sum())
    for om, mm, oe in (
        (observed.mass0, model.mass0, observed.mass0_err),
        (observed.mass1, model.mass1, observed.mass1_err),
    ):
        if om == 0.0 and mm == 0.0:
            continue
        if oe**2 <= 0.0:
            raise ValueError(no_error)
        total += (om - mm) ** 2 / oe**2
    return total


def default_tau_scan(
    tau_min: float = 0.0, tau_max: float = 2.5, tau_step: float = 0.01
) -> np.ndarray:
    """The tau grid tau_min..tau_max (default 0 to 2.5 in steps of 0.01), refused
    before any allocation without memory for it and its check (four words a point)."""
    if not (0 <= tau_min < math.inf and math.isfinite(tau_max)):
        raise ValueError(f"need finite tau_min={tau_min!r} >= 0 and tau_max={tau_max!r}")
    if not 0 < tau_step < math.inf:
        raise ValueError(f"tau_step={tau_step!r} must be finite and > 0")
    n = int(round((tau_max - tau_min) / tau_step))
    require_memory(32 * (n + 1), f"a tau grid of {n + 1} points")
    return _check_scan(tau_min + tau_step * np.arange(n + 1))


def _require_scan_memory(n_slices: int, n_points: int) -> None:
    """Refuse scan tables, 16 bytes per tau point and slice, past the memory available."""
    require_memory(16 * n_points * n_slices,
                   f"a scan of {n_slices} slices at {n_points} tau points")


def _check_scan(scan) -> np.ndarray:
    """``scan`` as floats, if it has 3+ points and one increasing step."""
    scan = np.asarray(scan, dtype=float)
    if scan.size < 3:
        raise ValueError("scan grid needs at least 3 points")
    step = np.diff(scan)
    if not (step[0] > 0.0 and np.allclose(step, step[0], rtol=1e-9, atol=0.0)):
        raise ValueError("scan grid must be increasing with a uniform step")
    return scan


def _refine(scan: np.ndarray, c: np.ndarray) -> tuple[float, float, float, bool]:
    """Parabolic refinement around the discrete minimum.

    Returns (tau_best, chi2_min, curvature, at_edge); curvature is the
    coefficient a of chi2 ~ chi2_min + a (tau - tau_best)^2, or nan when
    the three-point parabola is degenerate.
    """
    j = int(np.nanargmin(c))
    if j == 0 or j == c.size - 1:
        return float(scan[j]), float(c[j]), math.nan, True
    h = float(scan[j + 1] - scan[j])
    d2 = c[j - 1] - 2.0 * c[j] + c[j + 1]
    if d2 <= 0.0:
        return float(scan[j]), float(c[j]), math.nan, False
    dx = 0.5 * (c[j - 1] - c[j + 1]) / d2
    tau_best = float(scan[j] + dx * h)
    chi2_min = float(c[j] - 0.25 * (c[j - 1] - c[j + 1]) * dx)
    a = d2 / (2.0 * h * h)
    return tau_best, chi2_min, float(a), False


def fit_tau(
    observed: Sequence[DistributionSnapshot],
    model_gen: Callable[..., Sequence[DistributionSnapshot]],
    scan: np.ndarray,
) -> list[FitResult]:
    """Fit the evolution parameter independently for every time slice.

    Parameters
    ----------
    observed : sequence of DistributionSnapshot
        One observed histogram per time slice.
    model_gen : callable
        ``model_gen(tau, which)`` returns the model snapshots at trial
        tau of the slice indices in the tuple ``which``; the scan passes
        one index at a time.
    scan : ndarray
        Trial tau grid, increasing with a uniform step (as
        :func:`default_tau_scan` makes); the parabolic refinement assumes
        one step size.

    Returns
    -------
    list of FitResult, one per slice.  A minimum on the scan edge is
    flagged in ``at_edge``, never silently interpolated.  The scan
    tables take two words per grid point and slice; without that much
    memory available the fit is refused before any model call.

    Notes
    -----
    Each slice's chi2 is assumed unimodal on the grid (non-increasing,
    then non-decreasing).  Slices are fitted one at a time in ascending
    ``observed[k].t`` (ties in index order), each through
    ``model_gen(tau, (k,))``.  A slice starts at a seed index and its
    two neighbours: the grid index nearest tau_prev * t / t_prev when it
    and the slice fitted before it both have t > 0, tau_prev being the
    earlier slice's tau_best, and index 1 otherwise.  A minimum on the
    edge of that seed steps outward by 1, 2, 4, ... points until a value
    rises.  The bracket then shrinks until the neighbours of its
    minimum, and all points up to the first larger value right of it,
    are evaluated; each evaluation bisects the gap on the side whose
    bracketing value is lower, and the other gap once that one is
    closed.  A side of the minimum on which no evaluated value reaches
    the evaluated minimum + 100 gets its grid end evaluated, its largest
    value under unimodality.  A slice whose evaluated values are not
    unimodal gets its whole grid evaluated.  Every field then equals
    that of the full scan.  No slice scans the whole grid first, so a
    deeper second dip that no evaluated value shows is missed.
    """
    scan = _check_scan(scan)
    n = scan.size
    _require_scan_memory(len(observed), n)
    results = [None] * len(observed)
    t_prev = tau_prev = 0.0
    for k in sorted(range(len(observed)), key=lambda k: observed[k].t):
        c, ok = np.full(n, np.nan), np.zeros(n, dtype=bool)

        def evaluate(j: int) -> None:  # called for this slice only
            models = model_gen(float(scan[j]), (k,))
            if len(models) != 1:
                raise ValueError("model_gen returned wrong number of slices")
            c[j] = chi2(observed[k], models[0])
            ok[j] = True

        t = observed[k].t
        j0 = 1  # unseeded: the grid's first three points
        if t > 0.0 and t_prev > 0.0:
            j0 = int(np.abs(scan - tau_prev * t / t_prev).argmin())
        for j in range(max(j0 - 1, 0), min(j0 + 2, n)):
            evaluate(j)
        _shrink(c, ok, evaluate)
        j = int(np.nanargmin(c))
        for side, end in ((c[: j + 1], 0), (c[j:], n - 1)):
            if not ok[end] and not np.any(side >= c[j] + 100.0):
                evaluate(end)
        d = np.diff(c[ok])
        rise = np.flatnonzero(d > 0.0)
        if rise.size and np.any(d[rise[0] :] < 0.0):  # not unimodal: scan the rest
            for j in np.flatnonzero(~ok):
                evaluate(int(j))
        tau_best, chi2_min, a, at_edge = _refine(scan, c)
        j, thresh = int(np.nanargmin(c)), chi2_min + 100.0
        results[k] = FitResult(
            tau_best=tau_best,
            chi2_min=chi2_min,
            tau_error=math.inf if math.isnan(a) else math.sqrt(100.0 / a),
            tau_error_dchi2_1=math.inf if math.isnan(a) else math.sqrt(1.0 / a),
            n_bins=observed[k].n_bins,
            scan=np.column_stack([scan, c]),
            at_edge=at_edge,
            err_bracketed=bool(np.any(c[: j + 1] >= thresh) and np.any(c[j:] >= thresh)),
        )
        t_prev, tau_prev = t, tau_best
    return results


def _shrink(c: np.ndarray, ok: np.ndarray, evaluate: Callable[[int], None]) -> None:
    """Evaluate points of one slice's chi2 column ``c`` (evaluated where
    ``ok``) until the neighbours of its minimum, and every point up to
    the first larger value right of it, are evaluated.  While the
    minimum is the outermost evaluated point on a side short of the grid
    end (a seed's edge), step outward from it by 1, 2, 4, ... points
    until a value rises; only then bisect."""
    n, step = c.size, 1
    while True:
        idx = np.flatnonzero(ok)
        i = int(np.argmin(c[idx]))
        j, lo = idx[i], (idx[i - 1] if i > 0 else -1)
        out = 1 if i == idx.size - 1 and j < n - 1 else -1 if i == 0 and j > 0 else 0
        if out:
            evaluate(min(max(j + out * step, 0), n - 1))
            step *= 2
            continue
        right = idx[i + 1 :]
        hi = right[c[right] > c[j]][:1]  # a plateau at c[j] may hide a lower value
        left_gap = np.arange(lo + 1, j)
        right_gap = j + 1 + np.flatnonzero(~ok[j + 1 : hi[0] if hi.size else n])
        # bisect first beside the lower bracketing value (a right side
        # with no larger value is a plateau at c[j]): the minimum more
        # likely lies there, and the other gap then shrinks toward it
        right_first = not hi.size or (lo >= 0 and c[hi[0]] < c[lo])
        first, second = (right_gap, left_gap) if right_first else (left_gap, right_gap)
        gap = first if first.size else second
        if gap.size == 0:
            return
        evaluate(int(gap[gap.size // 2]))


# ---------------------------------------------------------------------------
# model-histogram generators


def make_analytic_model_gen(
    x0: float, n_slices: int, n_bins: int = 100, bin_width: float = 0.01
) -> Callable[..., list[DistributionSnapshot]]:
    """Model generator from the closed-form no-relaxation solution.

    The distribution depends on tau only, so every slice shares one
    snapshot per trial value.  Bin masses are exact integrals, with zero
    model errors.  ``gen(tau, which)`` returns one copy per index in
    ``which`` instead of ``n_slices``.  An x0 of 0 or 1 is a ValueError:
    at an eigenstate the distribution does not depend on tau.
    """
    if x0 in (0.0, 1.0):
        raise ValueError(f"x0={x0!r} is an eigenstate, where the closed form does not "
                         "depend on tau")
    edges = np.arange(n_bins + 1) * bin_width

    def gen(tau: float, which: Sequence[int] | None = None) -> list[DistributionSnapshot]:
        snap = DistributionSnapshot(
            n_bins=n_bins,
            bin_width=bin_width,
            density=analytic_bin_masses(x0, tau, edges),
            errors=np.zeros(n_bins),
            mass0=0.0,
            mass1=0.0,
            t=0.0,
        )
        return [snap] * (n_slices if which is None else len(which))

    return gen


def make_fp_model_gen(
    x0: float,
    T1: float,
    times: Sequence[float],
    n_bins: int = 100,
    bin_width: float = 0.01,
    n_cells: int = FP_CELLS,
    dt: float | None = None,
) -> Callable[..., list[DistributionSnapshot]]:
    """Model generator backed by the Fokker-Planck solver.

    For slice time t and trial tau the model is the density evolved with
    the constant coupling g = tau/t up to t, including relaxation, on
    ``n_cells`` cells of the solver's z range [-12, 12].  Every
    slice runs on one solver, so the grid, the start state, the cells
    holding the rho00 bin edges and the relaxation operators are built
    once here; a call builds only the diffusion of each slice it solves and
    runs its substep loop.  The generator holds three words per cell for
    each distinct relaxation exponent, two per slice at most.
    ``gen(tau, which)`` solves only the slices ``times[k]`` for k in
    ``which``, bitwise equal to the matching entries of ``gen(tau)``.
    """
    times = [float(t) for t in times]
    if not all(0 < t < math.inf for t in times):
        raise ValueError(f"slice times must be finite and > 0, got {times!r}")
    solver = _Solver(x0, T1, n_cells=n_cells, dt=dt)
    for t in times:  # every slice's relaxations up front: a solve builds only its diffusion
        solver.interval(t)
    edge_cells = _edge_cells(solver.nodes, n_bins, bin_width)

    def gen(tau: float, which: Sequence[int] | None = None) -> list[DistributionSnapshot]:
        ks = range(len(times)) if which is None else which
        return [_rebin(solver.run(tau / times[k], [times[k]])[0], edge_cells, n_bins, bin_width)
                for k in ks]

    return gen
