"""Deterministic evolution of the trajectory probability density.

Without relaxation the density in the log-odds coordinate is known in
closed form: starting from a point x0, it is a pair of Gaussians with
centers ``atanh(2 x0 - 1) +- tau``, common variance ``tau`` and areas
``(x0, 1 - x0)``.  :func:`analytic_bin_masses` gives that solution's
exact masses on rho00 bins.

With relaxation the density is evolved numerically by
:func:`solve_fp`.  The solver works on a uniform z grid (constant
diffusion coefficient, no degenerate boundaries) and splits each step
symmetrically into two *exactly integrable* sub-evolutions, mirroring
the Monte Carlo stepper:

* diffusion over an interval h spreads each cell with the exact
  two-Gaussian transition kernel (centers +-g*h, variance g*h),
  cell-integrated so mass is conserved identically; the branch weights
  of every source cell are corrected so the discrete population mean is
  preserved to rounding, which keeps the Born-rule martingale exact;
* relaxation is a deterministic monotone map of z (the Monte Carlo
  kernel on the odds e^{2z}), applied as an exact pushforward; each
  cell's mass is re-deposited between the two enclosing grid cells with
  the split chosen in population space, so the mean population follows
  rho11 -> rho11*e^-delta to rounding.

Both sub-evolutions are linear operators fixed by the grid and the
substep size; only the diffusion depends on g.  A :class:`_Solver`
holds the grid, the start state and the relaxations (deposit cells and
splits, one per exponent); :meth:`_Solver.run` builds each interval's
diffusion (kernel spectra, branch weights) for one g and runs its
substep loop, so the fit's model generator builds the grid and the
relaxations once for all trial tau.  At infinite T1 the loop takes one
substep of the interval with zero relaxation.

Relaxation maps every node, and the re-entering rho00 = 0 bucket, to
``z >= log(expm1(delta))/2``, so it leaves every cell below its lowest
landing cell (its floor) exactly 0.  Every diffusion follows a
relaxation whose floor is at or above the interval's half-step floor
``k0``, so it spreads only the window [k0, n): about 5000 of 8192 cells
at T1 = 20 us and a substep of 0.2 us.  It transforms its two kernels
once, at ``n_fft = next_fast_len(size, real=True)`` for the ``size`` of
a full convolution with the window; the branch means of its weights are
correlations through the conjugate spectra, and each substep makes one
two-row forward transform of the weighted branches and one inverse
transform of their sum in the frequency domain, clamped at 0 once.  The
cells below the window's reach stay exactly 0, and the deposit after a
diffusion skips them, with a bitwise unchanged result.

Mass leaving the grid ends is accumulated in point masses at the
eigenstates; with finite T1 each relaxation re-injects the rho00 = 0
bucket at its precomputed split (the left boundary is only absorbing
without relaxation).

An upwind finite-volume drift scheme was considered and rejected: its
O(dz) numerical diffusion moves the population mean by ~1e-3 per unit
tau at the default resolution, which is incompatible with keeping the
martingale flat to 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import expit, ndtr

from .core import Z_CAP, DistributionSnapshot, check_binning, to_logodds, to_rho
from .sde import _DELTA_MAX, _relax

__all__ = [
    "FPSolverError",
    "DensityGrid",
    "analytic_bin_masses",
    "solve_fp",
    "fp_snapshot_to_bins",
]

FP_CELLS = 8192
FP_Z_MIN = -12.0
FP_Z_MAX = 12.0

_MASS_TOL = 1e-8
_NEG_TOL = -1e-12
# substeps one interval may take: about 20 s at 8192 cells
_MAX_SUBSTEPS = 100_000
# Gaussian kernels are truncated at this many sigma; the cut mass
# (~2e-17 per side) is routed to the boundary buckets, not dropped.
_KERNEL_TAIL = 8.5


class FPSolverError(RuntimeError):
    """Raised when the density evolution violates its scheme contract."""


@dataclass(frozen=True)
class DensityGrid:
    """Cell-mass representation of the trajectory density at one time.

    ``weights[i]`` is the probability mass in the cell centered at the
    log-odds node ``nodes[i]`` (a uniform z grid); ``mass0`` / ``mass1``
    are point masses at the eigenstates rho00 = 0 / 1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    mass0: float
    mass1: float
    t: float

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum() + self.mass0 + self.mass1)

    @property
    def mean_rho(self) -> float:
        """Population mean including the boundary masses."""
        return float((to_rho(self.nodes) * self.weights).sum() + self.mass1)


def analytic_bin_masses(x0: float, tau: float, edges: np.ndarray) -> np.ndarray:
    """Closed-form no-relaxation mass between consecutive rho00 bin
    edges after evolution tau from the point x0.

    In z the density is two Gaussians centered at atanh(2 x0 - 1) +- tau
    with common variance tau; the branch weights are the initial
    populations (x0 toward +, 1-x0 toward -), which is the Born rule.
    At tau = 0 all mass sits at x0; an x0 on an edge counts toward the
    bin above it, as in the ``[k*w, (k+1)*w)`` bins of
    :func:`qtraj.core.build_histogram`.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError("x0 must lie in [0, 1]")
    e = np.asarray(edges, dtype=float)
    z = np.empty_like(e)
    inner = (e > 0.0) & (e < 1.0)
    z[inner] = to_logodds(e[inner])
    z[e <= 0.0] = -np.inf
    z[e >= 1.0] = np.inf
    z0 = to_logodds(x0)
    if tau <= 0:
        cdf = (x0 * (z > z0 + tau) + (1.0 - x0) * (z > z0 - tau)).astype(float)
    else:
        s = math.sqrt(tau)
        cdf = x0 * ndtr((z - (z0 + tau)) / s) + (1.0 - x0) * ndtr((z - (z0 - tau)) / s)
    return np.diff(cdf)


# ---------------------------------------------------------------------------
# numerical solver


class _Solver:
    """One grid (``n_cells`` cells on z in [-12, 12]), the start state on
    it (the delta at x0, deposited mean-exactly), the relaxation operators
    (one per exponent) and the working state ``w``, ``mass0``, ``mass1``
    of a run.  The arguments but g and ``t_grid`` are checked once here;
    every :meth:`run` shares the operators and the deposit scratch, so
    runs must not overlap.
    """

    def __init__(self, x0: float, T1: float, *, n_cells: int = FP_CELLS, dt: float | None = None):
        if not T1 > 0:
            raise ValueError("T1 must be > 0")
        if dt is not None and not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt={dt!r} must be finite and > 0")
        if n_cells < 8:
            raise ValueError("n_cells must be >= 8")
        self.T1, self.dt = T1, dt
        # cell centers of the uniform z grid, shared by every snapshot
        self.nodes = FP_Z_MIN + (np.arange(n_cells) + 0.5) * ((FP_Z_MAX - FP_Z_MIN) / n_cells)
        self.nodes.setflags(write=False)
        self.dz = float(self.nodes[1] - self.nodes[0])
        # population-space views of the cell centers, used by the
        # mean-preserving deposits and branch reweighting
        self.r11 = expit(-2.0 * self.nodes)
        self.phi = np.tanh(self.nodes)
        self.r00 = expit(2.0 * self.nodes)  # the branch weight where the means tie
        x0 = float(x0)
        z0 = to_logodds(x0)
        if not (FP_Z_MIN < z0 < FP_Z_MAX):
            raise ValueError("x0 maps outside the z grid")
        (k,), (alpha,), (above,) = self.land(np.array([z0]), np.array([1.0 - x0]))
        # an x0 in the last half cell starts in the rho00 = 1 bucket
        self.w0 = np.bincount([k, k + 1], [0.0, 0.0] if above else [1.0 - alpha, alpha],
                              minlength=n_cells)
        self.w0.setflags(write=False)  # runs replace w, never write into it
        self.mass1_0 = float(above)
        self.total0 = self.w0.sum() + self.mass1_0
        self.scratch = np.empty(2 * n_cells + 2)
        self.relaxations: dict[float, _Relaxation] = {}

    def run(self, g: float, t_grid) -> list[DensityGrid]:
        """The snapshots at coupling g and times ``t_grid`` from the start
        state, each checked for mass drift and negative density.  Each
        interval runs one substep loop with its relaxations taken from
        the cache and its diffusion built for g."""
        if not (g >= 0 and math.isfinite(g)):
            raise ValueError("g must be finite and >= 0")
        t_grid = np.asarray(t_grid, dtype=float)
        if not np.all(np.isfinite(t_grid)):
            raise ValueError(f"t_grid entries must be finite, got {t_grid.tolist()!r}")
        if np.any(np.diff(t_grid) < 0) or np.any(t_grid < -1e-12):
            raise ValueError("t_grid must be nondecreasing and start at/after 0")
        # every interval's substep count is checked before the first substep
        spans = np.diff(t_grid, prepend=0.0)
        plans = [self.interval(float(span)) if span > 0.0 else None for span in spans]
        self.w, self.mass0, self.mass1 = self.w0, 0.0, self.mass1_0
        out: list[DensityGrid] = []
        t = 0.0
        for t_next, plan in zip(t_grid, plans):
            if plan is not None:
                n_sub, h, half, relax = plan
                # the diffusion spreads the cells from the half step's floor,
                # the lowest the interval's deposits write; the deposits
                # after it skip the cells below its own floor, which it
                # leaves 0
                diffuse = _Diffusion(self, g * h, half.floor)
                half.apply(self)
                steps = relax.window(diffuse.floor), half.window(diffuse.floor)
                for j in range(n_sub):
                    diffuse.apply(self)
                    last = j == n_sub - 1
                    (half if last else relax).apply(self, *steps[last])
                t = float(t_next)
            wmin = self.w.min()
            if wmin < _NEG_TOL:
                raise FPSolverError(f"negative density {wmin:.3e} at t = {t}")
            drift = abs(self.w.sum() + self.mass0 + self.mass1 - self.total0)
            if drift > _MASS_TOL:
                raise FPSolverError(f"mass drift {drift:.3e} at t = {t}")
            out.append(DensityGrid(nodes=self.nodes, weights=self.w.copy(),
                                   mass0=self.mass0, mass1=self.mass1, t=t))
        return out

    def land(self, y: np.ndarray, r11_target: np.ndarray):
        """Where point masses at z positions y land on the grid.

        Returns the lower enclosing cell ``k``, the fraction ``alpha``
        that goes to cell k + 1, and the mask ``above`` of positions
        beyond the last cell (they go to the rho00 = 1 bucket).  The split
        is chosen in population space (r11 is monotone in z), so a
        deposit's population mean equals the exact one.  A position below
        the first cell lands wholly in cell 0 (``alpha = 0``).
        """
        k = np.floor((y - self.nodes[0]) / self.dz).astype(int)
        below = k < 0
        above = k >= self.nodes.size - 1
        np.clip(k, 0, self.nodes.size - 2, out=k)
        denom = self.r11[k] - self.r11[k + 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha = (self.r11[k] - r11_target) / denom
        alpha = np.clip(np.where(denom > 0.0, alpha, 0.5), 0.0, 1.0)
        alpha[below] = 0.0
        return k, alpha, above

    def interval(self, span: float):
        """Substep count and length of an interval of length ``span`` > 0,
        and its half- and full-step relaxations, built on first use.  An
        interval of more than ``_MAX_SUBSTEPS`` substeps is a ValueError."""
        # an interval shorter than sub is one substep, as is any at T1 = inf
        sub = self.T1 / 100.0 if self.dt is None or math.isinf(self.T1) else self.dt
        if span > _MAX_SUBSTEPS * sub:  # a product, as T1/100 may round to 0
            count = span / sub if sub > 0.0 else math.inf
            raise ValueError(f"an interval of length {span!r} at T1 = {self.T1!r} needs "
                             f"{count:.6g} substeps of {sub!r}, more than {_MAX_SUBSTEPS}")
        n_sub = max(1, int(math.ceil(span / sub - 1e-12)))
        h = span / n_sub
        delta = h / self.T1
        cache = self.relaxations
        half, relax = (cache.get(d) or cache.setdefault(d, _Relaxation(self, d))
                       for d in (0.5 * delta, delta if n_sub > 1 else 0.5 * delta))
        return n_sub, h, half, relax


class _Relaxation:
    """Exact pushforward of rho11 -> rho11*e^-delta on one grid.

    Where each node lands and how its mass splits between the two
    enclosing cells depend on the grid and delta only, as does the
    re-entry point of the rho00 = 0 bucket (rho11 = e^-delta), so all of
    them are computed once.  Relaxation is monotone and moves every node
    up in z, so the nodes landing beyond the last cell (into the rho00 = 1
    bucket) are a tail of the grid; only the kept nodes' landing index
    and split are stored.  One ``bincount`` deposits lower shares, upper
    shares, then the re-entry: per cell, the order of adding the points
    one at a time.  It writes no cell below ``floor``, the lowest landing
    cell (the re-entry's, at z = log(expm1(delta))/2, or cell 0 when that
    lies below the grid), so a deposit leaves every cell below it exactly
    0.
    """

    def __init__(self, s: _Solver, delta: float):
        self.delta, self.floor = delta, 0
        if delta == 0.0:
            return
        fac = math.exp(-delta)
        # landing positions z' = log(relax(e^{2z}))/2 through the Monte
        # Carlo's odds map, nodes snapped to rho00 = 1 landing on the cap;
        # the rho00 = 0 bucket re-enters at relax(0) = expm1(delta), or on
        # the cap past exp's range
        y = np.minimum(0.5 * np.log(_relax(np.exp(2.0 * s.nodes), delta)), Z_CAP)
        k, alpha, above = s.land(y, s.r11 * fac)
        m = above.size - int(above.sum())
        yr = 0.5 * math.log(math.expm1(delta)) if delta <= _DELTA_MAX else Z_CAP
        (kr,), (self.reentry_alpha,), (self.reentry_above,) = s.land(
            np.array([yr]), np.array([fac]))
        self.index = np.concatenate((k[:m], k[:m] + 1, [kr, kr + 1]))
        self.alpha = alpha[:m]
        self.floor = int(self.index.min())

    def window(self, f: int) -> tuple[int, np.ndarray | None]:
        """``(f, index)`` for a deposit that skips the sources below cell
        f, which must hold exactly 0: the landing index of the others and
        the re-entry.  Each cell keeps its non-zero addends in the same
        order, so such a deposit is bitwise the full one.  A run holds
        the index only while it lasts."""
        if self.delta == 0.0:
            return 0, None
        m = self.alpha.size
        f = min(f, m)
        return f, np.concatenate((self.index[f:m], self.index[m + f :])) if f else self.index

    def apply(self, s: _Solver, f: int = 0, index: np.ndarray | None = None) -> None:
        """Relax ``s``; a :meth:`window` ``(f, index)`` skips the sources
        below cell f."""
        if self.delta == 0.0:
            return
        m, w = self.alpha.size, s.w
        s.mass1 += float(w[m:][w[m:] > 0.0].sum())
        k = m - f
        value = s.scratch[: 2 * k + 2]
        np.subtract(1.0, self.alpha[f:], out=value[:k])
        value[:k] *= w[f:m]
        np.multiply(w[f:m], self.alpha[f:], out=value[k : 2 * k])
        n = 2 * k
        if s.mass0 > 0.0:
            if self.reentry_above:
                s.mass1 += s.mass0
            else:
                value[n:] = s.mass0 * (1.0 - self.reentry_alpha), s.mass0 * self.reentry_alpha
                n += 2
            s.mass0 = 0.0
        # float even when every source went to the rho00 = 1 bucket (n = 0)
        s.w = np.bincount((self.index if index is None else index)[:n], value[:n],
                          minlength=w.size).astype(float, copy=False)


class _Diffusion:
    """Exact two-Gaussian spreading over evolution interval kappa of a
    density that is exactly 0 below cell ``k0``.

    The kernel pair (one row per branch), its truncated tails and the
    mean-preserving branch weights depend on the grid, kappa and k0 only,
    so they are built once, from the kernel spectra at ``n_fft``; they,
    and both transforms, cover the window [k0, n) of the grid.  Each
    application transforms the two weighted branches as the two rows of
    the zero-padded buffer ``pad``, adds their products with the spectra
    and transforms the sum back once.  It leaves every cell below
    ``floor = max(k0 + lo, 0)`` exactly 0, lo being the kernel's lowest
    offset.
    """

    def __init__(self, s: _Solver, kappa: float, k0: int):
        self.kappa, self.k0, self.floor = kappa, k0, 0
        if kappa == 0.0:
            return
        sig = math.sqrt(kappa)
        lo = int(math.floor((-kappa - _KERNEL_TAIL * sig) / s.dz)) - 1
        hi = int(math.ceil((kappa + _KERNEL_TAIL * sig) / s.dz)) + 1
        edges_rel = (np.arange(lo, hi + 2) - 0.5) * s.dz

        # rows: the branch centered at +kappa, then the one at -kappa; a
        # full convolution with the window has n + hi - lo points
        n = s.nodes.size - k0
        self.size, self.n_fft = n + hi - lo, next_fast_len(n + hi - lo, real=True)
        cdf = ndtr((edges_rel - np.array([[kappa], [-kappa]])) / sig)
        self.spectra = rfft(np.diff(cdf), self.n_fft)
        self.tail_lo, self.tail_hi = cdf[:, 0], 1.0 - cdf[:, -1]

        # discrete post-step population means of each branch, the "valid"
        # correlations of the kernels with phi on the window's reach
        # [k0 + lo, n + hi); beyond the grid the population saturates at
        # the eigenstates (+-1 in phi)
        a = k0 + lo
        phi_ext = np.concatenate((np.full(max(-a, 0), -1.0), s.phi[max(a, 0) :], np.ones(hi)))
        corr = irfft(rfft(phi_ext, self.n_fft) * self.spectra.conj(), self.n_fft)
        mp, mm = corr[:, :n] - self.tail_lo[:, None] + self.tail_hi[:, None]

        # branch weights, corrected so the discrete mean is conserved
        denom = mp - mm
        with np.errstate(invalid="ignore", divide="ignore"):
            xt = (s.phi[k0:] - mm) / denom
        self.xt = np.clip(np.where(np.abs(denom) > 1e-9, xt, s.r00[k0:]), 0.0, 1.0)
        self.lo, self.floor = lo, max(a, 0)
        self.pad = np.zeros((2, self.n_fft))

    def apply(self, s: _Solver) -> None:
        if self.kappa == 0.0:
            return
        n, k0, pre = s.nodes.size, self.k0, self.floor
        w = s.w[k0:]
        wp, wm = self.pad[:, : n - k0]  # the padding past the window stays zero
        np.multiply(self.xt, w, out=wp)
        np.subtract(w, wp, out=wm)
        spec = rfft(self.pad)
        spec *= self.spectra
        spec[0] += spec[1]
        # the two branches' sum, clamped at 0 once, after ``pre`` empty
        # cells: full[j] is the mass landing on grid index j + min(k0 + lo,
        # 0), so the grid is full[b : b + n] and the rest is past its ends
        full = np.empty(pre + self.size)
        full[:pre] = 0.0
        np.maximum(irfft(spec[0], self.n_fft)[: self.size], 0.0, out=full[pre:])
        b = pre - k0 - self.lo
        s.w = full[b : b + n]
        s.mass0 += float(full[:b].sum())
        s.mass1 += float(full[b + n :].sum())
        # truncated kernel tails (couple of 1e-17) go to the buckets too
        sp, sm = wp.sum(), wm.sum()
        s.mass0 += float(sp * self.tail_lo[0] + sm * self.tail_lo[1])
        s.mass1 += float(sp * self.tail_hi[0] + sm * self.tail_hi[1])


def solve_fp(x0: float, g: float, T1: float, t_grid, *,
             dt: float | None = None) -> list[DensityGrid]:
    """Evolve the trajectory density and snapshot it at given times.

    The density lives on 8192 cells of the log-odds range z in [-12, 12]
    (``FP_CELLS``, ``FP_Z_MIN``, ``FP_Z_MAX``).

    Parameters
    ----------
    x0 : float
        Initial population rho00 in [0, 1]; the delta initial condition
        at t = 0 is deposited mean-exactly on the grid.
    g : float
        Measurement coupling (1/time), finite and >= 0.
    T1 : float
        Relaxation time; ``math.inf`` for pure diffusion.
    t_grid : sequence of float
        Nondecreasing finite snapshot times, all >= 0.
    dt : float, optional
        Substep duration with finite T1 (finite and > 0), default
        T1/100; an interval no longer than it is one substep.
        Each interval between snapshot times runs one substep loop with
        its operators built once; at infinite T1 that loop takes one
        substep of the whole interval with zero relaxation, whatever dt
        is.  Memory beyond the grid is one interval's diffusion on its
        window, the landing index of that interval's two deposits on
        the window (two words per window cell each, freed when the run
        ends) and, per distinct relaxation exponent, a landing index and
        split of three words per cell.

    Returns
    -------
    list of DensityGrid
        One snapshot per entry of t_grid.

    Raises
    ------
    ValueError
        If an interval between snapshot times needs more than 1e5
        substeps; this is checked before the first substep.
    FPSolverError
        If mass conservation drifts beyond 1e-8 or densities go negative
        beyond -1e-12.
    """
    return _Solver(x0, T1, dt=dt).run(g, t_grid)


def _edge_cells(nodes: np.ndarray, n_bins: int, bin_width: float):
    """``(k, frac, cell_bin)`` of a uniform z grid: rho00 bin edge b
    (``b * bin_width``, at most 1) lies ``frac[b]`` of the way up cell
    ``k[b]``, at ``(0, 0)`` or ``(n - 1, 1)`` off the grid; cell j goes
    whole to bin ``cell_bin[j]``, that of the last edge at or below it."""
    check_binning(n_bins, bin_width)
    half = 0.5 * float(np.diff(nodes).mean())
    lo_c, hi_c = nodes - half, nodes + half
    z = to_logodds(np.minimum(np.arange(n_bins + 1) * bin_width, 1.0))
    k = np.clip(np.searchsorted(lo_c, z, side="right") - 1, 0, nodes.size - 1)
    frac = np.clip((z - lo_c[k]) / (hi_c[k] - lo_c[k]), 0.0, 1.0)
    return k, frac, np.searchsorted(k, np.arange(nodes.size), side="right") - 1


def _rebin(grid: DensityGrid, edge_cells, n_bins: int, bin_width: float) -> DistributionSnapshot:
    """Bin the grid's weights at the :func:`_edge_cells` of its nodes: bin
    b gets its whole cells, less the part of cell ``k[b]`` below edge b,
    plus the part of cell ``k[b + 1]`` below edge b + 1."""
    k, frac, cell_bin = edge_cells
    w = grid.weights
    part = frac * w[k]
    whole = np.bincount(cell_bin, w, minlength=n_bins + 1)[:n_bins]
    return DistributionSnapshot(
        n_bins=n_bins,
        bin_width=bin_width,
        density=whole - part[:-1] + part[1:],
        errors=np.zeros(n_bins),
        mass0=grid.mass0,
        mass1=grid.mass1,
        t=grid.t,
    )


def fp_snapshot_to_bins(
    grid: DensityGrid,
    n_bins: int = 100,
    bin_width: float = 0.01,
) -> DistributionSnapshot:
    """Conservatively rebin a density grid onto uniform rho00 bins.

    Each cell's mass is uniform in z: a bin gets the cells between its
    two edges whole, and the parts of the edges' cells inside it.
    Boundary point masses are carried through.  The result has zero
    per-bin errors (it is a model, not data).
    """
    return _rebin(grid, _edge_cells(grid.nodes, n_bins, bin_width), n_bins, bin_width)
