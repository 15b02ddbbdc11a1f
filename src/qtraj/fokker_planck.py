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
  kernel), applied as an exact pushforward; each cell's mass is
  re-deposited between the two enclosing grid cells with the split
  chosen in population space, so the mean population follows
  rho11 -> rho11*e^-delta to rounding.

Both sub-evolutions are linear operators fixed by the grid and the
substep size, so :func:`solve_fp` runs one substep loop per ``t_grid``
interval with its operators (kernels and their FFT spectra, branch
weights, deposit cells and splits) built once; at infinite T1 the loop
takes one substep of the interval with zero relaxation.  Every
convolution goes through one real-FFT helper, :func:`_fft_convolve`,
padded to ``next_fast_len(size, real=True)``.

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

from .core import DistributionSnapshot, bin_index, check_binning, to_logodds, to_rho
from .sde import _relax_z

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
    bin below it.
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
        cdf = (x0 * (z >= z0 + tau) + (1.0 - x0) * (z >= z0 - tau)).astype(float)
    else:
        s = math.sqrt(tau)
        cdf = x0 * ndtr((z - (z0 + tau)) / s) + (1.0 - x0) * ndtr((z - (z0 - tau)) / s)
    return np.diff(cdf)


# ---------------------------------------------------------------------------
# numerical solver


def _grid_nodes(z_min: float, z_max: float, n_cells: int) -> np.ndarray:
    """Cell centers of the uniform z grid of a delta initial condition."""
    dz = (z_max - z_min) / n_cells
    return z_min + (np.arange(n_cells) + 0.5) * dz


class _Solver:
    """Working state of one solve: grid, cell masses, eigenstate masses."""

    def __init__(self, z_min: float, z_max: float, n_cells: int):
        self.nodes = _grid_nodes(z_min, z_max, n_cells)
        self.dz = float(self.nodes[1] - self.nodes[0])
        self.w = np.zeros(n_cells)
        self.mass0 = self.mass1 = 0.0
        # population-space views of the cell centers, used by the
        # mean-preserving deposits and branch reweighting
        self.r11 = expit(-2.0 * self.nodes)
        self.phi = np.tanh(self.nodes)

    # -- deposits ----------------------------------------------------------

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

    def deposit(self, *drops) -> None:
        """Replace the cell masses by point masses dropped onto empty cells.

        Each drop is a :meth:`land` result and the masses of its points;
        points without mass are skipped.  Mass beyond the last cell goes
        to the rho00 = 1 bucket; one ``bincount`` adds the rest, drop
        after drop, lower shares before upper shares, which per cell is
        the order of adding the points one at a time.
        """
        index, value = [], []
        for (k, alpha, above), mass in drops:
            live = mass > 0.0
            up = live & above
            if np.any(up):
                self.mass1 += float(mass[up].sum())
            live ^= up
            k, alpha, mass = k[live], alpha[live], mass[live]
            index += (k, k + 1)
            value += (mass * (1.0 - alpha), mass * alpha)
        self.w = np.bincount(np.concatenate(index), np.concatenate(value),
                             minlength=self.nodes.size)


class _Relaxation:
    """Exact pushforward of rho11 -> rho11*e^-delta on one grid.

    Where each node lands and how its mass splits between the two
    enclosing cells depend on the grid and delta only, as does the
    re-entry point of the rho00 = 0 bucket (rho11 = e^-delta), so all of
    them are computed once; each application deposits the cells holding
    mass, then the bucket, in one :meth:`_Solver.deposit`.
    """

    def __init__(self, s: _Solver, delta: float):
        self.delta = delta
        if delta == 0.0:
            return
        fac = math.exp(-delta)
        # relaxation moves every node up in z, so none lands below cell 0
        self.landing = s.land(_relax_z(s.nodes, delta), s.r11 * fac)
        self.reentry = s.land(np.array([0.5 * math.log(math.expm1(delta))]), np.array([fac]))

    def apply(self, s: _Solver) -> None:
        if self.delta == 0.0:
            return
        drops = [(self.landing, s.w)]
        if s.mass0 > 0.0:
            drops.append((self.reentry, np.array([s.mass0])))
            s.mass0 = 0.0
        s.deposit(*drops)


class _Diffusion:
    """Exact two-Gaussian spreading over evolution interval kappa.

    The kernel pair, its truncated tails and the mean-preserving branch
    weights depend on the grid and kappa only, so they are built once,
    with the kernel spectra.  Each application then convolves the two
    weighted branches.
    """

    def __init__(self, s: _Solver, kappa: float):
        self.kappa = kappa
        if kappa == 0.0:
            return
        sig = math.sqrt(kappa)
        lo = int(math.floor((-kappa - _KERNEL_TAIL * sig) / s.dz)) - 1
        hi = int(math.ceil((kappa + _KERNEL_TAIL * sig) / s.dz)) + 1
        edges_rel = (np.arange(lo, hi + 2) - 0.5) * s.dz
        n = s.nodes.size

        def branch_kernel(shift):
            cdf = ndtr((edges_rel - shift) / sig)
            return np.diff(cdf), float(cdf[0]), float(1.0 - cdf[-1])

        kp, self.kp_tail_lo, self.kp_tail_hi = branch_kernel(+kappa)
        km, self.km_tail_lo, self.km_tail_hi = branch_kernel(-kappa)

        # discrete post-step population means of each branch; beyond the
        # grid the population saturates at the eigenstates (+-1 in phi)
        phi_ext = np.concatenate((np.full(-lo, -1.0), s.phi, np.ones(hi)))
        mp = _correlate(phi_ext, kp) - self.kp_tail_lo + self.kp_tail_hi
        mm = _correlate(phi_ext, km) - self.km_tail_lo + self.km_tail_hi

        # branch weights, corrected so the discrete mean is conserved
        denom = mp - mm
        with np.errstate(invalid="ignore", divide="ignore"):
            xt = (s.phi - mm) / denom
        xt = np.where(np.abs(denom) > 1e-9, xt, expit(2.0 * s.nodes))
        self.xt = np.clip(xt, 0.0, 1.0)

        self.lo = lo
        self.kernels = (kp, km)
        # at the length _fft_convolve picks for a grid-sized input
        fft_len = next_fast_len(n + kp.size - 1, real=True)
        self.spectra = (rfft(kp, fft_len), rfft(km, fft_len))

    def _convolve(self, a: np.ndarray, branch: int) -> np.ndarray:
        k = self.kernels[branch]
        return np.maximum(_fft_convolve(a, k, self.spectra[branch]), 0.0)

    def apply(self, s: _Solver) -> None:
        if self.kappa == 0.0:
            return
        n = s.nodes.size
        lo = self.lo
        wp = self.xt * s.w
        wm = s.w - wp
        full = self._convolve(wp, 0) + self._convolve(wm, 1)
        # full[j'] is the mass landing on grid index j = j' + lo
        j_lo = max(0, -lo)          # first j' on the grid
        j_hi = min(full.size, n - lo)  # one past the last j' on the grid
        s.w = np.zeros(n)
        s.w[j_lo + lo : j_hi + lo] = full[j_lo:j_hi]
        s.mass0 += float(full[:j_lo].sum())
        s.mass1 += float(full[j_hi:].sum())
        # truncated kernel tails (couple of 1e-17) go to the buckets too
        s.mass0 += float(wp.sum() * self.kp_tail_lo + wm.sum() * self.km_tail_lo)
        s.mass1 += float(wp.sum() * self.kp_tail_hi + wm.sum() * self.km_tail_hi)


def _fft_convolve(a: np.ndarray, k: np.ndarray, k_spec: np.ndarray | None = None) -> np.ndarray:
    """Full linear convolution of 1-D real arrays through real FFTs.

    Both inputs are transformed at ``next_fast_len(a.size + k.size - 1,
    real=True)``, multiplied and transformed back, which is bit for bit
    what ``scipy.signal.fftconvolve(a, k)`` computes for kernels of two
    or more taps (it multiplies by a one-tap kernel).  ``k_spec``, when
    given, is ``rfft(k, that length)``, kept by a caller that convolves
    with the same kernel many times.
    """
    size = a.size + k.size - 1
    n = next_fast_len(size, real=True)
    if k_spec is None:
        k_spec = rfft(k, n)
    return irfft(rfft(a, n) * k_spec, n)[:size]


def _correlate(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The "valid" cross-correlation of a with the shorter k."""
    return _fft_convolve(a, k[::-1])[k.size - 1 : a.size]


def solve_fp(
    x0: float,
    g: float,
    T1: float,
    t_grid,
    *,
    z_min: float = FP_Z_MIN,
    z_max: float = FP_Z_MAX,
    n_cells: int = FP_CELLS,
    dt: float | None = None,
) -> list[DensityGrid]:
    """Evolve the trajectory density and snapshot it at given times.

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
    z_min, z_max, n_cells :
        Extent and resolution (>= 8 cells) of the uniform z grid.
    dt : float, optional
        Substep duration with finite T1 (finite and > 0), default
        min(T1/100, interval).
        Each interval between snapshot times runs one substep loop with
        its operators built once; at infinite T1 that loop takes one
        substep of the whole interval with zero relaxation, whatever dt
        is.  Memory beyond the grid is one interval's operators.

    Returns
    -------
    list of DensityGrid
        One snapshot per entry of t_grid.

    Raises
    ------
    FPSolverError
        If mass conservation drifts beyond 1e-8 or densities go negative
        beyond -1e-12.
    """
    if not (g >= 0 and math.isfinite(g)):
        raise ValueError("g must be finite and >= 0")
    if not T1 > 0:
        raise ValueError("T1 must be > 0")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt={dt!r} must be finite and > 0")
    if n_cells < 8:
        raise ValueError("n_cells must be >= 8")
    if not (math.isfinite(z_min) and math.isfinite(z_max) and z_min < z_max):
        raise ValueError(f"z_min={z_min!r} and z_max={z_max!r} must be finite, z_min < z_max")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid entries must be finite, got {t_grid.tolist()!r}")
    if np.any(np.diff(t_grid) < 0) or np.any(t_grid < -1e-12):
        raise ValueError("t_grid must be nondecreasing and start at/after 0")

    x0 = float(x0)
    solver = _Solver(z_min, z_max, n_cells)
    z0 = to_logodds(x0)
    if not (z_min < z0 < z_max):
        raise ValueError("x0 maps outside the z grid")
    solver.deposit((solver.land(np.array([z0]), np.array([1.0 - x0])), np.array([1.0])))
    t = 0.0
    if t_grid.size == 0:
        return []

    total0 = solver.w.sum() + solver.mass0 + solver.mass1
    out: list[DensityGrid] = []
    for t_next in t_grid:
        span = float(t_next - t)
        if span > 0.0:
            # min(inf, span) = span: one substep of the interval at T1 = inf
            sub = min(T1 / 100.0, span) if dt is None or math.isinf(T1) else dt
            n_sub = max(1, int(math.ceil(span / sub - 1e-12)))
            h = span / n_sub
            delta = h / T1
            # the operators of this interval, shared by its substeps
            diffuse = _Diffusion(solver, g * h)
            half = _Relaxation(solver, 0.5 * delta)
            relax = _Relaxation(solver, delta) if n_sub > 1 else half
            half.apply(solver)
            for j in range(n_sub):
                diffuse.apply(solver)
                (relax if j < n_sub - 1 else half).apply(solver)
            t = float(t_next)
        wmin = solver.w.min()
        if wmin < _NEG_TOL:
            raise FPSolverError(f"negative density {wmin:.3e} at t = {t}")
        drift = abs(solver.w.sum() + solver.mass0 + solver.mass1 - total0)
        if drift > _MASS_TOL:
            raise FPSolverError(f"mass drift {drift:.3e} at t = {t}")
        out.append(DensityGrid(nodes=solver.nodes.copy(), weights=solver.w.copy(),
                               mass0=solver.mass0, mass1=solver.mass1, t=t))
    return out


def _rebin_map(nodes: np.ndarray, n_bins: int, bin_width: float):
    """Conservative rebinning of z cells onto uniform rho00 bins.

    Returns ``(cell, bin, frac)``: cell ``cell[i]`` puts the fraction
    ``frac[i]`` of its mass into bin ``bin[i]``.  Cells inside one bin
    come first (fraction 1), then the cells straddling bin edges in index
    order, each split assuming a uniform within-cell distribution in z.
    """
    check_binning(n_bins, bin_width)
    half = 0.5 * float(np.diff(nodes).mean())
    lo_c = nodes - half
    hi_c = nodes + half
    r_lo = to_rho(lo_c)
    r_hi = to_rho(hi_c)

    edges = np.arange(n_bins + 1) * bin_width
    b_lo = bin_index(r_lo, n_bins, bin_width)
    b_hi = bin_index(r_hi, n_bins, bin_width)

    whole = np.flatnonzero(b_lo == b_hi)
    cells, bins, fracs = [whole], [b_lo[whole]], [np.ones(whole.size)]
    for i in np.flatnonzero(b_lo != b_hi):
        # z positions of the interior bin edges inside this cell
        cuts = to_logodds(edges[b_lo[i] + 1 : b_hi[i] + 1])
        f = np.clip((cuts - lo_c[i]) / (hi_c[i] - lo_c[i]), 0.0, 1.0)
        cells.append(np.full(f.size + 1, i))
        bins.append(np.arange(b_lo[i], b_hi[i] + 1))
        fracs.append(np.diff(np.concatenate([[0.0], f, [1.0]])))
    return np.concatenate(cells), np.concatenate(bins), np.concatenate(fracs)


def _rebin(grid: DensityGrid, rebin_map, n_bins: int, bin_width: float) -> DistributionSnapshot:
    """Apply a :func:`_rebin_map` of the grid's nodes to its weights."""
    cell, bins, frac = rebin_map
    return DistributionSnapshot(
        n_bins=n_bins,
        bin_width=bin_width,
        density=np.bincount(bins, grid.weights[cell] * frac, minlength=n_bins),
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

    Cells falling inside one bin contribute whole; cells straddling bin
    edges are split assuming a uniform within-cell distribution in z.
    Boundary point masses are carried through.  The result has zero
    per-bin errors (it is a model, not data).
    """
    return _rebin(grid, _rebin_map(grid.nodes, n_bins, bin_width), n_bins, bin_width)
