"""Deterministic evolution of the trajectory probability density.

Without relaxation the density in the log-odds coordinate is known in
closed form: starting from a point x0, it is a pair of Gaussians with
centers ``atanh(2 x0 - 1) +- tau``, common variance ``tau`` and areas
``(x0, 1 - x0)``.  :func:`analytic_distribution_z` exposes that
solution, including its exact masses on rho00 bins.

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

Mass leaving the grid ends is accumulated in point masses at the
eigenstates; the rho00 = 0 bucket is re-injected by the next relaxation
application when T1 is finite (the left boundary is only absorbing
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
from scipy.signal import fftconvolve
from scipy.special import expit, ndtr

from .core import DistributionSnapshot, to_logodds, to_rho
from .sde import _relax_z

__all__ = [
    "FPSolverError",
    "DensityGrid",
    "GaussianMixtureZ",
    "analytic_distribution_z",
    "solve_fp",
    "fp_snapshot_to_bins",
]

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


@dataclass(frozen=True)
class GaussianMixtureZ:
    """Two-Gaussian description of the no-relaxation density in z."""

    z_plus: float
    z_minus: float
    variance: float
    weight_plus: float
    weight_minus: float

    def pdf_z(self, z):
        """Density in z (requires variance > 0)."""
        if self.variance <= 0:
            raise ValueError("pdf undefined for a degenerate (delta) mixture")
        s = math.sqrt(self.variance)
        zz = np.asarray(z, dtype=float)
        gp = np.exp(-0.5 * ((zz - self.z_plus) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        gm = np.exp(-0.5 * ((zz - self.z_minus) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        out = self.weight_plus * gp + self.weight_minus * gm
        return float(out) if np.ndim(z) == 0 else out

    def cdf_z(self, z):
        """Cumulative mass below z (handles the degenerate case)."""
        zz = np.asarray(z, dtype=float)
        if self.variance <= 0:
            out = self.weight_plus * (zz >= self.z_plus) + self.weight_minus * (
                zz >= self.z_minus
            )
            out = out.astype(float)
        else:
            s = math.sqrt(self.variance)
            out = self.weight_plus * ndtr((zz - self.z_plus) / s) + (
                self.weight_minus * ndtr((zz - self.z_minus) / s)
            )
        return float(out) if np.ndim(z) == 0 else out

    def cell_masses(self, edges_z: np.ndarray) -> np.ndarray:
        """Exact mass between consecutive z edges."""
        c = self.cdf_z(np.asarray(edges_z, dtype=float))
        return np.diff(c)

    def bin_masses_rho(self, edges_rho: np.ndarray) -> np.ndarray:
        """Exact mass between consecutive rho00 bin edges."""
        e = np.asarray(edges_rho, dtype=float)
        ze = np.empty_like(e)
        inner = (e > 0.0) & (e < 1.0)
        ze[inner] = to_logodds(e[inner])
        ze[e <= 0.0] = -np.inf
        ze[e >= 1.0] = np.inf
        return np.diff(self.cdf_z(ze))


def analytic_distribution_z(x0: float, tau: float) -> GaussianMixtureZ:
    """Closed-form no-relaxation density in z after evolution tau.

    Centers sit at atanh(2 x0 - 1) +- tau with common variance tau; the
    branch weights are the initial populations (x0 toward +, 1-x0 toward
    -), which is the Born rule.  tau = 0 or x0 in {0, 1} give a
    degenerate (delta) mixture.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError("x0 must lie in [0, 1]")
    z0 = to_logodds(x0)
    return GaussianMixtureZ(
        z_plus=z0 + tau,
        z_minus=z0 - tau,
        variance=tau,
        weight_plus=x0,
        weight_minus=1.0 - x0,
    )


# ---------------------------------------------------------------------------
# numerical solver


class _Solver:
    """Mutable working state of one solve (grid plus masses)."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, mass0: float, mass1: float):
        dz = np.diff(nodes)
        if nodes.size < 8 or not np.allclose(dz, dz[0], rtol=1e-9, atol=0.0):
            raise ValueError("solver requires a uniform z grid with >= 8 cells")
        self.nodes = nodes.astype(float)
        self.dz = float(dz[0])
        self.w = weights.astype(float).copy()
        self.mass0 = float(mass0)
        self.mass1 = float(mass1)
        # population-space views of the cell centers, used by the
        # mean-preserving deposits and branch reweighting
        self.r11 = expit(-2.0 * self.nodes)
        self.phi = np.tanh(self.nodes)

    # -- deposits ----------------------------------------------------------

    def deposit(self, y: np.ndarray, r11_target: np.ndarray, mass: np.ndarray) -> None:
        """Drop point masses at z positions y onto the grid.

        The split between the two enclosing cells is chosen in
        population space (r11 is monotone in z), so the deposited
        population mean equals the exact one.  Positions beyond the last
        cell go to the rho00 = 1 bucket; positions below the first cell
        pile into cell 0 (only reachable within ~1e-10 of the edge).
        """
        pos = (y - self.nodes[0]) / self.dz
        k = np.floor(pos).astype(int)
        below = k < 0
        above = k >= self.nodes.size - 1
        mid = ~(below | above)
        if np.any(above):
            self.mass1 += float(mass[above].sum())
        if np.any(below):
            np.add.at(self.w, 0, mass[below].sum())
        km = k[mid]
        denom = self.r11[km] - self.r11[km + 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha = (self.r11[km] - r11_target[mid]) / denom
        alpha = np.clip(np.where(denom > 0.0, alpha, 0.5), 0.0, 1.0)
        mm = mass[mid]
        np.add.at(self.w, km, mm * (1.0 - alpha))
        np.add.at(self.w, km + 1, mm * alpha)

    # -- relaxation --------------------------------------------------------

    def relax(self, delta: float) -> None:
        """Exact pushforward of rho11 -> rho11*e^-delta."""
        if delta == 0.0:
            return
        w_old = self.w
        self.w = np.zeros_like(w_old)
        live = w_old > 0.0
        y = _relax_z(self.nodes[live], delta)
        fac = math.exp(-delta)
        self.deposit(y, self.r11[live] * fac, w_old[live])
        if self.mass0 > 0.0:
            # the rho00 = 0 point mass re-enters at rho11 = e^-delta
            y0 = 0.5 * math.log(math.expm1(delta))
            self.deposit(
                np.array([y0]), np.array([fac]), np.array([self.mass0])
            )
            self.mass0 = 0.0

    # -- diffusion ---------------------------------------------------------

    def diffuse(self, kappa: float) -> None:
        """Exact two-Gaussian spreading over evolution interval kappa."""
        if kappa == 0.0:
            return
        sig = math.sqrt(kappa)
        lo = int(math.floor((-kappa - _KERNEL_TAIL * sig) / self.dz)) - 1
        hi = int(math.ceil((kappa + _KERNEL_TAIL * sig) / self.dz)) + 1
        edges_rel = (np.arange(lo, hi + 2) - 0.5) * self.dz
        n = self.nodes.size

        def branch_kernel(shift):
            cdf = ndtr((edges_rel - shift) / sig)
            return np.diff(cdf), float(cdf[0]), float(1.0 - cdf[-1])

        kp, kp_tail_lo, kp_tail_hi = branch_kernel(+kappa)
        km, km_tail_lo, km_tail_hi = branch_kernel(-kappa)

        # discrete post-step population means of each branch; beyond the
        # grid the population saturates at the eigenstates (+-1 in phi)
        pos = np.arange(lo, n + hi)
        phi_ext = np.where(
            pos < 0, -1.0, np.where(pos >= n, 1.0, self.phi[np.clip(pos, 0, n - 1)])
        )
        mp = self._correlate(phi_ext, kp) - kp_tail_lo + kp_tail_hi
        mm = self._correlate(phi_ext, km) - km_tail_lo + km_tail_hi

        # branch weights, corrected so the discrete mean is conserved
        denom = mp - mm
        with np.errstate(invalid="ignore", divide="ignore"):
            xt = (self.phi - mm) / denom
        xt = np.where(np.abs(denom) > 1e-9, xt, expit(2.0 * self.nodes))
        xt = np.clip(xt, 0.0, 1.0)

        wp = xt * self.w
        wm = self.w - wp
        full = self._convolve(wp, kp) + self._convolve(wm, km)
        if np.any(full < _NEG_TOL):
            raise FPSolverError(
                f"negative density {full.min():.3e} from diffusion step"
            )
        np.maximum(full, 0.0, out=full)
        # full[j'] is the mass landing on grid index j = j' + lo
        j_lo = max(0, -lo)          # first j' on the grid
        j_hi = min(full.size, n - lo)  # one past the last j' on the grid
        self.w = np.zeros(n)
        self.w[j_lo + lo : j_hi + lo] = full[j_lo:j_hi]
        self.mass0 += float(full[:j_lo].sum())
        self.mass1 += float(full[j_hi:].sum())
        # truncated kernel tails (couple of 1e-17) go to the buckets too
        self.mass0 += float(wp.sum() * kp_tail_lo + wm.sum() * km_tail_lo)
        self.mass1 += float(wp.sum() * kp_tail_hi + wm.sum() * km_tail_hi)

    @staticmethod
    def _convolve(a: np.ndarray, k: np.ndarray) -> np.ndarray:
        if a.size * k.size <= 3_000_000:
            return np.convolve(a, k)
        out = fftconvolve(a, k)
        return np.maximum(out, 0.0)

    @staticmethod
    def _correlate(a: np.ndarray, k: np.ndarray) -> np.ndarray:
        if a.size * k.size <= 3_000_000:
            return np.convolve(a, k[::-1], mode="valid")
        return fftconvolve(a, k[::-1], mode="valid")

    def snapshot(self, t: float) -> DensityGrid:
        return DensityGrid(
            nodes=self.nodes.copy(),
            weights=self.w.copy(),
            mass0=self.mass0,
            mass1=self.mass1,
            t=t,
        )


def solve_fp(
    initial,
    g: float,
    T1: float,
    t_grid,
    *,
    z_min: float = -12.0,
    z_max: float = 12.0,
    n_cells: int = 8192,
    dt: float | None = None,
) -> list[DensityGrid]:
    """Evolve the trajectory density and snapshot it at given times.

    Parameters
    ----------
    initial : float or DensityGrid
        Either the initial population x0 (delta initial condition,
        deposited mean-exactly on the grid) or an existing grid whose
        uniform nodes the solver adopts.
    g : float
        Measurement coupling (1/time), >= 0.
    T1 : float
        Relaxation time; ``math.inf`` for pure diffusion.
    t_grid : sequence of float
        Nondecreasing snapshot times, starting at or after the initial
        time (0 for a delta initial condition).
    z_min, z_max, n_cells :
        Grid extent and resolution (ignored when a DensityGrid is given).
    dt : float, optional
        Trotter substep duration with finite T1.  Defaults to
        min(T1/100, interval).  Pure diffusion (infinite T1) is a single
        exact application per interval regardless of dt.

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
    if g < 0:
        raise ValueError("g must be >= 0")
    if not T1 > 0:
        raise ValueError("T1 must be > 0")

    if isinstance(initial, DensityGrid):
        solver = _Solver(initial.nodes, initial.weights, initial.mass0, initial.mass1)
        t = initial.t
    else:
        x0 = float(initial)
        dz = (z_max - z_min) / n_cells
        nodes = z_min + (np.arange(n_cells) + 0.5) * dz
        solver = _Solver(nodes, np.zeros(n_cells), 0.0, 0.0)
        z0 = to_logodds(x0)
        if not (z_min < z0 < z_max):
            raise ValueError("x0 maps outside the z grid")
        solver.deposit(np.array([z0]), np.array([1.0 - x0]), np.array([1.0]))
        t = 0.0

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        return []
    if np.any(np.diff(t_grid) < 0) or t_grid[0] < t - 1e-12:
        raise ValueError("t_grid must be nondecreasing and start at/after t0")

    total0 = solver.w.sum() + solver.mass0 + solver.mass1
    out: list[DensityGrid] = []
    for t_next in t_grid:
        span = float(t_next - t)
        if span > 0.0:
            if math.isinf(T1):
                solver.diffuse(g * span)
            else:
                sub = dt if dt is not None else min(T1 / 100.0, span)
                n_sub = max(1, int(math.ceil(span / sub - 1e-12)))
                h = span / n_sub
                delta = h / T1
                solver.relax(0.5 * delta)
                for j in range(n_sub):
                    solver.diffuse(g * h)
                    solver.relax(delta if j < n_sub - 1 else 0.5 * delta)
            t = float(t_next)
        wmin = solver.w.min()
        if wmin < _NEG_TOL:
            raise FPSolverError(f"negative density {wmin:.3e} at t = {t}")
        drift = abs(solver.w.sum() + solver.mass0 + solver.mass1 - total0)
        if drift > _MASS_TOL:
            raise FPSolverError(f"mass drift {drift:.3e} at t = {t}")
        out.append(solver.snapshot(t))
    return out


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
    if n_bins * bin_width < 1.0 - 1e-12:
        raise ValueError("n_bins * bin_width must cover [0, 1]")
    nodes = grid.nodes
    half = 0.5 * float(np.diff(nodes).mean())
    lo_c = nodes - half
    hi_c = nodes + half
    r_lo = to_rho(lo_c)
    r_hi = to_rho(hi_c)

    edges = np.arange(n_bins + 1) * bin_width
    b_lo = np.clip(np.searchsorted(edges, r_lo, side="right") - 1, 0, n_bins - 1)
    b_hi = np.clip(np.searchsorted(edges, r_hi, side="right") - 1, 0, n_bins - 1)

    density = np.zeros(n_bins)
    same = b_lo == b_hi
    np.add.at(density, b_lo[same], grid.weights[same])
    for i in np.nonzero(~same)[0]:
        w = grid.weights[i]
        if w == 0.0:
            continue
        # z positions of the interior bin edges inside this cell
        cuts = to_logodds(edges[b_lo[i] + 1 : b_hi[i] + 1])
        fracs = np.clip((cuts - lo_c[i]) / (hi_c[i] - lo_c[i]), 0.0, 1.0)
        parts = np.diff(np.concatenate([[0.0], fracs, [1.0]]))
        density[b_lo[i] : b_hi[i] + 1] += w * parts

    return DistributionSnapshot(
        n_bins=n_bins,
        bin_width=bin_width,
        density=density,
        errors=np.zeros(n_bins),
        mass0=grid.mass0,
        mass1=grid.mass1,
        t=grid.t,
    )
