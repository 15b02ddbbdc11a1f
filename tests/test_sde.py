import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, ndtr, ndtri

from qtraj import core, sde
from qtraj.bayesian import _meas, generate_records, reconstruct_ensemble
from qtraj.core import Z_CAP, CalibrationParams, ModelParams, build_histogram, to_logodds, to_rho
from qtraj.rng import (
    STREAM_BRANCH,
    STREAM_NOISE,
    SeedSpec,
    _step_draws,
    _traj_key,
    counter_normal,
    counter_uniform,
)
from qtraj.sde import (
    CHUNK,
    _diffuse,
    _odds,
    _relax,
    _rho,
    simulate_batches,
    simulate_ensemble,
)


def diffuse(o, kappa, u, xi):
    """One exact diffusion step of a copy of the odds ``o``."""
    o, xi = np.array(o, dtype=float), np.array(xi, dtype=float)
    return _diffuse(o, kappa, u, xi, np.empty(o.shape))


def sample_diffusion_increments(seed, n, kappa, x0=0.5, step=0):
    """Monte Carlo draws of the log-odds increment of one exact diffusion
    step from x0."""
    o = diffuse(np.full(n, _odds(x0)), kappa, *draws(seed, n, step))
    return 0.5 * np.log(o) - to_logodds(x0)


def relax1(x, delta):
    """The population after one exact relaxation step from population x."""
    return _rho(_relax(np.array([_odds(x)]), delta))[0]


def draws(seed, n, step):
    traj = np.arange(n, dtype=np.uint64)
    return (counter_uniform(seed, traj, step, STREAM_BRANCH),
            counter_normal(seed, traj, step, STREAM_NOISE))


# Plain allocating forms of the counter hash and the odds kernels: the
# in-place kernels must reproduce them bit for bit.
PHI = np.uint64(0x9E3779B97F4A7C15)
O_CAP, O_FLOOR = math.exp(2.0 * Z_CAP), math.exp(-2.0 * Z_CAP)


def mix_ref(h):
    h = h ^ (h >> np.uint64(30))
    h = h * np.uint64(0xBF58476D1CE4E5B9)
    h = h ^ (h >> np.uint64(27))
    h = h * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def uniform_ref(seed, traj, step, stream):
    traj = np.asarray(traj, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = mix_ref(mix_ref(np.uint64(seed)) + PHI * (traj + np.uint64(1)))
        h = mix_ref(h + PHI * np.uint64(step + 1))
        h = mix_ref(h + PHI * np.uint64(stream + 1))
    return ((h >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def rho_ref(o):
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + 1.0 / o)


def snap_ref(o, lower=True):
    o = np.where(o >= O_CAP, np.inf, o)
    return np.where(o <= O_FLOOR, 0.0, o) if lower else o


def relax_ref(o, delta):
    if delta == 0.0:
        return o
    return snap_ref(math.exp(delta) * o + math.expm1(delta), lower=False)


def diffusion_ref(o, kappa, u, xi):
    return snap_ref(o * np.exp(2.0 * math.sqrt(kappa) * xi
                               - np.copysign(2.0 * kappa, u - rho_ref(o))))


def meas_ref(o, im, i0, i1, sigma):
    arg = (2.0 * im - i0 - i1) * ((i0 - i1) / (2.0 * sigma**2))
    return snap_ref(o * np.exp(np.clip(arg, -4.0 * Z_CAP, 4.0 * Z_CAP)))


# The log-odds step the odds kernels replaced, kept as an oracle: the
# same physical updates in z = log(o)/2, clipped to +-Z_CAP, with the
# caps held fixed by diffusion and measurement.
def relax_z(z, delta):
    if delta == 0.0:
        return z
    grow = z + 0.5 * delta + 0.5 * np.log1p(-math.expm1(-delta) * np.exp(-2.0 * z))
    reentry = 0.5 * np.log(math.expm1(delta) + np.exp(delta + 2.0 * z))
    return np.clip(np.where(z >= 0.0, grow, reentry), -Z_CAP, Z_CAP)


def diffusion_z(z, kappa, u, xi):
    branch = np.where(u < expit(2.0 * z), 1.0, -1.0)
    znew = np.clip(z + kappa * branch + math.sqrt(kappa) * xi, -Z_CAP, Z_CAP)
    return np.where(np.abs(z) >= Z_CAP, z, znew)


def meas_z(z, im, i0, i1, sigma):
    coeff = (i0 - i1) / (4.0 * sigma**2)
    znew = np.clip(z + coeff * (2.0 * im - i0 - i1), -Z_CAP, Z_CAP)
    return np.where(np.abs(z) >= Z_CAP, z, znew)


def z_to_odds(z):
    return np.where(z >= Z_CAP, np.inf, np.where(z <= -Z_CAP, 0.0, np.exp(2.0 * z)))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# the caps, signed zeros and tiny values, then states across the range
ORACLE_Z = np.concatenate([
    [Z_CAP, -Z_CAP, 0.0, -0.0, 1e-300, -1e-300, 29.9, -29.9],
    np.random.default_rng(17).normal(0.0, 8.0, 400).clip(-Z_CAP, Z_CAP),
])
ORACLE_O = np.concatenate([
    z_to_odds(ORACLE_Z),
    [O_CAP, np.nextafter(O_CAP, 0), O_FLOOR, np.nextafter(O_FLOOR, 1), 1e-300, 5e-324, 1e300],
])
ORACLE_STEPS = (0, 2**32)


def assert_close_to_z(o, z):
    """The odds states ``o`` hold the populations of the log-odds states
    ``z`` to 1e-12."""
    assert np.max(np.abs(rho_ref(o) - to_rho(z))) <= 1e-12


class TestKernelOracles:
    @pytest.mark.parametrize("step", ORACLE_STEPS)
    @pytest.mark.parametrize("stream", (STREAM_BRANCH, STREAM_NOISE))
    @pytest.mark.parametrize("seed", (0, 2024, 2**64 - 1))
    def test_counter_streams(self, seed, step, stream):
        traj = np.arange(3000, dtype=np.uint64)
        u = uniform_ref(seed, traj, step, stream)
        assert same_bits(counter_uniform(seed, traj, step, stream), u)
        assert same_bits(counter_normal(seed, traj, step, stream), ndtri(u))
        assert counter_uniform(seed, 7, step, stream) == u[7]

    @pytest.mark.parametrize("step", ORACLE_STEPS)
    def test_step_draws_share_one_step_hash(self, step):
        traj = np.arange(3000, dtype=np.uint64)
        u, xi, tmp = np.empty(3000), np.empty(3000), np.empty(3000, dtype=np.uint64)
        _step_draws(_traj_key(99, traj), step, u, xi, tmp)
        assert same_bits(u, uniform_ref(99, traj, step, STREAM_BRANCH))
        assert same_bits(xi, ndtri(uniform_ref(99, traj, step, STREAM_NOISE)))

    @pytest.mark.parametrize("delta", (0.0, 1e-12, 0.0056, 2.0))
    def test_relax(self, delta):
        want = relax_ref(ORACLE_O, delta)
        o = ORACLE_O.copy()
        assert _relax(o, delta, np.empty(o.size, dtype=bool)) is o
        assert same_bits(o, want)
        assert same_bits(_relax(ORACLE_O.copy(), delta), want)
        assert_close_to_z(want[:ORACLE_Z.size], relax_z(ORACLE_Z, delta))

    @pytest.mark.parametrize("kappa", (0.0, 1e-12, 0.0056, 2.0))
    @pytest.mark.parametrize("step", ORACLE_STEPS)
    def test_diffusion(self, kappa, step):
        u, xi = draws(5, ORACLE_O.size, step)
        want = diffusion_ref(ORACLE_O, kappa, u, xi)
        o, xi_copy = ORACLE_O.copy(), xi.copy()
        tmp, mask = np.empty(o.size), np.empty(o.size, dtype=bool)
        assert _diffuse(o, kappa, u, xi_copy, tmp, mask) is o
        assert same_bits(o, want)
        assert same_bits(diffuse(ORACLE_O, kappa, u, xi), want)
        n = ORACLE_Z.size
        assert_close_to_z(want[:n], diffusion_z(ORACLE_Z, kappa, u[:n], xi[:n]))
        # a draw exactly at the branch threshold takes the lower branch
        p = rho_ref(ORACLE_O)
        assert same_bits(diffuse(ORACLE_O, kappa, p, xi), diffusion_ref(ORACLE_O, kappa, p, xi))
        if kappa > 0.0:  # rho00 = 0.5 (o = 1) and u = 0.5: the lower branch
            assert diffuse([1.0], kappa, [0.5], [0.0])[0] < 1.0

    @pytest.mark.parametrize("cal", [(1.0, -1.0, 1.0), (128.443, 127.856, 5.56)])
    def test_meas(self, cal):
        i0, i1, sigma = cal
        im = np.random.default_rng(2).normal(i0, 3.0 * sigma, ORACLE_O.size)
        im[:4] = [i0, i1, 0.5 * (i0 + i1), 1e6]
        want = meas_ref(ORACLE_O, im, i0, i1, sigma)
        o = ORACLE_O.copy()
        assert _meas(o, im, i0, i1, sigma, np.empty(o.size), np.empty(o.size, dtype=bool)) is o
        assert same_bits(o, want)
        n = ORACLE_Z.size
        assert_close_to_z(want[:n], meas_z(ORACLE_Z, im[:n], i0, i1, sigma))

    # step counts around the loop's 8-step tile: one step, a part tile,
    # one tile, one tile and a step, two tiles and a step
    @pytest.mark.parametrize("steps", (1, 7, 8, 9, 17))
    def test_simulate_and_generate_match_reference_loops(self, steps):
        # the whole step loop, with its shared scratch, against the plain
        # formulas: relax, middle update, relax, store rho00
        n, seed = 3000, 41
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=1.5, dt=0.5, T1=3.0)
        params = ModelParams(g=cal.kappa / 0.5, T1=3.0, dt=0.5, x0=0.305, n_steps=steps)
        ens = simulate_ensemble(params, n, SeedSpec(seed))
        recs, latent = generate_records(params, cal, n, SeedSpec(seed))
        traj = np.arange(n, dtype=np.uint64)
        o_sim = o_gen = np.full(n, 0.305 / (1.0 - 0.305))
        half = 0.5 * params.delta
        for s in range(steps):
            u = uniform_ref(seed, traj, s, STREAM_BRANCH)
            xi = ndtri(uniform_ref(seed, traj, s, STREAM_NOISE))
            o_sim = relax_ref(diffusion_ref(relax_ref(o_sim, half), params.kappa, u, xi), half)
            o_gen = relax_ref(o_gen, half)
            im = np.where(u < rho_ref(o_gen), cal.I0, cal.I1) + cal.sigma * xi
            assert same_bits(recs.currents[:, s], im)
            o_gen = relax_ref(meas_ref(o_gen, im, cal.I0, cal.I1, cal.sigma), half)
            assert same_bits(ens.slice_values(s + 1), rho_ref(o_sim))
            assert same_bits(latent.slice_values(s + 1), rho_ref(o_gen))
        assert same_bits(reconstruct_ensemble(recs).values, latent.values)


# 1e5 x 80 steps: the weak coupling of the benchmark at T1 = 45, strong
# coupling that drives most trajectories onto the caps at T1 = infinity,
# and strong coupling with re-entry from rho00 = 0 at T1 = 45
Z_ORACLE_RUNS = [(0.03, 45.0), (2.0, math.inf), (2.0, 45.0)]


def assert_matches_z_oracle(values, z_slices):
    """Every slice within 1e-12 of the z oracle, with equal counts of
    exact 0 and 1."""
    for k, z in enumerate(z_slices):
        want = to_rho(z)
        assert np.max(np.abs(values[:, k] - want)) <= 1e-12
        assert np.count_nonzero(values[:, k] == 0.0) == np.count_nonzero(want == 0.0)
        assert np.count_nonzero(values[:, k] == 1.0) == np.count_nonzero(want == 1.0)


class TestZOracle:
    """The odds step against the log-odds step it replaced, on the same
    draws and the same currents."""

    @pytest.mark.parametrize("g, T1", Z_ORACLE_RUNS)
    def test_simulate(self, g, T1):
        n, steps, seed = 100_000, 80, 2024
        params = ModelParams(g=g, T1=T1, dt=0.5, x0=0.305, n_steps=steps)
        ens = simulate_ensemble(params, n, SeedSpec(seed), n_workers=2)
        z = np.full(n, to_logodds(0.305))
        half = 0.5 * params.delta
        slices = [z]
        for s in range(steps):
            z = relax_z(diffusion_z(relax_z(z, half), params.kappa, *draws(seed, n, s)), half)
            slices.append(z)
        assert_matches_z_oracle(ens.values, slices)
        if g == 2.0 and T1 == math.inf:
            final = ens.values[:, -1]
            assert np.count_nonzero(final == 0.0) > 10_000
            assert np.count_nonzero(final == 1.0) > 5_000

    def test_reconstruct(self):
        n, steps = 100_000, 80
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=1.0, dt=0.5, T1=45.0)
        params = ModelParams(g=cal.kappa / 0.5, T1=45.0, dt=0.5, x0=0.305, n_steps=steps)
        recs, latent = generate_records(params, cal, n, SeedSpec(7), n_workers=2)
        ens = reconstruct_ensemble(recs, n_workers=2)
        assert np.array_equal(ens.values, latent.values)
        z = np.full(n, to_logodds(0.305))
        half = 0.5 * params.delta
        slices = [z]
        for s in range(steps):
            z = relax_z(meas_z(relax_z(z, half), recs.currents[:, s], 1.0, -1.0, 1.0), half)
            slices.append(z)
        assert_matches_z_oracle(ens.values, slices)
        # relaxation re-enters from rho00 = 0 every step, but rho00 = 1 holds
        assert np.count_nonzero(ens.values[:, -1] == 1.0) > 10_000


class TestRelaxation:
    def test_ground_state_unchanged(self):
        assert relax1(1.0, 0.37) == 1.0  # rho11 = 0, o = +inf

    def test_half_life(self):
        out = relax1(0.0, math.log(2.0))  # rho11 = 1, o = 0
        assert math.isclose(out, 0.5, rel_tol=1e-12)

    def test_experiment_scale_step(self):
        # oracle: rho11' = 0.695 * exp(-dt/T1) with dt=0.5, T1=45
        out = relax1(0.305, 0.5 / 45.0)
        expected = 0.695 * math.exp(-1.0 / 90.0)
        assert math.isclose(expected, 0.687320520559276, rel_tol=1e-14)
        assert math.isclose(1.0 - out, expected, rel_tol=1e-12)

    def test_delta_zero_identity(self):
        o = np.array([1.3])
        assert _relax(o, 0.0) is o
        assert o[0] == 1.3

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            _relax(np.zeros(1), -0.1)

    def test_cap_reentry(self):
        # rho00 = 0 is not absorbing under relaxation: o = 0 re-enters
        # at expm1(delta), which is rho00 = 1 - e^-delta
        o = _relax(np.array([0.0, np.inf]), 0.01)
        assert o[0] == math.expm1(0.01)
        assert math.isclose(_rho(o)[0], -math.expm1(-0.01), rel_tol=1e-14)
        # rho00 = 1 stays put
        assert o[1] == np.inf and _rho(o)[1] == 1.0
        # a state pushed onto the upper cap snaps to the eigenstate
        assert _relax(np.array([O_CAP * 0.999]), 0.01)[0] == np.inf

    def test_delta_past_exp_range(self):
        # math.exp overflows past delta ~ 709.78; the map already sends
        # every state to the eigenstate o = +inf from delta ~ 60 on
        o = np.array([0.0, 1e-30, 1.0, np.inf])
        want = _relax(o.copy(), 100.0)
        assert np.all(want == np.inf)
        assert same_bits(_relax(o.copy(), 1000.0), want)

    def test_half_steps_compose(self):
        rng = np.random.default_rng(0)
        o = np.exp(2.0 * rng.uniform(-28, 28, 500))
        d = 0.013
        direct = _relax(o.copy(), d)
        halves = _relax(_relax(o.copy(), d / 2), d / 2)
        assert np.allclose(direct, halves, rtol=1e-14, atol=0)

    def test_matches_rho_space_rule(self):
        # the relaxation mean law to rounding: rho11 -> rho11 e^-delta
        rho = np.random.default_rng(1).random(100)
        out = _rho(_relax(rho / (1.0 - rho), 0.2))
        assert np.allclose(1.0 - out, (1.0 - rho) * math.exp(-0.2), rtol=1e-14, atol=1e-16)


class TestDiffusion:
    def test_zero_kappa(self):
        o = np.full(1000, 0.7)
        assert np.array_equal(diffuse(o, 0.0, *draws(0, 1000, 0)), o)

    def test_negative_kappa(self):
        with pytest.raises(ValueError):
            diffuse(np.ones(1), -1.0, *draws(0, 1, 0))

    def test_eigenstate_fixed(self):
        # both eigenstates, under diffusion and measurement, for any draw
        o = np.array([np.inf, 0.0])
        for step in range(100):
            o = diffuse(o, 0.5, *draws(2, 2, step))
            assert np.array_equal(o, [np.inf, 0.0])
        for im in ([-1e6, 1e6], [1e6, -1e6], [0.3, -0.3]):
            o = _meas(o, np.array(im), 1.0, -1.0, 1.0, np.empty(2))
            assert np.array_equal(o, [np.inf, 0.0])
        assert np.array_equal(_rho(o), [1.0, 0.0])

    def test_moments_at_pinned_state(self):
        # pinned branch (rho00 = 1 in float, o below the cap): the
        # log-odds increment is exactly N(kappa, kappa)
        n = 1_000_000
        kappa = 0.01
        dz = 0.5 * np.log(diffuse(np.full(n, math.exp(50.0)), kappa, *draws(99, n, 0))) - 25.0
        assert abs(dz.mean() - kappa) < 4.0 * math.sqrt(kappa / n)
        assert abs(dz.var() - kappa) < 4.0 * kappa * math.sqrt(2.0 / n)

    def test_martingale_one_step(self):
        n = 200_000
        for x0 in (0.305, 0.7):
            dz = sample_diffusion_increments(5, n, 0.5, x0=x0)
            rho = to_rho(to_logodds(x0) + dz)
            se = rho.std() / math.sqrt(n)
            assert abs(rho.mean() - x0) < 4 * se

    def test_composition_two_steps_equals_double(self):
        n = 100_000
        kappa = 0.3
        o = np.full(n, _odds(0.4))
        for s in range(2):
            o = diffuse(o, kappa, *draws(31, n, s))
        z = 0.5 * np.log(o)
        single = to_logodds(0.4) + sample_diffusion_increments(77, n, 2 * kappa, x0=0.4)
        p = stats.ks_2samp(z, single).pvalue
        assert p > 1e-3

    def test_matches_analytic_distribution(self):
        # one big step lands on the two-Gaussian solution
        n = 100_000
        tau = 1.2
        x0 = 0.305
        dz = sample_diffusion_increments(13, n, tau, x0=x0)
        s = math.sqrt(tau)  # Gaussians at +-tau, variance tau, Born weights x0 and 1 - x0

        def cdf(d):
            return x0 * ndtr((d - tau) / s) + (1.0 - x0) * ndtr((d + tau) / s)

        p = stats.kstest(dz, cdf).pvalue
        assert p > 1e-3


class TestTrotter:
    """simulate_ensemble's step: half relaxation, diffusion, half relaxation."""

    def test_no_relaxation_reduces_to_diffusion(self):
        params = ModelParams(g=0.4, T1=math.inf, dt=0.5, x0=0.57, n_steps=3)
        ens = simulate_ensemble(params, 50, SeedSpec(8))
        o = np.full(50, _odds(0.57))
        for step in range(3):
            o = diffuse(o, 0.2, *draws(8, 50, step))
            assert np.array_equal(ens.slice_values(step + 1), _rho(o))

    def test_no_diffusion_reduces_to_relaxation(self):
        params = ModelParams(g=0.0, T1=6.25, dt=0.5, x0=0.4, n_steps=1)
        ens = simulate_ensemble(params, 1, SeedSpec(9))
        assert math.isclose(ens.values[0, 1], relax1(0.4, 0.08), rel_tol=1e-12)


def simulate_ensemble_euler(params, n_traj, rng):
    """Final-slice populations from the Euler-Maruyama reference scheme.

    A plain first-order integrator in population space, the convergence
    cross-check for the exact stepper.  Pass a seeded Generator for
    repeatability.
    """
    rho = np.full(n_traj, params.x0, dtype=float)
    amp = 2.0 * math.sqrt(params.g * params.dt)
    rel = params.dt / params.T1 if not math.isinf(params.T1) else 0.0
    for _ in range(params.n_steps):
        xi = rng.standard_normal(n_traj)
        rho11 = 1.0 - rho
        rho = rho + amp * rho * rho11 * xi + rel * rho11
        np.clip(rho, 0.0, 1.0, out=rho)
    return rho


class TestEulerMaruyama:
    def test_frozen_dynamics(self):
        params = ModelParams(g=0.0, T1=math.inf, dt=0.5, x0=0.56, n_steps=10)
        rho = simulate_ensemble_euler(params, 100, np.random.default_rng(0))
        assert np.all(rho == 0.56)

    def test_eigenstates_fixed(self):
        for x0 in (0.0, 1.0):
            params = ModelParams(g=0.1, T1=math.inf, dt=0.5, x0=x0, n_steps=10)
            rho = simulate_ensemble_euler(params, 100, np.random.default_rng(1))
            assert np.all(rho == x0)

    def test_matches_exact_distribution(self):
        # tau = 0.25 with g*dt = 1e-4: TV against the exact stepper < 0.02
        # (1e5 EM trajectories; the exact reference uses 1e6 so its own
        # sampling noise does not eat the margin)
        n = 100_000
        params = ModelParams(g=0.02, T1=math.inf, dt=0.005, x0=0.5, n_steps=2500)
        rho_em = simulate_ensemble_euler(params, n, np.random.default_rng(12))
        m = 1_000_000
        rho_exact = to_rho(sample_diffusion_increments(21, m, 0.25, x0=0.5))
        h_em, _ = np.histogram(rho_em, bins=100, range=(0, 1))
        h_ex, _ = np.histogram(rho_exact, bins=100, range=(0, 1))
        tv = 0.5 * np.abs(h_em / n - h_ex / m).sum()
        assert tv < 0.02


class TestSimulateEnsemble:
    def test_constant_trajectory(self):
        params = ModelParams(g=0.0, T1=math.inf, dt=0.5, x0=0.305, n_steps=20)
        ens = simulate_ensemble(params, 1, SeedSpec(1))
        expected = _rho(np.array([_odds(0.305)]))[0]
        assert math.isclose(expected, 0.305, rel_tol=4e-16)
        assert np.all(ens.values == expected)

    def test_martingale_every_slice(self):
        params = ModelParams(g=0.03, T1=math.inf, dt=0.5, x0=0.305, n_steps=40)
        n = 100_000
        ens = simulate_ensemble(params, n, SeedSpec(6))
        for k in (1, 10, 20, 40):
            v = ens.slice_values(k)
            se = max(v.std() / math.sqrt(n), 1e-12)
            assert abs(v.mean() - 0.305) < 4 * se

    @pytest.mark.parametrize("g", [0.03, 0.004774 / 0.5])
    def test_relaxation_mean_law(self, g):
        # the mean is set by relaxation alone; checked both at a
        # record-implied weak strength (kappa = 0.004774) and stronger
        params = ModelParams(g=g, T1=45.0, dt=0.5, x0=0.305, n_steps=80)
        n = 50_000
        ens = simulate_ensemble(params, n, SeedSpec(14))
        for k in (20, 40, 80):
            t = k * 0.5
            expected = 1.0 - 0.695 * math.exp(-t / 45.0)
            v = ens.slice_values(k)
            se = v.std() / math.sqrt(n)
            assert abs(v.mean() - expected) < 4 * se
        assert math.isclose(
            1.0 - 0.695 * math.exp(-40.0 / 45.0), 0.7142769580975048, rel_tol=1e-14
        )

    def test_strong_measurement_fractions(self):
        # tau = 12 in 12 composable unit steps
        params = ModelParams(g=2.0, T1=math.inf, dt=0.5, x0=0.3, n_steps=12)
        n = 20_000
        ens = simulate_ensemble(params, n, SeedSpec(44))
        final = ens.slice_values(params.n_steps)
        frac_up = (final > 0.99).mean()
        frac_dn = (final < 0.01).mean()
        assert abs(frac_up - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n)
        assert abs(frac_dn - 0.7) < 4 * math.sqrt(0.3 * 0.7 / n)

    def test_boundary_absorption_born_weights(self):
        # tau = 60 drives nearly every trajectory onto the caps; the
        # absorbed masses carry the Born weights
        params = ModelParams(g=2.0, T1=math.inf, dt=1.0, x0=0.3, n_steps=30)
        n = 20_000
        ens = simulate_ensemble(params, n, SeedSpec(45))
        snap = build_histogram(ens, params.n_steps)
        assert abs(snap.mass1 - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n) + 0.002
        assert abs(snap.mass0 - 0.7) < 4 * math.sqrt(0.3 * 0.7 / n) + 0.002

    def test_trajectory_keyed_by_index(self):
        params = ModelParams(g=0.05, T1=math.inf, dt=0.5, x0=0.4, n_steps=5)
        big = simulate_ensemble(params, 300, SeedSpec(9))
        small = simulate_ensemble(params, 120, SeedSpec(9))
        assert np.array_equal(big.values[:120], small.values)

    def test_invalid_n_traj(self):
        params = ModelParams(g=0.05, T1=math.inf, dt=0.5, x0=0.4, n_steps=5)
        with pytest.raises(ValueError):
            simulate_ensemble(params, 0, SeedSpec(9))
        with pytest.raises(ValueError):
            simulate_batches(params, 0, SeedSpec(9))

    @pytest.mark.parametrize("n_workers", [0, -2])
    def test_invalid_n_workers(self, n_workers):
        # every entry point refuses, as the CLI does, before any work
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=2.0, dt=0.5)
        params = ModelParams(g=cal.kappa / 0.5, T1=math.inf, dt=0.5, x0=0.4, n_steps=5)
        recs, _ = generate_records(params, cal, 10, SeedSpec(9))
        message = rf"^n_workers={n_workers} must be >= 1$"
        for run in (lambda: simulate_ensemble(params, 10, SeedSpec(9), n_workers),
                    lambda: simulate_batches(params, 10, SeedSpec(9), n_workers),
                    lambda: generate_records(params, cal, 10, SeedSpec(9), n_workers),
                    lambda: reconstruct_ensemble(recs, n_workers)):
            with pytest.raises(ValueError, match=message):
                run()

    def test_refused_beyond_available_memory(self, monkeypatch):
        monkeypatch.setattr(core, "available_memory", lambda: 4799)
        params = ModelParams(g=0.05, T1=math.inf, dt=0.5, x0=0.4, n_steps=5)
        with pytest.raises(ValueError, match="ensemble of 100 trajectories x 6 slices "
                                             "needs 4800 bytes of memory but only 4799"):
            simulate_ensemble(params, 100, SeedSpec(9))
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=2.0, dt=0.5)
        params = ModelParams(g=cal.kappa / 0.5, T1=math.inf, dt=0.5, x0=0.4, n_steps=5)
        with pytest.raises(ValueError, match="needs 8800 bytes"):
            generate_records(params, cal, 100, SeedSpec(9))
        monkeypatch.setattr(core, "available_memory", lambda: 4800)
        simulate_ensemble(params, 100, SeedSpec(9))


CAL_CHUNKS = CalibrationParams(I0=1.0, I1=-1.0, sigma=2.0, dt=0.5, T1=30.0)
PARAMS_CHUNKS = ModelParams(g=CAL_CHUNKS.kappa / 0.5, T1=30.0, dt=0.5, x0=0.4, n_steps=8)


def chunked_outputs(pipeline, workers):
    """Arrays one chunked pipeline writes, on n_traj across a chunk boundary."""
    n = CHUNK + 1234
    if pipeline == "simulate_ensemble":
        return [simulate_ensemble(PARAMS_CHUNKS, n, SeedSpec(123), n_workers=workers).values]
    gen_workers = workers if pipeline == "generate_records" else 1
    recs, latent = generate_records(
        PARAMS_CHUNKS, CAL_CHUNKS, n, SeedSpec(55), n_workers=gen_workers
    )
    if pipeline == "generate_records":
        return [recs.currents, latent.values]
    return [reconstruct_ensemble(recs, n_workers=workers).values]


@pytest.mark.parametrize(
    "pipeline", ["simulate_ensemble", "generate_records", "reconstruct_ensemble"]
)
def test_determinism_across_workers(pipeline):
    digests = {
        tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in chunked_outputs(pipeline, w))
        for w in (1, 2, 4)
    }
    assert len(digests) == 1


@pytest.mark.parametrize("tile", [1, 3])
def test_tile_size_changes_no_byte(monkeypatch, tile):
    # a tile of 1 is a store per step; at 1 and 3, on chunks and batches
    # of a few dozen trajectories, every output equals the 8-step tile's
    n, steps = 250, 13
    cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=1.5, dt=0.5, T1=3.0)
    params = ModelParams(g=cal.kappa / 0.5, T1=3.0, dt=0.5, x0=0.305, n_steps=steps)

    def outputs(workers):
        recs, latent = generate_records(params, cal, n, SeedSpec(4), workers)
        return [simulate_ensemble(params, n, SeedSpec(3), workers).values,
                np.concatenate(list(simulate_batches(params, n, SeedSpec(3), workers))),
                recs.currents, latent.values, reconstruct_ensemble(recs, workers).values]

    want = outputs(1)
    monkeypatch.setattr(sde, "TILE", tile)
    monkeypatch.setattr(sde, "CHUNK", 64)
    for workers in (1, 3):
        got = outputs(workers)
        assert all(same_bits(a, b) for a, b in zip(got, want))
        assert same_bits(got[4], got[3])
