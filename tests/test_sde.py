import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, ndtr, ndtri

from qtraj import core
from qtraj.bayesian import _meas_z, generate_records, reconstruct_ensemble
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
    _diffusion_z,
    _relax_z,
    simulate_batches,
    simulate_ensemble,
)


def sample_diffusion_increments(seed, n, kappa, x0=0.5, step=0):
    """Monte Carlo draws of one exact diffusion step from x0."""
    traj = np.arange(n, dtype=np.uint64)
    z0 = to_logodds(x0)
    u = counter_uniform(seed, traj, step, STREAM_BRANCH)
    xi = counter_normal(seed, traj, step, STREAM_NOISE)
    return _diffusion_z(np.full(n, z0), kappa, u, xi) - z0


def relax1(z, delta):
    """One exact relaxation step of a size-1 state array."""
    return _relax_z(np.array([z]), delta)[0]


def draws(seed, n, step):
    traj = np.arange(n, dtype=np.uint64)
    return (counter_uniform(seed, traj, step, STREAM_BRANCH),
            counter_normal(seed, traj, step, STREAM_NOISE))


# Plain allocating forms of the counter hash and the step kernels: the
# in-place kernels that replaced them must reproduce them bit for bit.
PHI = np.uint64(0x9E3779B97F4A7C15)


def mix_ref(h):
    h = h ^ (h >> np.uint64(30))
    h = h * np.uint64(0xBF58476D1CE4E5B9)
    h = h ^ (h >> np.uint64(27))
    h = h * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def uniform_ref(seed, traj, step, stream):
    traj = np.asarray(traj, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = mix_ref(np.uint64(seed) + PHI * (traj + np.uint64(1)))
        h = mix_ref(h + PHI * np.uint64(step + 1))
        h = mix_ref(h + PHI * np.uint64(stream + 1))
    return ((h >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def relax_ref(z, delta):
    if delta == 0.0:
        return z
    grow = z + 0.5 * delta + 0.5 * np.log1p(-math.expm1(-delta) * np.exp(-2.0 * z))
    reentry = 0.5 * np.log(math.expm1(delta) + np.exp(delta + 2.0 * z))
    return np.clip(np.where(z >= 0.0, grow, reentry), -Z_CAP, Z_CAP)


def diffusion_ref(z, kappa, u, xi):
    branch = np.where(u < expit(2.0 * z), 1.0, -1.0)
    znew = np.clip(z + kappa * branch + math.sqrt(kappa) * xi, -Z_CAP, Z_CAP)
    return np.where(np.abs(z) >= Z_CAP, z, znew)


def meas_ref(z, im, i0, i1, sigma):
    coeff = (i0 - i1) / (4.0 * sigma**2)
    znew = np.clip(z + coeff * (2.0 * im - i0 - i1), -Z_CAP, Z_CAP)
    return np.where(np.abs(z) >= Z_CAP, z, znew)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# the caps, signed zeros and tiny values, then states across the range
ORACLE_Z = np.concatenate([
    [Z_CAP, -Z_CAP, 0.0, -0.0, 1e-300, -1e-300, np.nextafter(Z_CAP, 0), -np.nextafter(Z_CAP, 0)],
    np.random.default_rng(17).normal(0.0, 8.0, 400).clip(-Z_CAP, Z_CAP),
])
ORACLE_STEPS = (0, 2**32)


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
        want = relax_ref(ORACLE_Z, delta)
        assert same_bits(_relax_z(ORACLE_Z, delta), want)
        z = ORACLE_Z.copy()
        assert _relax_z(z, delta, out=z, work=np.empty((3, z.size))) is z
        assert same_bits(z, want)

    @pytest.mark.parametrize("kappa", (0.0, 1e-12, 0.0056, 2.0))
    @pytest.mark.parametrize("step", ORACLE_STEPS)
    def test_diffusion(self, kappa, step):
        u, xi = draws(5, ORACLE_Z.size, step)
        want = diffusion_ref(ORACLE_Z, kappa, u, xi)
        assert same_bits(_diffusion_z(ORACLE_Z, kappa, u, xi), want)
        z = ORACLE_Z.copy()
        assert _diffusion_z(z, kappa, u, xi, out=z, work=np.empty((2, z.size))) is z
        assert same_bits(z, want)
        # a draw exactly at the branch threshold takes the lower branch
        p = expit(2.0 * ORACLE_Z)
        assert same_bits(_diffusion_z(ORACLE_Z, kappa, p, xi),
                         diffusion_ref(ORACLE_Z, kappa, p, xi))


    @pytest.mark.parametrize("cal", [(1.0, -1.0, 1.0), (128.443, 127.856, 5.56)])
    def test_meas(self, cal):
        i0, i1, sigma = cal
        im = np.random.default_rng(2).normal(i0, 3.0 * sigma, ORACLE_Z.size)
        im[:4] = [i0, i1, 0.5 * (i0 + i1), 1e6]
        want = meas_ref(ORACLE_Z, im, i0, i1, sigma)
        assert same_bits(_meas_z(ORACLE_Z, im, i0, i1, sigma), want)
        z = ORACLE_Z.copy()
        assert _meas_z(z, im, i0, i1, sigma, out=z, work=np.empty((2, z.size))) is z
        assert same_bits(z, want)

    def test_simulate_and_generate_match_reference_loops(self):
        # the whole step loop, with its shared scratch, against the plain
        # formulas: relax, middle update, relax, store rho00
        n, seed, steps = 3000, 41, 12
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=1.5, dt=0.5, T1=3.0)
        params = ModelParams(g=cal.kappa / 0.5, T1=3.0, dt=0.5, x0=0.305, n_steps=steps)
        ens = simulate_ensemble(params, n, SeedSpec(seed))
        recs, latent = generate_records(params, cal, n, SeedSpec(seed))
        traj = np.arange(n, dtype=np.uint64)
        z_sim = z_gen = np.full(n, to_logodds(0.305))
        half = 0.5 * params.delta
        for s in range(steps):
            u = uniform_ref(seed, traj, s, STREAM_BRANCH)
            xi = ndtri(uniform_ref(seed, traj, s, STREAM_NOISE))
            z_sim = relax_ref(diffusion_ref(relax_ref(z_sim, half), params.kappa, u, xi), half)
            z_gen = relax_ref(z_gen, half)
            im = np.where(u < expit(2.0 * z_gen), cal.I0, cal.I1) + cal.sigma * xi
            assert same_bits(recs.currents[:, s], im)
            z_gen = relax_ref(meas_ref(z_gen, im, cal.I0, cal.I1, cal.sigma), half)
            assert same_bits(ens.slice_values(s + 1), to_rho(z_sim))
            assert same_bits(latent.slice_values(s + 1), to_rho(z_gen))


class TestRelaxation:
    def test_ground_state_unchanged(self):
        out = relax1(to_logodds(1.0), 0.37)  # rho11 = 0
        assert to_rho(out) == 1.0

    def test_half_life(self):
        out = relax1(to_logodds(0.0), math.log(2.0))  # rho11 = 1
        assert math.isclose(to_rho(-out), 0.5, rel_tol=1e-12)

    def test_experiment_scale_step(self):
        # oracle: rho11' = 0.695 * exp(-dt/T1) with dt=0.5, T1=45
        out = relax1(to_logodds(0.305), 0.5 / 45.0)
        expected = 0.695 * math.exp(-1.0 / 90.0)
        assert math.isclose(expected, 0.687320520559276, rel_tol=1e-14)
        assert math.isclose(to_rho(-out), expected, rel_tol=1e-12)

    def test_delta_zero_identity(self):
        z = np.array([1.3])
        assert _relax_z(z, 0.0) is z

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            _relax_z(np.zeros(1), -0.1)

    def test_cap_reentry(self):
        # rho00 = 0 is not absorbing under relaxation
        out = relax1(-Z_CAP, 0.01)
        assert math.isclose(to_rho(out), -math.expm1(-0.01), rel_tol=1e-9)
        # rho00 = 1 stays put
        assert relax1(Z_CAP, 0.01) == Z_CAP

    def test_half_steps_compose(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-28, 28, 500)
        d = 0.013
        direct = _relax_z(z, d)
        halves = _relax_z(_relax_z(z, d / 2), d / 2)
        assert np.allclose(direct, halves, rtol=1e-12, atol=1e-12)

    def test_matches_rho_space_rule(self):
        z = to_logodds(np.random.default_rng(1).random(100))
        out = _relax_z(z, 0.2)
        assert np.allclose(to_rho(-out), to_rho(-z) * math.exp(-0.2), rtol=1e-12, atol=0)


class TestDiffusion:
    def test_zero_kappa(self):
        z = np.full(1000, 0.7)
        assert np.array_equal(_diffusion_z(z, 0.0, *draws(0, 1000, 0)), z)

    def test_negative_kappa(self):
        with pytest.raises(ValueError):
            _diffusion_z(np.zeros(1), -1.0, *draws(0, 1, 0))

    def test_eigenstate_fixed(self):
        z = np.array([to_logodds(1.0)])
        for step in range(100):
            z = _diffusion_z(z, 0.5, *draws(2, 1, step))
            assert to_rho(z[0]) == 1.0

    def test_moments_at_pinned_state(self):
        # pinned branch (rho00 = 1 in float, z below the cap): the
        # increment is exactly N(kappa, kappa)
        n = 1_000_000
        kappa = 0.01
        traj = np.arange(n, dtype=np.uint64)
        u = counter_uniform(99, traj, 0, STREAM_BRANCH)
        xi = counter_normal(99, traj, 0, STREAM_NOISE)
        dz = _diffusion_z(np.full(n, 25.0), kappa, u, xi) - 25.0
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
        z0 = to_logodds(0.4)
        traj = np.arange(n, dtype=np.uint64)
        z = np.full(n, z0)
        for s in range(2):
            u = counter_uniform(31, traj, s, STREAM_BRANCH)
            xi = counter_normal(31, traj, s, STREAM_NOISE)
            z = _diffusion_z(z, kappa, u, xi)
        single = z0 + sample_diffusion_increments(77, n, 2 * kappa, x0=0.4)
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
        z = np.full(50, to_logodds(0.57))
        for step in range(3):
            z = _diffusion_z(z, 0.2, *draws(8, 50, step))
            assert np.array_equal(ens.slice_values(step + 1), to_rho(z))

    def test_no_diffusion_reduces_to_relaxation(self):
        params = ModelParams(g=0.0, T1=6.25, dt=0.5, x0=0.4, n_steps=1)
        ens = simulate_ensemble(params, 1, SeedSpec(9))
        expected = to_rho(relax1(to_logodds(0.4), 0.08))
        assert math.isclose(ens.values[0, 1], expected, rel_tol=1e-12)


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
        expected = to_rho(to_logodds(0.305))
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
