import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from qtraj.rng import (
    STREAM_BRANCH,
    STREAM_NOISE,
    SeedSpec,
    _stream_uniform,
    counter_normal,
    counter_uniform,
)


def test_seed_spec_validation():
    SeedSpec(master_seed=0)
    SeedSpec(master_seed=2**64 - 1)
    with pytest.raises(ValueError):
        SeedSpec(master_seed=-1)
    with pytest.raises(ValueError):
        SeedSpec(master_seed=2**64)


def test_determinism_and_stream_separation():
    traj = np.arange(1000, dtype=np.uint64)
    a = counter_uniform(123, traj, 5, STREAM_BRANCH)
    b = counter_uniform(123, traj, 5, STREAM_BRANCH)
    assert np.array_equal(a, b)
    # changing any counter component changes the values
    for other in (
        counter_uniform(124, traj, 5, STREAM_BRANCH),
        counter_uniform(123, traj, 6, STREAM_BRANCH),
        counter_uniform(123, traj, 5, STREAM_NOISE),
        counter_uniform(123, traj + np.uint64(1), 5, STREAM_BRANCH),
    ):
        assert not np.array_equal(a, other)


def test_scalar_matches_array():
    traj = np.arange(10, dtype=np.uint64)
    arr = counter_uniform(9, traj, 3, 0)
    for i in range(10):
        assert counter_uniform(9, i, 3, 0) == arr[i]


def test_uniform_bounds():
    u = counter_uniform(7, np.arange(200_000, dtype=np.uint64), 0, 0)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert u.min() >= 2.0**-53
    assert u.max() <= 1.0 - 2.0**-53


MASK64 = 2**64 - 1
PHI, M1, M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def mix_int(x):
    """The SplitMix64 finalizer on a Python int."""
    for shift, mult in ((30, M1), (27, M2)):
        x = ((x ^ (x >> shift)) * mult) & MASK64
    return x ^ (x >> 31)


def unmix_int(y):
    """The inverse of :func:`mix_int`."""
    def unshift(y, shift):
        x = y
        for _ in range(64 // shift):
            x = y ^ (x >> shift)
        return x

    x = unshift(y, 31)
    for shift, mult in ((27, M2), (30, M1)):
        x = unshift((x * pow(mult, -1, 2**64)) & MASK64, shift)
    return x


@pytest.mark.parametrize("stream", (STREAM_BRANCH, STREAM_NOISE))
def test_uniform_equals_the_integer_formula(stream):
    # the uniform of the 52 top bits k of mix(h + PHI*(stream + 1)) is
    # bitwise (k + 0.5) * 2^-52: at both ends of k, whatever the low 12
    # bits, and at 1e6 random step hashes
    ks = (0, 1, 2**52 - 2, 2**52 - 1)
    targets = [k << 12 | low for k in ks for low in (0, 1, 0xFFF)]
    assert all(unmix_int(mix_int(t)) == t for t in targets)
    offset = PHI * (stream + 1) & MASK64
    edge_h = [(unmix_int(t) - offset) & MASK64 for t in targets]
    h = np.concatenate([
        np.array(edge_h, dtype=np.uint64),
        np.random.default_rng(8).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False),
    ])
    with np.errstate(over="ignore"):
        bits = h + np.uint64(offset)
    for shift, mult in ((30, M1), (27, M2)):
        with np.errstate(over="ignore"):
            bits = (bits ^ (bits >> np.uint64(shift))) * np.uint64(mult)
    bits ^= bits >> np.uint64(31)
    want = ((bits >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    u = _stream_uniform(h, stream, np.empty(h.size), np.empty(h.size, dtype=np.uint64))
    assert np.array_equal(u.view(np.uint64), want.view(np.uint64))
    assert list(u[: len(targets)]) == [(k + 0.5) * 2.0**-52 for k in ks for _ in range(3)]


def test_uniformity():
    u = counter_uniform(11, np.arange(100_000, dtype=np.uint64), 2, 1)
    p = stats.kstest(u, "uniform").pvalue
    assert p > 1e-3


def test_normal_moments():
    n = 1_000_000
    x = counter_normal(5, np.arange(n, dtype=np.uint64), 0, STREAM_NOISE)
    assert np.all(np.isfinite(x))
    assert abs(x.mean()) < 4.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # symmetric tails, no missing mass at sane thresholds
    assert abs((x > 1.96).mean() - 0.025) < 4 * np.sqrt(0.025 * 0.975 / n)


def test_normal_distribution_ks():
    x = counter_normal(17, np.arange(100_000, dtype=np.uint64), 4, 0)
    p = stats.kstest(x, "norm").pvalue
    assert p > 1e-3


# Statistical checks of the streams under the trajectory keys
# mix(mix(seed) + PHI*(traj + 1)).
PHI = 0x9E3779B97F4A7C15
N_STAT = 1_000_000


def lag1_corr(a, b):
    """Pearson correlation of paired variates, with its 5-sigma bound
    for independent pairs."""
    return abs(np.corrcoef(a, b)[0, 1]), 5.0 / np.sqrt(a.size)


def test_seed_offset_collision_gone():
    # with the seed added unmixed, seed PHI*5 at trajectories 0..3 was
    # seed 0 at trajectories 5..8, variate for variate
    traj = np.arange(4, dtype=np.uint64)
    a = counter_uniform(PHI * 5 % 2**64, traj, 3, STREAM_BRANCH)
    b = counter_uniform(0, traj + np.uint64(5), 3, STREAM_BRANCH)
    assert not np.any(a == b)


def test_uniformity_ks_1e6():
    u = counter_uniform(2024, np.arange(N_STAT, dtype=np.uint64), 7, STREAM_BRANCH)
    assert stats.kstest(u, "uniform").pvalue > 1e-3


def test_lag1_adjacent_trajectories_steps_streams():
    traj = np.arange(N_STAT, dtype=np.uint64)
    u = counter_uniform(99, traj, 0, STREAM_BRANCH)
    r, bound = lag1_corr(u[:-1], u[1:])
    assert r < bound
    r, bound = lag1_corr(u, counter_uniform(99, traj, 1, STREAM_BRANCH))
    assert r < bound
    r, bound = lag1_corr(u, counter_uniform(99, traj, 0, STREAM_NOISE))
    assert r < bound


@pytest.mark.parametrize("k", [1, 2, 5, 2**32])
def test_seeds_phi_multiples_apart(k):
    # seed PHI*k against seed 0, at the same trajectories and at
    # trajectories shifted by k (where the unmixed keys coincided)
    n = N_STAT // 4
    traj = np.arange(n, dtype=np.uint64)
    a = counter_uniform(PHI * k % 2**64, traj, 0, STREAM_NOISE)
    for shift in (0, k):
        b = counter_uniform(0, traj + np.uint64(shift), 0, STREAM_NOISE)
        r, bound = lag1_corr(a, b)
        assert r < bound


def test_normal_tails_to_the_cap():
    # the uniforms live in [2^-53, 1 - 2^-53], so normals are capped at
    # ndtri(2^-53) ~ -8.21 sigma, symmetrically
    cap = -float(ndtri(2.0**-53))
    assert 8.2 < cap < 8.21
    assert float(ndtri(1.0 - 2.0**-53)) == pytest.approx(cap, rel=1e-3)
    x = counter_normal(31, np.arange(N_STAT, dtype=np.uint64), 2, STREAM_NOISE)
    assert np.max(np.abs(x)) <= cap
    # two-sided tail counts beyond 2, 3, 4 and 5 sigma within 5 Poisson sigma
    for t in (2.0, 3.0, 4.0, 5.0):
        expected = N_STAT * 2.0 * ndtr(-t)
        for side in (x > t, x < -t):
            got = np.count_nonzero(side)
            assert abs(got - expected / 2.0) < 5.0 * np.sqrt(expected / 2.0) + 1.0
