"""Counter-based generator: reference-vector equality, stream independence,
and distributional sanity checks."""

import numpy as np
import pytest

from fsnet.rng import RngState, _mix64

from helpers import numpy_gumbel_formula, numpy_uniform_formula, ref_uniform_stream

# published reference outputs of the splitmix64 stream started at state 0,
# i.e. finalizer applied to k * golden-gamma for k = 1, 2, 3
SPLITMIX64_VECTORS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_mix64_matches_published_vectors():
    gamma = 0x9E3779B97F4A7C15
    for k, expected in enumerate(SPLITMIX64_VECTORS, start=1):
        got = int(_mix64(np.uint64((k * gamma) & ((1 << 64) - 1))))
        assert got == expected, hex(got)


def test_uniform_matches_pure_python_reference():
    rng = RngState(42)
    got = rng.uniform(50)
    expected = ref_uniform_stream(42, 50)
    assert np.array_equal(got, np.array(expected))


@pytest.mark.parametrize("counter", [0, 1, 1000, 2**40])
@pytest.mark.parametrize("shape", [(), (0,), 1, (7,), (3, 5), (10, 7129)])
def test_in_place_draws_equal_the_fresh_array_formula(counter, shape):
    # three consecutive draws of each kind from one state, against the
    # formula at the counter each draw starts from; the state is set to one
    # that has drawn `counter` words, which 2**40 draws would take too long to reach
    rng = RngState(42)
    rng._counter = counter
    for _ in range(3):
        for draw, formula in ((rng.uniform, numpy_uniform_formula), (rng.gumbel, numpy_gumbel_formula)):
            start = rng.counter
            got, want = np.asarray(draw(shape)), np.asarray(formula(42, start, shape))
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
            assert rng.counter == start + (int(np.prod(shape)) if shape != () else 1)


def test_same_seed_same_stream():
    a = RngState(7).uniform(1000)
    b = RngState(7).uniform(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngState(7).uniform(100)
    b = RngState(8).uniform(100)
    assert not np.array_equal(a, b)


def test_uniform_open_interval():
    u = RngState(3).uniform(100_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_counter_advances_and_continues_stream():
    rng = RngState(5)
    first = rng.uniform(10)
    assert rng.counter == 10
    rest = rng.uniform(10)
    combined = RngState(5).uniform(20)
    assert np.array_equal(np.concatenate([first, rest]), combined)


def test_scalar_uniform():
    rng = RngState(11)
    x = rng.uniform()
    assert isinstance(x, float) and 0.0 < x < 1.0
    assert rng.counter == 1


def test_derive_is_label_keyed_and_parent_state_free():
    root = RngState(123)
    a = root.derive("gumbel").uniform(5)
    root.uniform(17)  # consuming the parent must not shift child streams
    b = root.derive("gumbel").uniform(5)
    c = root.derive("dropout").uniform(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derived_stream_differs_from_parent():
    root = RngState(123)
    assert not np.array_equal(root.derive("x").uniform(8), RngState(123).uniform(8))


def test_normal_matches_box_muller_of_reference_stream():
    # z_i = sqrt(-2 ln u1_i) * cos(2 pi u2_i), u1 and u2 drawn as two blocks
    got = RngState(9).normal((2, 3))
    u = ref_uniform_stream(9, 12)
    u1, u2 = np.array(u[:6]), np.array(u[6:])
    expected = (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)).reshape(2, 3)
    assert np.array_equal(got, expected)


def test_normal_moments():
    z = RngState(17).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_gumbel_is_transform_of_uniform_stream():
    got = RngState(21).gumbel(40)
    u = np.clip(np.array(ref_uniform_stream(21, 40)), 1e-12, 1.0 - 1e-12)
    assert np.array_equal(got, -np.log(-np.log(u)))


def test_gumbel_transform_fixed_points():
    # u = 1/e maps to 0; u = e^{-e} maps to -1
    class Fixed(RngState):
        def uniform(self, shape=()):
            return np.array([1.0 / np.e, np.exp(-np.e)])

    g = Fixed(0).gumbel(2)
    assert abs(g[0]) < 1e-12
    assert abs(g[1] + 1.0) < 1e-12


def test_gumbel_mean_near_euler_mascheroni():
    g = RngState(33).gumbel(1_000_000)
    assert abs(g.mean() - 0.5772156649) < 0.01


def test_sample_gumbel_deterministic_per_state():
    assert np.array_equal(RngState(4).gumbel(10), RngState(4).gumbel(10))


def test_permutation_is_permutation():
    for n in (0, 1, 2, 7, 40):
        p = RngState(2).permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_permutation_deterministic_and_seed_sensitive():
    assert np.array_equal(RngState(6).permutation(20), RngState(6).permutation(20))
    assert not np.array_equal(RngState(6).permutation(20), RngState(60).permutation(20))


def test_permutation_first_position_roughly_uniform():
    # over many shuffles of 4 items, each item should lead ~25% of the time
    counts = np.zeros(4)
    rng = RngState(8)
    for _ in range(4000):
        counts[rng.permutation(4)[0]] += 1
    assert np.all(np.abs(counts / 4000 - 0.25) < 0.03)
