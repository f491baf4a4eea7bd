import re

import numpy as np
import pytest

from han.errors import ConfigError
from han.rng import Rng


def test_same_seed_same_stream():
    a = Rng(42).uniform((1000,))
    b = Rng(42).uniform((1000,))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform((100,)), Rng(2).uniform((100,)))


def test_named_streams_are_independent():
    base = Rng(7)
    a = base.stream("dropout").uniform((100,))
    b = base.stream("augment").uniform((100,))
    assert not np.array_equal(a, b)


def test_draw_batching_does_not_change_values():
    whole = Rng(3, "s").uniform((10,))
    r = Rng(3, "s")
    pieces = np.concatenate([r.uniform((4,)), r.uniform((6,))])
    assert np.array_equal(whole, pieces)


def _scalar_splitmix_reference(seed: int, name: str, count: int) -> list[float]:
    # pure-int rebuild of the documented generator, kept free of numpy
    mask = (1 << 64) - 1

    def mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & mask
    state0 = mix(mix(seed) ^ h)
    out = []
    for i in range(1, count + 1):
        raw = mix((state0 + i * 0x9E3779B97F4A7C15) & mask)
        out.append((raw >> 11) * 2.0 ** -53)
    return out


def test_matches_scalar_reference_implementation():
    for seed, name in ((0, ""), (1, ""), (123456, "dropout/3/17")):
        got = Rng(seed, name).uniform((8,))
        want = _scalar_splitmix_reference(seed, name, 8)
        assert np.array_equal(got, np.asarray(want))


def test_uniform_range_and_spread():
    u = Rng(5).uniform((20000,), -2.0, 3.0)
    assert u.min() >= -2.0 and u.max() < 3.0
    assert abs(u.mean() - 0.5) < 0.05


def test_normal_moments():
    z = Rng(6).normal((40000,), 1.0, 2.0)
    assert abs(z.mean() - 1.0) < 0.05
    assert abs(z.std() - 2.0) < 0.05


def test_permutation_is_a_permutation():
    p = Rng(8).permutation(50)
    assert sorted(p.tolist()) == list(range(50))


def test_randint_bounds():
    r = Rng(9)
    values = [r.randint(3, 9) for _ in range(200)]
    assert min(values) >= 3 and max(values) < 9
    with pytest.raises(ValueError):
        r.randint(5, 5)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        Rng(-1)


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    ("a", "seed must be an integer, got 'a'"),
], ids=["fraction", "bool", "text"])
def test_seed_that_is_not_an_integer_rejected(seed, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Rng(seed)
