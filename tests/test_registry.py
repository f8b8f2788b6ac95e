"""The example systems' kernels against their textbook formulas."""

import numpy as np
import pytest

from conedyn import registry

A = np.array([[2.0, 0.5], [0.5, 2.0]])


def textbook_f(x):
    return -x + np.tanh(x @ A.T)


def textbook_jac(x):
    # diag(sech^2(Ax)) A - I
    return (1.0 / np.cosh(x @ A.T) ** 2)[..., :, None] * A - np.eye(2)


def same_bits(a, b):
    """Equal shapes and values, nan where nan, and equal signs (so -0.0 is
    not 0.0): equal bits up to the payload of a nan."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def coop2d_points():
    rng = np.random.default_rng(7)
    X = rng.normal(scale=3.0, size=(40, 2))
    X[:5] *= 1e-300  # tiny, but their halves are not subnormal
    special = np.array([
        [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
        [400.0, 0.0], [0.0, -400.0], [300.0, 300.0], [-1e5, 3.0],
        [np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [-np.inf, 1.0],
        [np.inf, -np.inf], [np.inf, np.inf], [np.nan, np.inf],
    ])
    return np.concatenate([X, special])


@pytest.mark.parametrize("shape", [(2,), (1, 2), (55, 2), (5, 11, 2)])
def test_coop2d_kernels_equal_the_textbook_formulas_bit_for_bit(shape):
    s = registry.get_system("coop2d")
    X = coop2d_points()
    finite = np.isfinite(X).all(axis=1)
    assert np.any(np.abs(X[finite] @ A.T) > 710.0)  # cosh overflows: sech^2 0
    k = int(np.prod(shape[:-1]))
    if k == 1:
        rows = [x.reshape(shape) for x in X]
    else:
        rows = [X[:k].reshape(shape), X[-k:].reshape(shape)]
    with np.errstate(over="ignore", invalid="ignore"):
        for x in rows:
            assert same_bits(s.f(x), textbook_f(x))
            J = s.jac(x)
            assert J.shape == x.shape[:-1] + (2, 2)
            assert same_bits(J, textbook_jac(x))


def test_coop2d_kernels_take_lists_and_empty_batches():
    s = registry.get_system("coop2d")
    assert same_bits(s.f([0.3, -0.2]), textbook_f(np.array([0.3, -0.2])))
    assert same_bits(s.jac([0.3, -0.2]), textbook_jac(np.array([0.3, -0.2])))
    assert s.f(np.zeros((0, 2))).shape == (0, 2)
    assert s.jac(np.zeros((0, 2))).shape == (0, 2, 2)


def test_coop2d_kernels_do_not_write_into_their_input():
    s = registry.get_system("coop2d")
    x = np.array([[0.3, -0.2], [1.0, 2.0]])
    x.setflags(write=False)
    s.f(x)
    s.jac(x)
    assert np.array_equal(x, [[0.3, -0.2], [1.0, 2.0]])
