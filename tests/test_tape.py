"""Unit tests for the reverse-mode tape."""

import numpy as np
import pytest

from loadcast.errors import StaleTapeError
from loadcast.tape import Tape, concat, exp_clipped, matvec, narrow


def build_graph(tape, w, b, x):
    """A small mixed graph touching every op."""
    xv = tape.leaf(x)
    h = matvec(w, xv) + tape.leaf(b)
    z = h * h + narrow(concat([h, xv]), 1, 3)
    e = exp_clipped(z, -2.0, 2.0)
    both = concat([e, narrow(z, 0, 2)])
    return both


def scalar_loss(tape, w, b, x, weights):
    out = build_graph(tape, w, b, x)
    return float(out.value @ weights), out


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = rng.normal(size=4)
    weights = rng.normal(size=5)

    tape = Tape()
    _, out = scalar_loss(tape, w, b, x, weights)
    grads = tape.backward([(out, weights)])

    eps = 1e-6
    for arr, g in [(w, grads.of_array(w)), (b, grads.of_array(b)), (x, grads.of_array(x))]:
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = scalar_loss(Tape(), w, b, x, weights)
            flat[i] = orig - eps
            dn, _ = scalar_loss(Tape(), w, b, x, weights)
            flat[i] = orig
            fd = (up - dn) / (2 * eps)
            assert gflat[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_leaf_is_cached_by_identity():
    tape = Tape()
    b = np.ones(3)
    v1 = tape.leaf(b)
    v2 = tape.leaf(b)
    assert v1.index == v2.index
    # a distinct array with equal contents gets its own node
    assert tape.leaf(np.ones(3)).index != v1.index


def test_shared_leaf_accumulates_gradient():
    tape = Tape()
    b = np.array([1.0, 2.0])
    v = tape.leaf(b)
    out = v + v
    grads = tape.backward([(out, np.array([1.0, 1.0]))])
    np.testing.assert_allclose(grads.of_array(b), [2.0, 2.0])


def test_backward_detects_mutated_leaf():
    tape = Tape()
    b = np.ones(2)
    v = tape.leaf(b)
    out = v * v
    b += 1.0
    with pytest.raises(StaleTapeError):
        tape.backward([(out, np.ones(2))])


def test_exp_clip_gradient_is_zero_outside_band():
    tape = Tape()
    x = np.array([-5.0, 0.0, 5.0])
    v = tape.leaf(x)
    out = exp_clipped(v, -2.0, 2.0)
    np.testing.assert_allclose(out.value, np.exp([-2.0, 0.0, 2.0]))
    grads = tape.backward([(out, np.ones(3))])
    g = grads.of_array(x)
    assert g[0] == 0.0 and g[2] == 0.0
    assert g[1] == pytest.approx(1.0)


def test_constants_flow_but_are_not_leaves():
    tape = Tape()
    c = tape.constant(np.zeros(3))
    arr = np.ones(3)
    v = tape.leaf(arr)
    out = v * c
    grads = tape.backward([(out, np.ones(3))])
    # d(v * 0)/dv = 0, and unregistered arrays report zero gradients
    np.testing.assert_allclose(grads.of_array(arr), np.zeros(3))
    np.testing.assert_allclose(grads.of_array(np.ones(3)), np.zeros(3))


def test_cross_tape_use_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ValueError):
        t2.backward([(a, np.ones(2))])
    with pytest.raises(ValueError):
        a + b


def test_factor_pairs_and_dense_gradient_sum_exactly():
    # a leaf used by many matvecs gets rank-1 factor pairs, reduced by one
    # matrix product; a custom node adds a dense gradient on top
    rng = np.random.default_rng(11)
    w = rng.normal(size=(5, 4))
    dense = rng.normal(size=(5, 4))
    xs = [rng.normal(size=4) for _ in range(40)]
    gs = [rng.normal(size=5) for _ in range(40)]
    tape = Tape()
    seeds = [(matvec(w, tape.constant(x)), g) for x, g in zip(xs, gs)]
    wv = tape.leaf(w)
    total = tape.record(np.array([np.sum(w * dense)]), (wv,),
                        lambda g: (g[0] * dense,))
    seeds.append((total, np.array([0.5])))
    got = tape.backward(seeds).of_array(w)
    want = 0.5 * dense
    for x, g in zip(xs, gs):
        want = want + np.outer(g, x)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
