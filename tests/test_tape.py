"""Unit tests for the reverse-mode tape."""

import numpy as np
import pytest

from loadcast.errors import StaleTapeError
from loadcast.gradcheck import random_day_inputs
from loadcast.network import ModelConfig, model_build, model_new_state, model_step
from loadcast.tape import Tape

# -- test-local nodes: each hands back one kind of gradient the tape accepts


def linear(w, x):
    """``w @ x``; w's gradient is a list of one factor pair."""
    xv = x.value
    return x.tape.record(w @ xv, (x.tape.leaf(w), x),
                         lambda g: ([(g, xv)], w.T @ g))


def split_rows(w, x, k):
    """The first ``k`` rows of w act on x and the rest on ``x * x``, like a
    GRU step's two row blocks; w's gradient is a list of two factor pairs."""
    xv = x.value
    sq = xv * xv

    def vjp(g):
        top = np.concatenate((g[:k], np.zeros(len(g) - k)))
        bottom = np.concatenate((np.zeros(k), g[k:]))
        return ([(top, xv), (bottom, sq)],
                w[:k].T @ g[:k] + 2.0 * xv * (w[k:].T @ g[k:]))

    value = np.concatenate((w[:k] @ xv, w[k:] @ sq))
    return x.tape.record(value, (x.tape.leaf(w), x), vjp)


def tanh(a):
    """Elementwise tanh; a dense gradient."""
    y = np.tanh(a.value)
    return a.tape.record(y, (a,), lambda g: (g * (1.0 - y * y),))


def build_graph(tape, w, b, x):
    """A small graph over lists of one and of two factor pairs, dense
    gradients, shortcuts and slices; returns its outputs."""
    xv = tape.leaf(x)
    h = split_rows(w, xv, 2) + tape.leaf(b)
    z = tanh(h) + xv[1:4]
    return [linear(w, xv) + z, z[0:2]]


def scalar_loss(tape, w, b, x, weights):
    outs = build_graph(tape, w, b, x)
    return float(sum(o.value @ wt for o, wt in zip(outs, weights))), outs


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = rng.normal(size=4)
    weights = [rng.normal(size=3), rng.normal(size=2)]

    tape = Tape()
    _, outs = scalar_loss(tape, w, b, x, weights)
    grads = tape.backward(zip(outs, weights), [w, b, x])

    eps = 1e-6
    for arr, g in zip([w, b, x], grads):
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
    (g,) = tape.backward([(out, np.array([1.0, 1.0]))], [b])
    np.testing.assert_allclose(g, [2.0, 2.0])


def test_backward_detects_mutated_leaf():
    tape = Tape()
    b = np.ones(2)
    v = tape.leaf(b)
    out = v + v
    b += 1.0
    with pytest.raises(StaleTapeError):
        tape.backward([(out, np.ones(2))], [b])


def test_untracked_inputs_and_unread_arrays_get_zero_gradients():
    # a None parent carries no gradient; a leaf the seeds never reach and an
    # array the tape never saw both read as zeros of their shape
    tape = Tape()
    arr, unread = np.ones(3), np.ones((2, 2))
    v = tape.leaf(arr)
    tape.leaf(unread)
    c = np.array([0.5, -1.0, 2.0])
    out = tape.record(v.value * c, (v, None), lambda g: (g * c, g * v.value))
    g_arr, g_unread, g_unknown = tape.backward(
        [(out, np.ones(3))], [arr, unread, np.ones(4)])
    np.testing.assert_array_equal(g_arr, c)
    np.testing.assert_array_equal(g_unread, np.zeros((2, 2)))
    np.testing.assert_array_equal(g_unknown, np.zeros(4))


def test_var_slices_record_nothing():
    tape = Tape()
    v = tape.leaf(np.arange(6.0))
    part = v[1:5][2:]
    assert len(tape) == 1
    assert (part.index, part.lo, part.hi) == (v.index, 3, 5)
    np.testing.assert_array_equal(part.value, [3.0, 4.0])
    assert len(v[4:2]) == 0
    with pytest.raises(ValueError):
        v[::2]


def test_cross_tape_use_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ValueError):
        t2.backward([(a, np.ones(2))], [])
    with pytest.raises(ValueError):
        a + b


def test_evaluation_tape_cannot_run_backward():
    # the tape an evaluation step records on takes no fingerprints, so it
    # cannot tell a mutated leaf and must refuse a backward sweep
    model = model_build(ModelConfig(cell_variant="drnn", hidden_size=3,
                                    out_size=2, embed_size=4), seed=1)
    ext = random_day_inputs(np.random.default_rng(2), 1)[0]
    out = model_step(model, model_new_state(model), ext)
    with pytest.raises(ValueError, match="forward-only"):
        out.point.tape.backward([(out.point, np.ones(24))], model.blocks())
    tape = Tape(forward_only=True)
    v = tape.leaf(np.ones(2))
    with pytest.raises(ValueError, match="forward-only"):
        tape.backward([(v + v, np.ones(2))], [])


def test_factor_pairs_and_dense_gradient_sum_exactly():
    # a leaf used by many nodes gets lists of one or two factor pairs,
    # reduced by one matrix product; a custom node adds a dense gradient on
    # top
    rng = np.random.default_rng(11)
    w = rng.normal(size=(5, 4))
    dense = rng.normal(size=(5, 4))
    xs = [rng.normal(size=4) for _ in range(40)]
    gs = [rng.normal(size=5) for _ in range(40)]
    tape = Tape()
    seeds = [(linear(w, tape.leaf(x)), g) for x, g in zip(xs[:20], gs[:20])]
    seeds += [(split_rows(w, tape.leaf(x), 3), g)
              for x, g in zip(xs[20:], gs[20:])]
    wv = tape.leaf(w)
    total = tape.record(np.array([np.sum(w * dense)]), (wv,),
                        lambda g: (g[0] * dense,))
    seeds.append((total, np.array([0.5])))
    (got,) = tape.backward(seeds, [w])
    want = 0.5 * dense
    for x, g in zip(xs[:20], gs[:20]):
        want = want + np.outer(g, x)
    for x, g in zip(xs[20:], gs[20:]):
        want = want + np.vstack((np.outer(g[:3], x), np.outer(g[3:], x * x)))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
