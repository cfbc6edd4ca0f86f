"""Unit tests for the chain tape and its reverse sweeps."""

import numpy as np
import pytest

from loadcast.errors import StaleTapeError
from loadcast.gradcheck import random_day_inputs
from loadcast.network import (
    HEAD,
    HEAD_SIZE,
    ModelConfig,
    model_build,
    model_new_state,
    model_unroll,
)
from loadcast.tape import Tape

# -- a test-local recurrent chain and a head chain on its outputs


def unroll(tape, w, q, qb, xs, carried):
    """Per step, ``v = tanh(w @ [x; h at lag 1; h at lag 2; 1])`` with
    ``h = v[:n]`` kept for later steps and ``y = v[n:]`` the output, then
    ``q @ y + qb``.  ``carried`` are the h values before the first step
    (the last one at lag 1), so the first two steps read state from before
    the chain.  Returns the head values."""
    n = len(carried[0])
    i = len(xs[0])
    hs = list(carried)
    outs = []
    for x in xs:
        z = np.concatenate([x, hs[-1], hs[-2], [1.0]])
        v = np.tanh(w @ z)

        def vjp(g, v=v, z=z):
            dpre = g * (1.0 - v * v)
            dz = dpre @ w
            return [(dpre, z)], dz[:i], dz[i:i + n], dz[i + n:i + 2 * n]

        y = v[n:]
        out = q @ y + qb
        if tape is not None:
            tape.record("rnn", (1, *v.shape), (n, 2 * n),
                        ((1, 0, n), (2, 0, n)), (w,), [vjp])
            tape.record("head", (1, *out.shape), (0, len(out)), (), (q, qb),
                        [lambda g, y=y: ([(g, y)], g, g @ q)])
        hs.append(v[:n])
        outs.append(out)
    return outs


def test_gradients_match_finite_differences():
    # the sweep must stop at the chain's first step: the carried h values
    # read by steps 0 and 1 are constants, and a one-step chain reads both
    for steps in (6, 1):
        check_unroll_gradients(np.random.default_rng(steps), steps)


def check_unroll_gradients(rng, steps, n=3, i=2, k=4):
    w = rng.normal(size=(2 * n, i + 2 * n + 1))
    q = rng.normal(size=(k, n))
    qb = rng.normal(size=k)
    xs = [rng.normal(size=i) for _ in range(steps)]
    carried = [rng.normal(size=n), rng.normal(size=n)]
    weights = [rng.normal(size=k) for _ in range(steps)]

    def loss():
        outs = unroll(None, w, q, qb, xs, carried)
        return float(sum(o @ wt for o, wt in zip(outs, weights)))

    tape = Tape()
    unroll(tape, w, q, qb, xs, carried)
    dxs = tape.backward("rnn", tape.backward("head", weights))
    grads = tape.grads([w, q, qb]) + dxs

    eps = 1e-6
    for arr, g in zip([w, q, qb] + xs, grads):
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss()
            flat[j] = orig - eps
            dn = loss()
            flat[j] = orig
            fd = (up - dn) / (2 * eps)
            assert gflat[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_upstream_terms_follow_the_adjoints_of_later_reads():
    # step 1 reads the first element of step 0; step 0's adjoint is that
    # read's adjoint, then each upstream term in order
    tape = Tape()
    seen = []

    def vjp(g):
        seen.append(g.copy())
        return None, np.full(1, 4.0)

    tape.record("c", (1, 2), (0, 2), (), (), [vjp])
    tape.record("c", (1, 2), (0, 2), ((1, 0, 1),), (), [vjp])
    got = tape.backward("c", [np.ones(2), np.zeros(2)],
                        [np.array([0.5, 2.0]), np.ones(2)])
    assert got == [None, None]
    np.testing.assert_array_equal(seen[0], [1.0, 1.0])
    np.testing.assert_array_equal(seen[1], [4.0 + 1.0 + 0.5, 1.0 + 2.0])


def test_leaf_is_cached_by_identity():
    tape = Tape()
    b = np.ones(3)
    tape.leaf(b)
    tape.leaf(b)
    assert len(tape) == 1
    # a distinct array with equal contents is registered on its own
    tape.leaf(np.ones(3))
    assert len(tape) == 2


def test_shared_leaf_accumulates_gradient():
    # one array used by steps of two chains gets the sum of their gradients
    tape = Tape()
    b = np.array([1.0, 2.0])
    tape.record("a", (1, 2), (0, 2), (), (b,), [lambda g: (g, None)])
    tape.record("b", (1, 2), (0, 2), (), (b,), [lambda g: (2.0 * g, None)])
    tape.backward("a", [np.array([1.0, 1.0])])
    tape.backward("b", [np.array([1.0, -1.0])])
    (g,) = tape.grads([b])
    np.testing.assert_array_equal(g, [3.0, -1.0])


def test_backward_detects_mutated_leaf():
    tape = Tape()
    b = np.ones(2)
    tape.record("a", (1, 2), (0, 2), (), (b,), [lambda g: (g, None)])
    b += 1.0
    with pytest.raises(StaleTapeError):
        tape.backward("a", [np.ones(2)])


def test_untracked_inputs_and_unread_arrays_get_zero_gradients():
    # a registered array no sweep reaches and an array the tape never saw
    # both read as zeros of their shape; an unrecorded chain sweeps nothing
    tape = Tape()
    arr, unread = np.ones(3), np.ones((2, 2))
    c = np.array([0.5, -1.0, 2.0])
    tape.leaf(unread)
    tape.record("a", (1, 3), (0, 3), (), (arr,),
                [lambda g: (g * c, g * arr)])
    (dx,) = tape.backward("a", [np.ones(3)])
    assert tape.backward("nothing") == []
    g_arr, g_unread, g_unknown = tape.grads([arr, unread, np.ones(4)])
    np.testing.assert_array_equal(g_arr, c)
    np.testing.assert_array_equal(dx, arr)
    np.testing.assert_array_equal(g_unread, np.zeros((2, 2)))
    np.testing.assert_array_equal(g_unknown, np.zeros(4))


def test_evaluation_tape_cannot_run_backward():
    # a forward-only tape registers the parameters, takes no fingerprints,
    # keeps no steps and so cannot tell a mutated leaf: it refuses a sweep
    model = model_build(ModelConfig(cell_variant="drnn", hidden_size=3,
                                    out_size=2, embed_size=4), seed=1)
    window = random_day_inputs(np.random.default_rng(2), 3)
    tape = Tape(forward_only=True)
    model_unroll(model, model_new_state(model), window, tape)
    assert len(tape) == len(model.blocks())
    with pytest.raises(ValueError, match="forward-only"):
        tape.backward(HEAD, [np.ones(HEAD_SIZE)])


def test_factor_pairs_and_dense_gradient_sum_exactly():
    # a leaf used by many steps gets lists of one or two factor pairs,
    # reduced by one matrix product; a dense gradient adds on top
    rng = np.random.default_rng(11)
    w = rng.normal(size=(5, 4))
    dense = rng.normal(size=(5, 4))
    xs = [rng.normal(size=4) for _ in range(40)]
    gs = [rng.normal(size=5) for _ in range(40)]
    tape = Tape()
    for x in xs[:20]:
        tape.record("one", (1, 5), (0, 5), (), (w,),
                    [lambda g, x=x: ([(g, x)], None)])
    for x in xs[20:]:
        def vjp(g, x=x):
            top = np.concatenate((g[:3], np.zeros(2)))
            bottom = np.concatenate((np.zeros(3), g[3:]))
            return [(top, x), (bottom, x * x)], None

        tape.record("two", (1, 5), (0, 5), (), (w,), [vjp])
    tape.record("dense", (1, 1), (0, 1), (), (w,),
                [lambda g: (g[0] * dense, None)])
    tape.backward("one", gs[:20])
    tape.backward("two", gs[20:])
    tape.backward("dense", [np.array([0.5])])
    (got,) = tape.grads([w])
    want = 0.5 * dense
    for x, g in zip(xs[:20], gs[:20]):
        want = want + np.outer(g, x)
    for x, g in zip(xs[20:], gs[20:]):
        want = want + np.vstack((np.outer(g[:3], x), np.outer(g[3:], x * x)))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


# -- block entries: a delayed chain recorded block by block and step by step


def delayed(tape, w, xs, carried, sizes, span):
    """Per step of the (T, B, i) inputs ``xs``, ``v = tanh([x; h at lag 2;
    1] @ w.T)`` with ``h = v[..., :n]`` kept for later steps and ``y =
    v[..., n:]`` the output; ``carried`` are the two h values before the
    first step (the last one at lag 1).  Recorded as entries of ``sizes``
    steps in turn, in blocks of ``span`` steps, each block one batched
    product.  Returns the (T, B, m) outputs."""
    n, i = carried.shape[-1], xs.shape[-1]
    hs, ys, start = list(carried), [], 0  # hs[t]: the h step t reads
    for size in sizes:
        vjps = []
        for t0 in range(start, start + size, span):
            t1 = min(t0 + span, start + size)
            at = t0 if span == 1 else slice(t0, t1)
            h = hs[t0] if span == 1 else np.stack(hs[t0:t1])
            z = np.concatenate([xs[at], h, np.ones((*h.shape[:-1], 1))],
                               axis=-1)
            v = np.tanh(z @ w.T)

            def vjp(g, v=v, z=z):
                dpre = g * (1.0 - v * v)
                dz = dpre @ w
                return [(dpre, z)], dz[..., :i], dz[..., i:i + n]

            vjps.append(vjp)
            steps = [v] if span == 1 else list(v)
            hs += [value[..., :n] for value in steps]
            ys += [value[..., n:] for value in steps]
        if tape is not None:
            tape.record("delayed", (size, *v.shape[-2:]),
                        (n, v.shape[-1]), ((2, 0, n),), (w,), vjps, span)
        start += size
    return np.stack(ys)


def test_block_entries_sweep_as_their_steps_one_by_one():
    # two entries of 4 and 5 steps in blocks of 2: each block reads the one
    # before, the second entry's first block reads the first entry's last,
    # and the first block reads carried state; recorded step by step, the
    # same chain gives bitwise the same adjoints, and both match finite
    # differences
    rng = np.random.default_rng(5)
    n, m, i, rows, steps = 3, 2, 2, 2, 9
    w = rng.normal(size=(n + m, i + n + 1))
    xs = rng.normal(size=(steps, rows, i))
    carried = rng.normal(size=(2, rows, n))
    weights = rng.normal(size=(steps, rows, m))

    def swept(sizes, span):
        tape = Tape()
        delayed(tape, w, xs, carried, sizes, span)
        dxs = tape.backward("delayed", weights)
        return tape.grads([w]) + dxs

    blocks = swept((4, 5), 2)
    one_by_one = swept((1,) * steps, 1)
    assert len(blocks) == len(one_by_one) == 1 + steps
    for a, b in zip(blocks, one_by_one):
        np.testing.assert_array_equal(a, b)

    def loss():
        return float(np.sum(weights * delayed(None, w, xs, carried,
                                              (steps,), 1)))

    eps = 1e-6
    for arr, g in [(w, blocks[0])] + list(zip(xs, blocks[1:])):
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss()
            flat[j] = orig - eps
            dn = loss()
            flat[j] = orig
            assert gflat[j] == pytest.approx((up - dn) / (2 * eps),
                                             rel=1e-6, abs=1e-9)
