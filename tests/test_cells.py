"""Cell forward passes against independent scalar-loop re-implementations.

The oracles below unroll each cell with explicit Python index loops and
``math`` scalar functions, sharing no code with the vectorized cell steps.
"""

import copy
import math
import weakref

import numpy as np
import pytest

from loadcast import cells
from loadcast.cells import (
    ATTENTION_CLAMP,
    CellKind,
    CellState,
    Connection,
    cell_init,
    cell_layout,
    cell_step,
    new_state,
)
from loadcast.errors import ConfigError
from loadcast.tape import Tape


def sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def scalar_affine(gate, x, h_recent, h_delayed):
    """Row-by-row W x + V h_recent (+ U h_delayed) + b with plain loops."""
    out = []
    for r in range(len(gate.b)):
        acc = float(gate.b[r])
        for j in range(len(x)):
            acc += float(gate.W[r, j]) * float(x[j])
        if h_recent is not None:
            for j in range(len(h_recent)):
                acc += float(gate.V[r, j]) * float(h_recent[j])
        if h_delayed is not None:
            for j in range(len(h_delayed)):
                acc += float(gate.U[r, j]) * float(h_delayed[j])
        out.append(acc)
    return out


def back(history, k, size):
    if len(history) >= k:
        return history[len(history) - k]
    return [0.0] * size


class LstmOracle:
    def __init__(self, params, lag):
        self.p, self.lag = params, lag
        self.hs, self.cs = [], []

    def step(self, x):
        p, g = self.p, self.p.gates
        h_ref = back(self.hs, self.lag, p.hidden_size)
        c_ref = back(self.cs, self.lag, p.hidden_size)
        f = [sig(v) for v in scalar_affine(g["forget"], x, h_ref, None)]
        i = [sig(v) for v in scalar_affine(g["input"], x, h_ref, None)]
        o = [sig(v) for v in scalar_affine(g["output"], x, h_ref, None)]
        cand = [math.tanh(v) for v in scalar_affine(g["candidate"], x, h_ref, None)]
        c = [f[k] * c_ref[k] + i[k] * cand[k] for k in range(p.hidden_size)]
        h = [o[k] * math.tanh(c[k]) for k in range(p.hidden_size)]
        self.hs.append(h)
        self.cs.append(c)
        return h


class GruOracle:
    def __init__(self, params, lag):
        self.p, self.lag = params, lag
        self.hs = []

    def step(self, x):
        p, g = self.p, self.p.gates
        h_ref = back(self.hs, self.lag, p.hidden_size)
        r = [sig(v) for v in scalar_affine(g["reset"], x, h_ref, None)]
        u = [sig(v) for v in scalar_affine(g["update"], x, h_ref, None)]
        rh = [r[k] * h_ref[k] for k in range(p.hidden_size)]
        cand = [math.tanh(v) for v in scalar_affine(g["candidate"], x, rh, None)]
        h = [(1.0 - u[k]) * h_ref[k] + u[k] * cand[k] for k in range(p.hidden_size)]
        self.hs.append(h)
        return h


class DlstmOracle:
    def __init__(self, params, d):
        self.p, self.d = params, d
        self.hs, self.cs = [], []

    def step(self, x):
        p, g = self.p, self.p.gates
        h1 = back(self.hs, 1, p.hidden_size)
        hd = back(self.hs, self.d, p.hidden_size)
        c1 = back(self.cs, 1, p.cell_size)
        f = [sig(v) for v in scalar_affine(g["forget"], x, h1, hd)]
        i = [sig(v) for v in scalar_affine(g["input"], x, h1, hd)]
        o = [sig(v) for v in scalar_affine(g["output"], x, h1, hd)]
        cand = [math.tanh(v) for v in scalar_affine(g["candidate"], x, h1, hd)]
        c = [f[k] * c1[k] + i[k] * cand[k] for k in range(p.cell_size)]
        hp = [o[k] * math.tanh(c[k]) for k in range(p.cell_size)]
        self.hs.append(hp[: p.hidden_size])
        self.cs.append(c)
        return hp[p.hidden_size : p.hidden_size + p.out_size]


class DrnnOracle:
    def __init__(self, params, d):
        self.p, self.d = params, d
        self.hs, self.cs = [], []

    def step(self, x):
        p, g = self.p, self.p.gates
        h1 = back(self.hs, 1, p.hidden_size)
        hd = back(self.hs, self.d, p.hidden_size)
        c1 = back(self.cs, 1, p.cell_size)
        cd = back(self.cs, self.d, p.cell_size)
        f = [sig(v) for v in scalar_affine(g["fusion"], x, h1, hd)]
        u = [sig(v) for v in scalar_affine(g["update"], x, h1, hd)]
        o = [sig(v) for v in scalar_affine(g["output"], x, h1, hd)]
        cand = [math.tanh(v) for v in scalar_affine(g["candidate"], x, h1, hd)]
        c = [
            u[k] * (f[k] * c1[k] + (1.0 - f[k]) * cd[k]) + (1.0 - u[k]) * cand[k]
            for k in range(p.cell_size)
        ]
        hp = [o[k] * c[k] for k in range(p.cell_size)]
        self.hs.append(hp[: p.hidden_size])
        self.cs.append(c)
        return hp[p.hidden_size : p.hidden_size + p.out_size]


class AdrnnOracle:
    def __init__(self, params, d):
        self.lower = DrnnOracle(params.lower, d)
        self.upper = DrnnOracle(params.upper, d)

    def step(self, x):
        m = self.lower.step(x)
        w = [math.exp(min(max(v, -ATTENTION_CLAMP), ATTENTION_CLAMP)) for v in m]
        x2 = [float(x[k]) * w[k] for k in range(len(x))]
        return self.upper.step(x2)


def run_cell(params, inputs, dilation):
    state = new_state(params, dilation)
    outs = []
    for x in inputs:
        v = np.array(x, dtype=np.float64)
        outs.append(cell_step(params, state, v[None], dilation)[0])
    return outs


def random_inputs(rng, steps, size):
    return [rng.normal(size=size) for _ in range(steps)]


def c_read(params, state, lag):
    """The c-state a step of ``params`` stored ``lag`` steps ago."""
    n = params.cell_size
    return state.read((), lag, n, 2 * n)


# -- oracle agreement ------------------------------------------------------


@pytest.mark.parametrize("connection,lag", [(Connection.RECENT_ONLY, 1),
                                            (Connection.DELAYED_ONLY, 3)])
def test_lstm_matches_scalar_oracle(connection, lag):
    rng = np.random.default_rng(11)
    params, _ = cell_init(CellKind.LSTM, 3, 4, connection=connection, seed=5)
    xs = random_inputs(rng, 9, 3)
    got = run_cell(params, xs, dilation=lag)
    oracle = LstmOracle(params, lag)
    for x, y in zip(xs, got):
        np.testing.assert_allclose(y, oracle.step(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("connection,lag", [(Connection.RECENT_ONLY, 1),
                                            (Connection.DELAYED_ONLY, 4)])
def test_gru_matches_scalar_oracle(connection, lag):
    rng = np.random.default_rng(12)
    params, _ = cell_init(CellKind.GRU, 3, 5, connection=connection, seed=6)
    xs = random_inputs(rng, 10, 3)
    got = run_cell(params, xs, dilation=lag)
    oracle = GruOracle(params, lag)
    for x, y in zip(xs, got):
        np.testing.assert_allclose(y, oracle.step(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dilation", [1, 2, 4, 7])
def test_dlstm_matches_scalar_oracle(dilation):
    rng = np.random.default_rng(13)
    params, _ = cell_init(CellKind.DLSTM, 3, hidden_size=3, out_size=2, seed=7)
    assert params.cell_size == 5
    xs = random_inputs(rng, 2 * dilation + 3, 3)
    got = run_cell(params, xs, dilation)
    oracle = DlstmOracle(params, dilation)
    for x, y in zip(xs, got):
        np.testing.assert_allclose(y, oracle.step(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dilation", [1, 2, 4, 7])
def test_drnn_matches_scalar_oracle(dilation):
    rng = np.random.default_rng(14)
    params, _ = cell_init(CellKind.DRNN, 4, hidden_size=2, out_size=3, seed=8)
    assert params.cell_size == 5
    xs = random_inputs(rng, 2 * dilation + 3, 4)
    got = run_cell(params, xs, dilation)
    oracle = DrnnOracle(params, dilation)
    for x, y in zip(xs, got):
        np.testing.assert_allclose(y, oracle.step(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dilation", [1, 2, 7])
def test_adrnn_matches_scalar_oracle(dilation):
    rng = np.random.default_rng(15)
    params, _ = cell_init(CellKind.ADRNN, 3, hidden_size=2, out_size=4,
                          upper_hidden_size=3, seed=9)
    assert params.lower.out_size == 3  # attention matches the input size
    assert params.lower.cell_size == 2 + 3
    assert params.upper.cell_size == 3 + 4
    xs = random_inputs(rng, 2 * dilation + 3, 3)
    got = run_cell(params, xs, dilation)
    oracle = AdrnnOracle(params, dilation)
    for x, y in zip(xs, got):
        np.testing.assert_allclose(y, oracle.step(x), rtol=0, atol=1e-12)


# -- the gates' logistic ---------------------------------------------------


def test_logistic_is_the_scalar_sigmoid_to_an_absolute_tolerance():
    # 0.5 + 0.5 * tanh(z / 2) rounds on the scale of 0.5, so it holds an
    # absolute, not a relative, error: a few ulp of 1 allow for the tanh
    z = np.concatenate((np.linspace(-30.0, 30.0, 6001),
                        np.random.default_rng(53).uniform(-30.0, 30.0, 4000)))
    np.testing.assert_allclose(cells.logistic(z), [sig(v) for v in z],
                               rtol=0, atol=2.0**-51)


def test_logistic_saturates_exactly_without_floating_point_errors():
    z = np.array([40.0, 1e308, np.inf, -40.0, -1e308, -np.inf])
    with np.errstate(all="raise"):
        assert cells.logistic(z).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]


def test_logistic_passes_nan_and_leaves_its_input_unmodified():
    # the kernels pass a strided slice of their pre-activations
    pre = np.random.default_rng(54).normal(size=(2, 3, 8))
    pre[0, 1, 2] = np.nan
    before = pre.copy()
    got = cells.logistic(pre[..., :6])
    assert np.isnan(got[0, 1, 2]) and np.isnan(got).sum() == 1
    assert got.flags.c_contiguous and not np.shares_memory(got, pre)
    assert_bitwise(pre, before, "input")


# -- frozen closed-form values ---------------------------------------------


def zero_params(params):
    for _, arr in params.named_arrays():
        arr[:] = 0.0
    return params


def test_lstm_zero_params_frozen_value():
    # all-zero weights, previous c = 1: every gate is 1/2, candidate is 0,
    # so c = 1/2 and h = tanh(1/2) / 2
    params, state = cell_init(CellKind.LSTM, 2, 3, seed=0)
    zero_params(params)
    state.values.append(np.r_[np.zeros(3), np.ones(3)])  # h = 0, c = 1
    y = cell_step(params, state, np.array([[7.0, -2.0]]), 1)[0]
    np.testing.assert_allclose(y, 0.23105857863000487, rtol=0, atol=1e-15)
    np.testing.assert_allclose(c_read(params, state, 1), 0.5, rtol=0, atol=0)


def test_gru_zero_params_halves_state():
    params, state = cell_init(CellKind.GRU, 2, 4, seed=0)
    zero_params(params)
    h_prev = np.array([0.8, -1.2, 3.0, 0.0])
    state.values.append(h_prev.copy())
    y = cell_step(params, state, np.array([[1.0, 2.0]]), 1)[0]
    np.testing.assert_array_equal(y, 0.5 * h_prev)


def test_drnn_zero_params_frozen_value():
    # all states 1: c = 1/2 * (1/2 + 1/2) = 1/2, raw output = 1/2 * 1/2
    params, state = cell_init(CellKind.DRNN, 2, hidden_size=2, out_size=1,
                              dilation=2, seed=0)
    zero_params(params)
    state.values.append(np.ones(6))  # h, output and c all ones
    state.values.append(np.ones(6))
    y = cell_step(params, state, np.array([[1.0, -1.0]]), 2)[0]
    np.testing.assert_array_equal(y, [0.25])
    np.testing.assert_array_equal(c_read(params, state, 1), [0.5, 0.5, 0.5])


def test_dlstm_split_layout():
    # saturated input/output gates, forget shut: y is the tail of the raw
    # activation, the stored h is its head
    params, state = cell_init(CellKind.DLSTM, 1, hidden_size=2, out_size=3, seed=0)
    zero_params(params)
    params.gates["forget"].b[:] = -50.0
    params.gates["input"].b[:] = 50.0
    params.gates["output"].b[:] = 50.0
    params.gates["candidate"].b[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = cell_step(params, state, np.zeros((1, 1)), 1)[0]
    expected = [sig(50.0) * math.tanh(sig(50.0) * math.tanh(b)) for b in
                [1.0, 2.0, 3.0, 4.0, 5.0]]
    np.testing.assert_allclose(y, expected[2:], rtol=0, atol=1e-15)
    np.testing.assert_allclose(state.read((), 1, 0, 2), expected[:2], rtol=0,
                               atol=1e-15)


# -- attention behaviour ---------------------------------------------------


def test_zero_attention_leaves_input_unscaled():
    params, state = cell_init(CellKind.ADRNN, 3, hidden_size=2, out_size=2,
                              dilation=2, seed=21)
    zero_params(params.lower)  # lower stage emits exactly 0 forever
    plain_state = new_state(params.upper, 2)
    rng = np.random.default_rng(0)
    for _ in range(6):
        x = rng.normal(size=3)
        y = cell_step(params, state, x[None], 2)[0]
        y_plain = cell_step(params.upper, plain_state, x[None], 2)[0]
        np.testing.assert_array_equal(y, y_plain)


def test_log_weights_scale_input_components():
    # lower stage rigged to emit [log 2, 0]: first input component doubles
    params, state = cell_init(CellKind.ADRNN, 2, hidden_size=1, out_size=2, seed=22)
    zero_params(params.lower)
    lo = params.lower.gates
    lo["update"].b[:] = -50.0  # c becomes the candidate
    lo["output"].b[:] = 50.0
    lo["candidate"].b[:] = [0.0, math.atanh(math.log(2.0)), 0.0]
    m = [sig(50.0) * math.tanh(b) for b in [math.atanh(math.log(2.0)), 0.0]]
    weights = [math.exp(v) for v in m]

    upper_state = new_state(params.upper, 1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=2)
    y = cell_step(params, state, x[None], 1)[0]
    y_ref = cell_step(params.upper, upper_state, (x * weights)[None], 1)[0]
    np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=0)
    assert weights[0] == pytest.approx(2.0, rel=1e-10)
    assert weights[1] == pytest.approx(1.0, rel=1e-15)


def test_attention_saturates_at_clamp():
    # huge fabricated c-states drive the raw attention to 25, the applied
    # weight must cap at exp(10)
    params, state = cell_init(CellKind.ADRNN, 2, hidden_size=1, out_size=2, seed=23)
    zero_params(params.lower)
    # the lower stage's value all 100, the upper stage's a cold start
    state.values.append(np.r_[np.full(6, 100.0), np.zeros(6)])
    upper_state = new_state(params.upper, 1)
    x = np.array([0.3, -0.7])
    y = cell_step(params, state, x[None], 1)[0]
    y_ref = cell_step(params.upper, upper_state,
                      (x * math.exp(ATTENTION_CLAMP))[None], 1)[0]
    np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=0)
    assert state.read((), 1, 0, 1)[0] == pytest.approx(25.0)  # lower h


# -- the fused attentive step against its composition ----------------------


def unroll_with_gradients(params, state, xs, upstream, dilation):
    """Outputs of a recorded unroll of ``state``'s cell and the gradients of
    ``sum_t upstream[t] . y_t`` for the blocks, then each input."""
    tape = Tape()
    outs = [cell_step(params, state, x[None], dilation, tape)[0] for x in xs]
    dxs = tape.backward(state, upstream)
    return outs, tape.grads(params.blocks()) + dxs


def composed_adrnn(params, xs, upstream, dilation):
    """The same for adrnn composed from two recorded drnn chains on two
    plain drnn states, the clamped exponential of the attention and its
    product with the input, those two differentiated here by hand."""
    tape = Tape()
    lower = new_state(params.lower, dilation)
    upper = new_state(params.upper, dilation)
    outs, weights, insides = [], [], []
    for x in xs:
        a = cell_step(params.lower, lower, x[None], dilation, tape)[0]
        insides.append((a >= -ATTENTION_CLAMP) & (a <= ATTENTION_CLAMP))
        weights.append(np.exp(np.clip(a, -ATTENTION_CLAMP, ATTENTION_CLAMP)))
        outs.append(cell_step(params.upper, upper, (x * weights[-1])[None],
                              dilation, tape)[0])
    dxu = tape.backward(upper, upstream)
    dxl = tape.backward(lower, [g * x * w * inside for g, x, w, inside
                                in zip(dxu, xs, weights, insides)])
    dxs = [g * w + gl for g, w, gl in zip(dxu, weights, dxl)]
    return outs, tape.grads(params.blocks()) + dxs


@pytest.mark.parametrize("dilation", [1, 2, 7])
def test_fused_adrnn_matches_its_composition(dilation):
    params, _ = cell_init(CellKind.ADRNN, 3, hidden_size=2, out_size=4,
                          upper_hidden_size=3, seed=31)
    rng = np.random.default_rng(32)
    xs = random_inputs(rng, 9, 3)
    upstream = random_inputs(rng, 9, 4)
    fused, g_fused = unroll_with_gradients(
        params, new_state(params, dilation), xs, upstream, dilation)
    ref, g_ref = composed_adrnn(params, xs, upstream, dilation)
    for a, b in zip(fused, ref):
        np.testing.assert_array_equal(a, b)
    assert len(g_fused) == len(g_ref) == 2 + 9
    for a, b in zip(g_fused, g_ref):
        assert np.any(b != 0.0)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_clamped_attention_passes_no_gradient_to_the_lower_stage():
    # large fabricated c-states drive every attention component past the
    # clamp, in both directions: the clamp's gradient is zero there, so a
    # one-step unroll leaves every lower-stage block without gradient
    params, state = cell_init(CellKind.ADRNN, 2, hidden_size=1, out_size=2,
                              seed=34)
    lower_value = np.r_[np.zeros(3), 0.0, 1000.0, -1000.0]  # h, output, c
    state.values.append(np.r_[lower_value, np.zeros(6)])
    x = np.array([3e-5, -7e-5])  # the upper stage sees x * exp(+-10)
    probe = new_state(params.lower, 1)
    probe.values.append(lower_value)
    attention = cell_step(params.lower, probe, x[None], 1)[0]
    assert attention[0] > ATTENTION_CLAMP and attention[1] < -ATTENTION_CLAMP

    _, grads = unroll_with_gradients(params, state, [x], [np.ones(2)], 1)
    named = params.named_arrays(blocks=grads[:2])
    assert len(named) == 2 * 4 * 4
    for name, g in named:
        if name.startswith("lower."):
            np.testing.assert_array_equal(g, 0.0, err_msg=name)
    g_upper, g_x = grads[1], grads[2]
    assert np.any(g_upper != 0.0) and np.any(g_x != 0.0)


# -- state buffers ---------------------------------------------------------


def test_ring_buffer_matches_full_history():
    rng = np.random.default_rng(3)
    state = CellState(capacity=7)
    np.testing.assert_array_equal(state.read((2,), 7, 4, 10), np.zeros((2, 6)))
    full = []
    for step in range(30):
        value = rng.normal(size=10)
        state.values.append(value)
        full.append(value)
        for k in range(1, 8):
            for lo, hi in ((0, 4), (4, 10)):
                if k <= step + 1:
                    np.testing.assert_array_equal(state.read((), k, lo, hi),
                                                  full[-k][lo:hi])
                else:
                    np.testing.assert_array_equal(state.read((), k, lo, hi),
                                                  np.zeros(hi - lo))
    with pytest.raises(ValueError):
        state.read((), 8, 0, 4)
    with pytest.raises(ValueError):
        state.read((), 0, 0, 4)


@pytest.mark.parametrize("kind,kwargs", [
    (CellKind.LSTM, {"connection": Connection.DELAYED_ONLY}),
    (CellKind.GRU, {"connection": Connection.DELAYED_ONLY}),
    (CellKind.DLSTM, {"out_size": 2}), (CellKind.DRNN, {"out_size": 2}),
    (CellKind.ADRNN, {"out_size": 2})],
    ids=["lstm", "gru", "dlstm", "drnn", "adrnn"])
def test_dilation_beyond_the_state_is_rejected(kind, kwargs):
    # a step reads its state ``dilation`` steps back; a ring too short for
    # that must fail rather than read cold-start zeros forever
    params, state = cell_init(kind, 3, hidden_size=2, dilation=2, seed=0,
                              **kwargs)
    with pytest.raises(ValueError, match="lag 5 outside buffer capacity 2"):
        cell_step(params, state, np.zeros((1, 3)), 5)
    assert len(state) == 0


def test_input_without_a_step_axis_is_rejected():
    # cell_step takes windows only: a bare input vector is not one step
    params, state = cell_init(CellKind.GRU, 3, hidden_size=2, seed=0)
    with pytest.raises(ValueError, match=r"x\[None\]"):
        cell_step(params, state, np.zeros(3), 1)
    assert len(state) == 0


@pytest.mark.parametrize("kind,kwargs", [
    (CellKind.LSTM, {"connection": Connection.RECENT_ONLY}),
    (CellKind.LSTM, {"connection": Connection.DELAYED_ONLY}),
    (CellKind.GRU, {"connection": Connection.RECENT_ONLY}),
    (CellKind.GRU, {"connection": Connection.DELAYED_ONLY}),
    (CellKind.DLSTM, {"out_size": 2}), (CellKind.DRNN, {"out_size": 2}),
    (CellKind.ADRNN, {"out_size": 2})],
    ids=["lstm1", "lstm2", "gru1", "gru2", "dlstm", "drnn", "adrnn"])
def test_one_member_stack_of_one_row_is_the_vector_path_bitwise(kind, kwargs):
    # serving stacks the members' gate matrices along a leading axis; at
    # M = 1, B = 1 every step, delayed reads included, is the 1-d step
    params, state = cell_init(kind, 3, hidden_size=4, dilation=2, seed=11,
                              **kwargs)
    stack = cell_layout(kind, 3, 4, **kwargs)
    stack.bind(block[None] for block in params.blocks())
    stack_state = new_state(stack, 2)
    for x in np.random.default_rng(12).normal(size=(5, 3)):
        y = cell_step(params, state, x[None], 2)[0]
        y_stack = cell_step(stack, stack_state, x[None, None, None], 2)[0]
        assert y_stack.shape == (1, 1, *y.shape)
        np.testing.assert_array_equal(y_stack[0, 0], y)


# -- a window against its steps one call at a time -------------------------

WINDOW_VARIANTS = {
    "lstm1": (CellKind.LSTM, Connection.RECENT_ONLY),
    "lstm2": (CellKind.LSTM, Connection.DELAYED_ONLY),
    "gru1": (CellKind.GRU, Connection.RECENT_ONLY),
    "gru2": (CellKind.GRU, Connection.DELAYED_ONLY),
    "dlstm": (CellKind.DLSTM, None),
    "drnn": (CellKind.DRNN, None),
    "adrnn": (CellKind.ADRNN, None),
}


def window_params(variant, members=None):
    """Small parameters of ``variant``; with ``members``, that many cells
    stacked along a leading member axis, as serving stacks them."""
    kind, connection = WINDOW_VARIANTS[variant]
    kwargs = {"connection": connection,
              "out_size": None if connection else 2}
    cells = [cell_init(kind, 3, 2, seed=41 + m, **kwargs)[0]
             for m in range(members or 1)]
    if members is None:
        return cells[0]
    stack = cell_layout(kind, 3, 2, **kwargs)
    stack.bind(np.stack(blocks)
               for blocks in zip(*(c.blocks() for c in cells)))
    return stack


def stepped(params, state, xs, dilation, tape):
    """The outputs of ``xs`` run a step at a time from the stage functions,
    each step recorded as a one-step entry: the per-step path a window's
    sweep must match, its adjoints summed by the tape."""
    step = (cells._adrnn_step if params.kind is CellKind.ADRNN
            else cells._stage)
    reads = cells._layer_reads(params, dilation)
    lo, hi = cells._out_part(params)
    ys = []
    for x in xs:
        value, vjp = step(params, [state.read(x.shape[:-1], *read)
                                   for read in reads], x)
        tape.record(state, (1, *value.shape), (lo, hi), reads,
                    params.blocks(), [vjp])
        state.values.append(value)
        ys.append(value[..., lo:hi])
    return np.stack(ys)


def unrolled(params, state, xs, dilation, upstream, how):
    """Outputs, input adjoints and block gradients of ``xs`` run on
    ``state`` as one window, as two windows on one tape (the second's reads
    reaching into the first), as one step call at a time or
    :func:`stepped`, each recorded on its own tape, swept with the
    ``upstream`` terms; a member stack's gradients are not reduced."""
    tape = Tape()
    if how == "window":
        ys = cell_step(params, state, xs, dilation, tape)
    elif how == "halves":
        ys = np.concatenate([cell_step(params, state, half, dilation, tape)
                             for half in np.array_split(xs, 2) if len(half)])
    elif how == "calls":
        ys = np.stack([cell_step(params, state, x[None], dilation, tape)[0]
                       for x in xs])
    else:
        ys = stepped(params, state, xs, dilation, tape)
    dxs = tape.backward(state, *upstream)
    stacked = params.blocks()[0].ndim == 3
    return ys, dxs, [] if stacked else tape.grads(params.blocks())


@pytest.mark.parametrize("dilation", [1, 2, 3, 7])
@pytest.mark.parametrize("variant", sorted(WINDOW_VARIANTS))
def test_window_is_bitwise_its_steps_one_call_at_a_time(variant, dilation):
    # outputs, ring values, input adjoints and block gradients, against two
    # windows, one step call at a time and steps recorded one by one, from a
    # cold, a carried and a regrouped ring, for one series, a batch of rows
    # and a member stack of batches; two upstream terms, as layer 1 gets,
    # so the order of the adjoint sums shows
    rng = np.random.default_rng(dilation)
    layouts = {(): window_params(variant), (3,): window_params(variant),
               (2, 3): window_params(variant, members=2)}
    d = dilation
    for rows, params in layouts.items():
        for steps in sorted({1, d - 1, d, d + 1, 2 * d + 1} - {0}):
            for start in ("cold", "carried", "regrouped"):
                if start == "regrouped" and rows != (3,):
                    continue  # only training regroups, a batch of rows
                state = new_state(params, d)
                if start != "cold":
                    cell_step(params, state, rng.normal(
                        size=(2 * d + 1, *rows, 3)), d)
                if start == "regrouped":
                    state.regroup(np.array([2, 0, 1]),
                                  np.array([False, True, False]))
                xs = rng.normal(size=(steps, *rows, 3))
                upstream = rng.normal(size=(2, steps, *rows,
                                            params.out_size))
                hows = ("window", "halves", "calls", "stepped")
                states = [copy.deepcopy(state) for _ in hows]
                got, *refs = (unrolled(params, ring, xs, d, upstream, how)
                              for ring, how in zip(states, hows))
                for ref, ring in zip(refs, states[1:]):
                    what = f"{rows} {steps} steps {start}"
                    np.testing.assert_array_equal(got[0], ref[0], err_msg=what)
                    assert len(states[0]) == len(ring)
                    for a, b in zip(states[0].values, ring.values):
                        np.testing.assert_array_equal(a, b, err_msg=what)
                    for got_part, ref_part in zip(got[1:], ref[1:]):
                        assert len(got_part) == len(ref_part)
                        for a, b in zip(got_part, ref_part):
                            np.testing.assert_array_equal(a, b, err_msg=what)


def counting_kernels(monkeypatch):
    """Count calls of the gate kernels; keep a weak reference to each
    backward closure they return."""
    calls, backs = [], []

    def counted(kernel):
        def spy(*args):
            value, back = kernel(*args)
            calls.append(kernel.__name__)
            backs.append(weakref.ref(back))
            return value, back
        return spy

    for kind, kernel in list(cells._KERNELS.items()):
        monkeypatch.setitem(cells._KERNELS, kind, counted(kernel))
    return calls, backs


@pytest.mark.parametrize("variant", sorted(WINDOW_VARIANTS))
def test_window_runs_one_kernel_call_per_block(variant, monkeypatch):
    # a delayed-only cell steps d days per kernel call, every other cell
    # one, its attentive form twice (two stages)
    calls, _ = counting_kernels(monkeypatch)
    params = window_params(variant)
    stages = 2 if variant == "adrnn" else 1
    for d in (1, 2, 3, 7):
        for steps in (1, d, d + 1, 2 * d + 1, 56):
            calls.clear()
            cell_step(params, new_state(params, d),
                      np.zeros((steps, 2, 3)), d, Tape())
            per_block = d if variant in ("lstm2", "gru2") else 1
            assert len(calls) == stages * math.ceil(steps / per_block)


def test_window_without_a_recording_tape_keeps_no_backward_state(
        monkeypatch):
    _, backs = counting_kernels(monkeypatch)
    params = window_params("lstm2")
    xs = np.ones((9, 2, 3))
    for tape in (None, Tape(forward_only=True)):
        cell_step(params, new_state(params, 2), xs, 2, tape)
        assert len(backs) == 5 and all(ref() is None for ref in backs)
        backs.clear()
    tape = Tape()
    cell_step(params, new_state(params, 2), xs, 2, tape)
    assert len(backs) == 5 and all(ref() is not None for ref in backs)


@pytest.mark.parametrize("rows", [(), (2,), (2, 2)], ids=str)
@pytest.mark.parametrize("variant", sorted(WINDOW_VARIANTS))
def test_empty_window_returns_no_steps_and_records_nothing(variant, rows):
    params = window_params(variant, members=2 if len(rows) == 2 else None)
    for tape in (None, Tape(forward_only=True), Tape()):
        state = new_state(params, 2)
        ys = cell_step(params, state, np.zeros((0, *rows, 3)), 2, tape)
        assert ys.shape == (0, *rows, params.out_size)
        assert len(state) == 0
        if tape is not None:
            assert len(tape) == 0
            if tape.recording:
                assert tape.backward(state) == []


# -- the kernels against their per-gate backward formulas ------------------
#
# Reference kernels whose backward runs one derivative chain per gate,
# multiplied left to right.  The kernels run the sigmoid gates' chains as
# one product per link over the whole gate block and must round exactly as
# these do.


def per_gate_lstm(params, z, c_prev):
    n, w = params.cell_size, params.stack
    pre = z @ w.swapaxes(-1, -2)
    sig = cells.logistic(pre[..., :3 * n])
    forget, infl, out = sig[..., :n], sig[..., n:2 * n], sig[..., 2 * n:]
    cand = np.tanh(pre[..., 3 * n:])
    c = forget * c_prev + infl * cand
    tc = np.tanh(c)

    def back(g):
        dhp = g[..., :n]
        dc = g[..., n:] + dhp * out * (1.0 - tc * tc)
        dpre = np.concatenate((
            dc * c_prev * forget * (1.0 - forget),
            dc * cand * infl * (1.0 - infl),
            dhp * tc * out * (1.0 - out),
            dc * infl * (1.0 - cand * cand)), axis=-1)
        return [(dpre, z)], dpre @ w, (dc * forget,)

    return np.concatenate((out * tc, c), axis=-1), back


def per_gate_gru(params, z):
    i, n, w = params.input_size, params.hidden_size, params.stack
    h = z[..., i:i + n]
    gates = cells.logistic(z @ w[..., :2 * n, :].swapaxes(-1, -2))
    reset, update = gates[..., :n], gates[..., n:]
    zc = z.copy()
    zc[..., i:i + n] = reset * h
    cand = np.tanh(zc @ w[..., 2 * n:, :].swapaxes(-1, -2))

    def back(g):
        dpre_c = g * update * (1.0 - cand * cand)
        dzc = dpre_c @ w[..., 2 * n:, :]
        drh = dzc[..., i:i + n]
        dpre = np.concatenate((drh * h * reset * (1.0 - reset),
                               g * (cand - h) * update * (1.0 - update)),
                              axis=-1)
        dzc[..., i:i + n] *= reset
        dz = dpre @ w[..., :2 * n, :] + dzc
        dz[..., i:i + n] += g * (1.0 - update)
        return ([(np.concatenate((dpre, np.zeros_like(g)), axis=-1), z),
                 (np.concatenate((np.zeros_like(dpre), dpre_c), axis=-1), zc)],
                dz, ())

    return (1.0 - update) * h + update * cand, back


def per_gate_drnn(params, z, c1, cd):
    n, w = params.cell_size, params.stack
    pre = z @ w.swapaxes(-1, -2)
    sig = cells.logistic(pre[..., :3 * n])
    fusion, update, out = sig[..., :n], sig[..., n:2 * n], sig[..., 2 * n:]
    cand = np.tanh(pre[..., 3 * n:])
    mix = fusion * c1 + (1.0 - fusion) * cd
    c = update * mix + (1.0 - update) * cand

    def back(g):
        dhp = g[..., :n]
        dc = g[..., n:] + dhp * out
        dmix = dc * update
        dpre = np.concatenate((
            dmix * (c1 - cd) * fusion * (1.0 - fusion),
            dc * (mix - cand) * update * (1.0 - update),
            dhp * c * out * (1.0 - out),
            dc * (1.0 - update) * (1.0 - cand * cand)), axis=-1)
        return [(dpre, z)], dpre @ w, (dmix * fusion, dmix * (1.0 - fusion))

    return np.concatenate((out * c, c), axis=-1), back


PER_GATE = {CellKind.LSTM: per_gate_lstm, CellKind.DLSTM: per_gate_lstm,
            CellKind.GRU: per_gate_gru, CellKind.DRNN: per_gate_drnn}


def assert_bitwise(a, b, what):
    assert (a.shape, a.dtype) == (b.shape, b.dtype), what
    assert a.tobytes() == b.tobytes(), what


@pytest.mark.parametrize("scale", [1.0, 1e4], ids=["plain", "saturated"])
@pytest.mark.parametrize("variant", sorted(WINDOW_VARIANTS))
def test_kernels_back_is_bitwise_their_per_gate_formulas(variant, scale):
    # one vector, a batch of rows, a member stack of batches and a block of
    # d steps of batches; scaled inputs drive the gates' pre-activations far
    # enough that sig reads exactly 0 and 1
    rng = np.random.default_rng(51)
    params = {False: window_params(variant),
              True: window_params(variant, members=2)}
    for stacked, rows in ((False, ()), (False, (3,)), (True, (2, 3)),
                          (False, (4, 3))):
        for stage in params[stacked].stages:
            cols = stage.stack.shape[-1]
            z = np.concatenate((scale * rng.normal(size=(*rows, cols - 1)),
                                np.ones((*rows, 1))), axis=-1)
            cs = [rng.normal(size=(*rows, stage.cell_size))
                  for _ in range(len(cells._reads(stage, 2))
                                 - cells._h_reads(stage))]
            what = f"{variant} {rows} scale {scale}"
            if scale > 1:  # the sigmoid gates, all rows but the candidate's
                gates = stage.stack[..., :-stage.gate_size, :]
                sig = cells.logistic(z @ gates.swapaxes(-1, -2))
                assert (sig == 0.0).any() and (sig == 1.0).any(), what
            value, back = cells._KERNELS[stage.kind](stage, z, *cs)
            ref_value, ref_back = PER_GATE[stage.kind](stage, z, *cs)
            assert_bitwise(value, ref_value, what)
            g = rng.normal(size=value.shape)
            (pairs, dz, dcs), (ref_pairs, ref_dz, ref_dcs) = back(g), ref_back(g)
            assert len(pairs) == len(ref_pairs) and len(dcs) == len(ref_dcs)
            for (u, v), (ref_u, ref_v) in zip(pairs, ref_pairs):
                assert_bitwise(u, ref_u, what)
                assert_bitwise(v, ref_v, what)
            for a, b in zip((dz, *dcs), (ref_dz, *ref_dcs)):
                assert_bitwise(a, b, what)


def test_attention_clamp_is_bitwise_np_clip():
    # the attentive step clamps with minimum(maximum(a, -C), C)
    c = ATTENTION_CLAMP
    a = np.array([c, -c, np.nextafter(c, np.inf), np.nextafter(-c, -np.inf),
                  np.nextafter(c, 0.0), np.inf, -np.inf, np.nan, -0.0, 0.0,
                  *np.random.default_rng(52).normal(scale=20.0, size=64)])
    assert_bitwise(np.minimum(np.maximum(a, -c), c), np.clip(a, -c, c),
                   "clamp")


@pytest.mark.parametrize("kind", [CellKind.GRU, CellKind.DRNN, CellKind.ADRNN],
                         ids=lambda kind: kind.value)
def test_state_rings_hold_plain_arrays(kind):
    # a recorded step appends plain arrays, so a batched state regroups
    # between windows as it is: kept rows move, fresh rows read as zeros
    out_size = None if kind is CellKind.GRU else 1
    params, state = cell_init(kind, 2, hidden_size=2, out_size=out_size,
                              dilation=2, seed=4)
    xs = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, 0.0]])
    tape = Tape()
    for _ in range(3):
        cell_step(params, state, xs[None], 2, tape)
    values = list(state.values)
    assert len(values) == 2
    for value in values:
        assert type(value) is np.ndarray and value.shape[0] == 3
    state.regroup(np.array([2, 0]), np.array([False, True]))
    for value, moved in zip(values, state.values):
        assert type(moved) is np.ndarray
        np.testing.assert_array_equal(moved, [value[2], np.zeros_like(value[2])])


def test_adrnn_value_is_lower_then_upper_stage_value():
    # one attentive step appends one value, the lower stage's value followed
    # by the upper stage's, the values two plain drnn states replaying the
    # stages hold; a regroup moves the rows of both stages, so the next
    # steps still agree
    params, state = cell_init(CellKind.ADRNN, 3, hidden_size=2, out_size=4,
                              upper_hidden_size=3, dilation=2, seed=35)
    lower, upper = new_state(params.lower, 2), new_state(params.upper, 2)
    rng = np.random.default_rng(36)
    for t in range(6):
        if t == 3:
            for ring in (state, lower, upper):
                ring.regroup(np.array([1, 0]), np.array([False, True]))
        x = rng.normal(size=(2, 3))
        y = cell_step(params, state, x[None], 2)[0]
        a = cell_step(params.lower, lower, x[None], 2)[0]
        weights = np.exp(np.clip(a, -ATTENTION_CLAMP, ATTENTION_CLAMP))
        np.testing.assert_array_equal(
            y, cell_step(params.upper, upper, (x * weights)[None], 2)[0])
        for whole, low, up in zip(state.values, lower.values, upper.values):
            np.testing.assert_array_equal(
                whole, np.concatenate((low, up), axis=-1))


def test_delayed_variant_ignores_recent_push():
    # with lag 3 and one stored state, the reference is still cold-start zero
    params, _ = cell_init(CellKind.LSTM, 2, 3,
                          connection=Connection.DELAYED_ONLY, seed=24)
    fresh = new_state(params, 3)
    poked = new_state(params, 3)
    poked.values.append(np.r_[np.full(3, 9.0), np.full(3, -9.0)])  # h, c
    x = np.array([0.4, 0.6])
    y_fresh = cell_step(params, fresh, x[None], 3)[0]
    y_poked = cell_step(params, poked, x[None], 3)[0]
    np.testing.assert_array_equal(y_fresh, y_poked)


def test_delayed_variant_input_isolation():
    # with lag d, the recurrent path carries nothing from step t-1 into
    # step t: perturbing x_{t-1} leaves y_t unchanged, perturbing x_{t-d}
    # changes it
    params, _ = cell_init(CellKind.GRU, 2, 3,
                          connection=Connection.DELAYED_ONLY, seed=27)
    rng = np.random.default_rng(6)
    xs = [rng.normal(size=2) for _ in range(6)]
    base = run_cell(params, xs, dilation=3)

    bumped_prev = [x.copy() for x in xs]
    bumped_prev[4] += 1.0  # t-1 relative to the last step
    same = run_cell(params, bumped_prev, dilation=3)
    np.testing.assert_array_equal(same[5], base[5])

    bumped_lag = [x.copy() for x in xs]
    bumped_lag[2] += 1.0  # t-3 relative to the last step
    changed = run_cell(params, bumped_lag, dilation=3)
    assert np.max(np.abs(changed[5] - base[5])) > 1e-9


def test_dilation_one_merges_recent_and_delayed_weights():
    params, _ = cell_init(CellKind.DLSTM, 3, hidden_size=2, out_size=2, seed=25)
    merged = copy.deepcopy(params)
    for name, gate in merged.gates.items():  # in place: views of the stack
        gate.V[...] += params.gates[name].U
        gate.U[...] = 0.0
    rng = np.random.default_rng(5)
    xs = random_inputs(rng, 6, 3)
    a = run_cell(params, xs, dilation=1)
    b = run_cell(merged, xs, dilation=1)
    for ya, yb in zip(a, b):
        np.testing.assert_allclose(ya, yb, rtol=0, atol=1e-12)
    # with a real delay the two weight sets differ
    a = run_cell(params, xs, dilation=2)
    b = run_cell(merged, xs, dilation=2)
    assert max(np.max(np.abs(ya - yb)) for ya, yb in zip(a, b)) > 1e-6


@pytest.mark.parametrize("kind,kwargs", [
    (CellKind.LSTM, {}), (CellKind.GRU, {}), (CellKind.DLSTM, {"out_size": 2}),
    (CellKind.DRNN, {"out_size": 2}), (CellKind.ADRNN, {"out_size": 2})],
    ids=["lstm", "gru", "dlstm", "drnn", "adrnn"])
def test_views_write_through_to_the_stacked_matrix(kind, kwargs):
    # the gate blocks and named arrays are views into one stacked matrix per
    # cell (stage), so writing through them moves the step output, on a
    # deep copy as well
    params, _ = cell_init(kind, 3, hidden_size=2, seed=29, **kwargs)
    xs = random_inputs(np.random.default_rng(8), 5, 3)
    base = run_cell(params, xs, dilation=2)
    for p in (params, copy.deepcopy(params)):
        stage = p.upper if p.kind is CellKind.ADRNN else p
        runs = [run_cell(p, xs, dilation=2)]
        list(stage.gates.values())[-1].b[:] += 0.5  # the candidate bias
        runs.append(run_cell(p, xs, dilation=2))
        _, first = p.named_arrays()[0]
        first[...] *= -1.0
        runs.append(run_cell(p, xs, dilation=2))
        for ya, yb in zip(base, runs[0]):
            np.testing.assert_array_equal(ya, yb)
        for before, after in zip(runs, runs[1:]):
            assert max(np.max(np.abs(ya - yb))
                       for ya, yb in zip(before, after)) > 1e-6


def test_drnn_update_gate_extremes():
    # saturated update gate: c keeps only the fused old states; shut update
    # gate: c keeps only the candidate
    c_recent, c_delayed = np.array([0.3, -0.2]), np.array([1.1, 0.4])
    x = np.array([0.2, 0.9])

    params, state = cell_init(CellKind.DRNN, 2, hidden_size=1, out_size=1,
                              dilation=2, seed=26)
    zero_params(params)
    params.gates["update"].b[:] = 50.0
    state.values.append(np.r_[0.0, 0.0, c_delayed])  # h, output, c
    state.values.append(np.r_[0.0, 0.0, c_recent])
    cell_step(params, state, x[None], 2)
    np.testing.assert_allclose(c_read(params, state, 1),
                               0.5 * (c_recent + c_delayed), rtol=0, atol=1e-12)

    params2, state2 = cell_init(CellKind.DRNN, 2, hidden_size=1, out_size=1,
                                dilation=2, seed=26)
    zero_params(params2)
    params2.gates["update"].b[:] = -50.0
    params2.gates["candidate"].b[:] = [0.3, -0.4]
    state2.values.append(np.r_[0.0, 0.0, c_delayed])
    state2.values.append(np.r_[0.0, 0.0, c_recent])
    cell_step(params2, state2, x[None], 2)
    np.testing.assert_allclose(c_read(params2, state2, 1),
                               np.tanh([0.3, -0.4]), rtol=0, atol=1e-12)


# -- initialization and validation -----------------------------------------


def test_same_seed_gives_identical_params():
    for kind, kwargs in [
        (CellKind.LSTM, {}),
        (CellKind.GRU, {}),
        (CellKind.DLSTM, {"out_size": 2}),
        (CellKind.DRNN, {"out_size": 2}),
        (CellKind.ADRNN, {"out_size": 2, "upper_hidden_size": 3}),
    ]:
        a, _ = cell_init(kind, 3, 4, seed=42, **kwargs)
        b, _ = cell_init(kind, 3, 4, seed=42, **kwargs)
        c, _ = cell_init(kind, 3, 4, seed=43, **kwargs)
        for (na, arr_a), (nb, arr_b) in zip(a.named_arrays(), b.named_arrays()):
            assert na == nb
            np.testing.assert_array_equal(arr_a, arr_b)
        assert any(not np.array_equal(arr_a, arr_c)
                   for (_, arr_a), (_, arr_c) in zip(a.named_arrays(),
                                                     c.named_arrays()))


def test_init_bounds_and_zero_biases():
    params, _ = cell_init(CellKind.DLSTM, 9, hidden_size=16, out_size=25, seed=1)
    for name, arr in params.named_arrays():
        if name.endswith(".b"):
            np.testing.assert_array_equal(arr, 0.0)
        else:
            fan_in = arr.shape[1]
            bound = 1.0 / math.sqrt(fan_in)
            assert np.all(np.abs(arr) <= bound)
            # draws actually use the band, not a tighter one
            assert np.max(np.abs(arr)) > 0.8 * bound


def test_config_validation():
    with pytest.raises(ConfigError):
        cell_init(CellKind.GRU, 3, 4, connection=Connection.BOTH)
    with pytest.raises(ConfigError):
        cell_init(CellKind.LSTM, 3, 4, connection=Connection.BOTH)
    params, _ = cell_init(CellKind.DLSTM, 3, 4)  # out_size defaults to hidden
    assert (params.out_size, params.cell_size) == (4, 8)
    with pytest.raises(ConfigError):
        cell_init(CellKind.DRNN, 3, 4, out_size=2,
                  connection=Connection.RECENT_ONLY)
    with pytest.raises(ConfigError):
        cell_init(CellKind.LSTM, 3, 4, out_size=5)
    with pytest.raises(ConfigError):
        cell_init(CellKind.LSTM, 0, 4)
    with pytest.raises(ConfigError):
        cell_init(CellKind.DRNN, 3, 4, out_size=2, dilation=0)
    with pytest.raises(ConfigError):
        cell_init(CellKind.ADRNN, 3, 4, out_size=2, upper_hidden_size=0)


def test_state_types_per_kind():
    # one state type for every kind: an empty ring as deep as the dilation
    for kind, kwargs in [(CellKind.LSTM, {}), (CellKind.GRU, {}),
                         (CellKind.DLSTM, {"out_size": 2}),
                         (CellKind.DRNN, {"out_size": 2}),
                         (CellKind.ADRNN, {"out_size": 2})]:
        _, state = cell_init(kind, 2, 2, dilation=4, seed=0, **kwargs)
        assert type(state) is CellState
        assert state.capacity == 4 and len(state) == 0


def test_named_arrays_cover_all_gates():
    params, _ = cell_init(CellKind.ADRNN, 3, hidden_size=2, out_size=2, seed=0)
    names = [n for n, _ in params.named_arrays()]
    assert len(names) == len(set(names))
    assert len(names) == 2 * 4 * 4  # two stages, four gates, W/V/U/b each
    assert "lower.fusion.W" in names and "upper.candidate.b" in names
    gru, _ = cell_init(CellKind.GRU, 3, 2, seed=0)
    assert len(gru.named_arrays()) == 3 * 3  # three gates, W/V/b (no U)
    # the full order is the model-file layout and the initialization order
    def ordered(stage, gates, keys):
        return [f"{stage}{gate}.{key}" for gate in gates for key in keys]

    merged = ("fusion", "update", "output", "candidate")
    assert names == (ordered("lower.", merged, "WVUb")
                     + ordered("upper.", merged, "WVUb"))
    dlstm, _ = cell_init(CellKind.DLSTM, 3, 2, out_size=2, seed=0)
    assert [n for n, _ in dlstm.named_arrays()] == ordered(
        "", ("forget", "input", "output", "candidate"), "WVUb")
    assert [n for n, _ in gru.named_arrays()] == ordered(
        "", ("reset", "update", "candidate"), "WVb")


def test_cell_gradient_shapes_and_determinism():
    # the sweep gradcheck.check_cell runs: one window on a fresh tape, its
    # parameter gradients named like the parameters
    params, _ = cell_init(CellKind.DRNN, 3, hidden_size=2, out_size=2, seed=33)
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(5, 3))
    ups = [rng.normal(size=2) for _ in range(5)]

    def sweep(window):
        tape, state = Tape(), new_state(params, 2)
        cell_step(params, state, window, 2, tape)
        dxs = tape.backward(state, ups)
        return dict(params.named_arrays(
            blocks=tape.grads(params.blocks()))), dxs

    g1, gi1 = sweep(xs)
    g2, gi2 = sweep(xs)
    shapes = dict(params.named_arrays())
    assert set(g1) == set(shapes)
    for name in g1:
        assert g1[name].shape == shapes[name].shape
        np.testing.assert_array_equal(g1[name], g2[name])
    assert len(gi1) == 5
    for a, b in zip(gi1, gi2):
        np.testing.assert_array_equal(a, b)
    # one array read at every step gets the input gradients of copies
    _, gi_shared = sweep(np.broadcast_to(xs[0], xs.shape))
    _, gi_copies = sweep(np.stack([xs[0].copy() for _ in range(5)]))
    for a, b in zip(gi_shared, gi_copies, strict=True):
        np.testing.assert_array_equal(a, b)
