"""Stack wiring: shortcuts, embedding, head split, state threading."""

import numpy as np
import pytest

from loadcast.cells import cell_step, new_state
from loadcast.errors import ConfigError
from loadcast.gradcheck import random_day_inputs
from loadcast.network import (
    CELL_VARIANTS,
    DILATIONS,
    HEAD,
    HEAD_SIZE,
    HORIZON,
    INPUT,
    ModelConfig,
    model_backward,
    model_build,
    model_new_state,
    model_param_count,
    model_step,
    model_unroll,
)
from loadcast.preprocess import ExtendedInput
from loadcast.tape import Tape


def small_config(variant="drnn", **kw):
    kw.setdefault("hidden_size", 3)
    kw.setdefault("out_size", 3)
    kw.setdefault("embed_size", 4)
    return ModelConfig(cell_variant=variant, **kw)


def zero_all(named_arrays):
    for _, arr in named_arrays:
        arr[:] = 0.0


def days(window) -> int:
    return len(window.week)


def stacked(windows):
    """The (T, B, ...) input of per-series (T_b, ...) windows; a short
    window repeats its last day to the longest's length."""
    t = np.arange(max(map(days, windows)))
    rows = [w[np.minimum(t, days(w) - 1)] for w in windows]
    return ExtendedInput(*(np.stack([getattr(r, part) for r in rows], axis=1)
                           for part in ("week", "level", "calendar")), None)


def day_by_day(model, states, window, upstream=None):
    """The heads of ``window``'s days unrolled as one-day windows in turn on
    one tape; given ``upstream`` (shaped like the heads), also the block
    gradients, sweeping the per-day chains as model_backward sweeps a
    window's."""
    tape = Tape()
    heads = np.concatenate([model_unroll(model, states, window[t:t + 1], tape)
                            for t in range(days(window))])
    if upstream is None:
        return heads
    layer1, layer2, layer3 = states
    dy3 = np.concatenate(tape.backward(HEAD, upstream[:, None]))
    dy2 = dy3 + np.stack(tape.backward(layer3, dy3))
    dx2 = tape.backward(layer2, dy2)
    tape.backward(INPUT, [dx[None] for dx in tape.backward(layer1, dy2, dx2)])
    return heads, tape.grads(model.blocks())


@pytest.mark.parametrize("variant", ["lstm1", "gru2", "dlstm", "drnn", "adrnn"])
def test_step_matches_composition_of_tested_parts(variant):
    rng = np.random.default_rng(1)
    model = model_build(small_config(variant), seed=11)
    inputs = random_day_inputs(rng, 9)

    # one series as a one-row batch
    got = model_unroll(model, model_new_state(model), inputs[:, None], Tape())

    # independent re-composition from the individually tested pieces
    ref_states = [new_state(c, d) for c, d in zip(model.cells, DILATIONS)]
    for t, out in enumerate(got[:, 0]):
        ext = inputs[t]
        u1 = np.concatenate([ext.week, [ext.level],
                             model.embedding @ ext.calendar])
        y1 = cell_step(model.cells[0], ref_states[0], u1, 2)
        y2 = cell_step(model.cells[1], ref_states[1], y1, 4) + y1
        y3 = cell_step(model.cells[2], ref_states[2], y2, 7) + y2
        head = model.head_w @ y3 + model.head_b
        np.testing.assert_array_equal(out[:HORIZON], head[:HORIZON])
        np.testing.assert_array_equal(out[HORIZON:2 * HORIZON],
                                      head[HORIZON:2 * HORIZON])
        np.testing.assert_array_equal(out[2 * HORIZON:], head[2 * HORIZON:])


def test_zero_head_gives_zero_output():
    model = model_build(small_config("adrnn"), seed=3)
    model.head_w[:] = 0.0
    model.head_b[:] = 0.0
    inputs = random_day_inputs(np.random.default_rng(2), 4)
    out = model_unroll(model, model_new_state(model), inputs)
    assert out.shape == (4, HEAD_SIZE)
    np.testing.assert_array_equal(out, 0.0)


def test_zeroed_upper_cells_reduce_to_layer1_plus_head():
    # zero-parameter dilated cells emit zero from zero states, so both
    # shortcuts turn layers 2 and 3 into identities
    model = model_build(small_config("drnn"), seed=4)
    zero_all(model.cells[1].named_arrays())
    zero_all(model.cells[2].named_arrays())
    inputs = random_day_inputs(np.random.default_rng(5), 6)

    outs = model_unroll(model, model_new_state(model), inputs[:, None])
    ref_state = new_state(model.cells[0], DILATIONS[0])
    for t, out in enumerate(outs[:, 0]):
        ext = inputs[t]
        u1 = np.concatenate([ext.week, [ext.level],
                             model.embedding @ ext.calendar])
        y1 = cell_step(model.cells[0], ref_state, u1, DILATIONS[0])
        head = model.head_w @ y1 + model.head_b
        np.testing.assert_array_equal(out[:HORIZON], head[:HORIZON])


def test_removing_shortcuts_changes_outputs():
    model = model_build(small_config("drnn"), seed=6)
    inputs = random_day_inputs(np.random.default_rng(7), 3)
    with_short = model_unroll(model, model_new_state(model),
                              inputs)[:, :HORIZON]

    bare_states = [new_state(c, d) for c, d in zip(model.cells, DILATIONS)]
    without = []
    for t in range(3):
        ext = inputs[t]
        u1 = np.concatenate([ext.week, [ext.level],
                             model.embedding @ ext.calendar])
        y1 = cell_step(model.cells[0], bare_states[0], u1, 2)
        y2 = cell_step(model.cells[1], bare_states[1], y1, 4)
        y3 = cell_step(model.cells[2], bare_states[2], y2, 7)
        without.append((model.head_w @ y3 + model.head_b)[:HORIZON])
    diffs = [np.max(np.abs(a - b)) for a, b in zip(with_short, without)]
    assert max(diffs) > 1e-6


def test_unroll_window_of_one_equals_step():
    # a one-day window is the day's input, one step of the recurrent stack
    # and the head
    model = model_build(small_config("dlstm"), seed=8)
    inputs = random_day_inputs(np.random.default_rng(9), 1)
    tape = Tape()
    outs = model_unroll(model, model_new_state(model), stacked([inputs]), tape)
    ext = inputs[0]
    u1 = np.concatenate([ext.week, [ext.level], model.embedding @ ext.calendar])
    y3 = model_step(model, model_new_state(model), u1)
    assert outs.shape == (1, 1, HEAD_SIZE)
    np.testing.assert_array_equal(outs[0, 0], model.head_w @ y3 + model.head_b)
    assert len(tape) > 0


def test_dilation_reach_through_layer3_buffer():
    model = model_build(small_config(), seed=12)
    inputs = random_day_inputs(np.random.default_rng(13), 10)
    states = model_new_state(model)
    layer3, h = states[2], model.cells[2].hidden_size
    layer3_h = []
    for t in range(9):
        model_unroll(model, states, inputs[t:t + 1])
        layer3_h.append(np.array(layer3.read((), 1, 0, h), copy=True))
    # at the next step the top layer's delayed read is the step-3 state
    delayed = layer3.read((), 7, 0, h)
    np.testing.assert_array_equal(delayed, layer3_h[2])


@pytest.mark.parametrize("variant", ["gru1", "drnn", "adrnn"])
def test_each_step_advances_every_layer_once(variant):
    model = model_build(small_config(variant), seed=14)
    states = model_new_state(model)
    inputs = random_day_inputs(np.random.default_rng(15), 8)
    for k in range(1, 9):
        model_unroll(model, states, inputs[k - 1:k])
        for layer_state, d in zip(states, DILATIONS):
            assert len(layer_state) == min(k, max(1, d))


def test_same_seed_builds_identical_model():
    a = model_build(small_config("adrnn"), seed=77)
    b = model_build(small_config("adrnn"), seed=77)
    c = model_build(small_config("adrnn"), seed=78)
    for (na, xa), (nb, xb) in zip(a.named_arrays(), b.named_arrays()):
        assert na == nb
        np.testing.assert_array_equal(xa, xb)
    assert any(not np.array_equal(xa, xc)
               for (_, xa), (_, xc) in zip(a.named_arrays(), c.named_arrays()))


@pytest.mark.parametrize("variant", sorted(CELL_VARIANTS))
@pytest.mark.parametrize("sizes", [
    {},
    {"hidden_size": 5, "embed_size": 3},
    {"hidden_size": 4, "embed_size": 2, "out_size": 7, "upper_hidden_size": 3},
], ids=["reference", "small", "split-out"])
def test_param_count_matches_built_model(variant, sizes):
    if variant[:-1] in ("lstm", "gru") and "out_size" in sizes:
        sizes = {"hidden_size": 6, "embed_size": 2}  # output is the state
    if variant != "adrnn":  # only the attentive cell has an upper stage
        sizes = {k: v for k, v in sizes.items() if k != "upper_hidden_size"}
    config = ModelConfig(cell_variant=variant, **sizes)
    built = model_build(config, seed=0).named_arrays()
    assert model_param_count(config) == sum(arr.size for _, arr in built)


def test_reference_and_desk_sizes():
    full = model_build(ModelConfig(), seed=0)
    assert [cell.out_size for cell in full.cells] == [125] * 3
    assert full.cells[0].upper.cell_size == 250  # upper hidden + out
    assert full.cells[1].lower.cell_size == 125 + 125  # hidden + input
    assert full.cells[0].lower.cell_size == 125 + (168 + 1 + 16)
    assert full.head_w.shape == (HEAD_SIZE, 125)
    assert full.embedding.shape == (16, 90)

    desk = model_build(ModelConfig(hidden_size=16, embed_size=8), seed=0)
    assert desk.cells[0].upper.cell_size == 32
    assert desk.cells[0].lower.input_size == 168 + 1 + 8

    split = model_build(ModelConfig(cell_variant="dlstm", hidden_size=125), seed=0)
    assert split.cells[1].cell_size == 250
    assert split.cells[1].input_size == 125


def test_config_validation():
    with pytest.raises(ConfigError, match="variant"):
        ModelConfig(cell_variant="rnn")
    with pytest.raises(ConfigError, match="hidden_size"):
        ModelConfig(cell_variant="lstm1", hidden_size=8, out_size=9)
    with pytest.raises(ConfigError, match="upper_hidden_size"):
        ModelConfig(cell_variant="drnn", hidden_size=4, embed_size=2,
                    upper_hidden_size=50)
    with pytest.raises(ConfigError):
        ModelConfig(hidden_size=0)
    with pytest.raises(ConfigError):
        ModelConfig(dilations=(2, 4))
    with pytest.raises(ConfigError):
        ModelConfig(dilations=(2, 0, 7))


def test_unroll_tape_supports_backward():
    model = model_build(small_config("adrnn"), seed=17)
    inputs = random_day_inputs(np.random.default_rng(18), 5)
    states, tape = model_new_state(model), Tape()
    outs = model_unroll(model, states, stacked([inputs]), tape)
    grads = model_backward(model, states, tape, np.ones_like(outs))
    g_embed, g_head = grads[0], grads[-2]
    assert g_head.shape == model.head_w.shape
    assert np.any(g_head != 0.0)
    assert np.any(g_embed != 0.0)


# -- series stacked as rows ------------------------------------------------


def batched_window(model, states, windows, upstream):
    """Outputs and block gradients of one batched window; ``upstream[b]``
    holds a (72,) seed per real day of window b, padded days get zeros."""
    tape = Tape()
    outs = model_unroll(model, states, stacked(windows), tape)
    seeds = np.zeros_like(outs)
    for b, gb in enumerate(upstream):
        seeds[:len(gb), b] = gb
    return outs, model_backward(model, states, tape, seeds)


@pytest.mark.parametrize("variant", sorted(CELL_VARIANTS))
def test_batched_windows_match_per_series_unrolls(variant):
    # window 0 unrolls three fresh series of 5, 5 and 2 days; window 1
    # carries series a (3 days, the short end of its run), starts b afresh
    # (4 days, after a gap) and drops c, which has no second window
    rng = np.random.default_rng(21)
    model = model_build(small_config(variant), seed=22)
    groups = [
        [("a", random_day_inputs(rng, 5), True),
         ("b", random_day_inputs(rng, 5), True),
         ("c", random_day_inputs(rng, 2), True)],
        [("a", random_day_inputs(rng, 3), False),
         ("b", random_day_inputs(rng, 4), True)],
    ]
    states, rows = model_new_state(model), []
    refs = {}
    for group in groups:
        if rows:
            carried = np.array([rows.index(sid) for sid, _, _ in group])
            cold = np.array([fresh for _, _, fresh in group])
            for ring in states:
                ring.regroup(carried, cold)
        rows = [sid for sid, _, _ in group]
        upstream = [rng.normal(size=(days(w), HEAD_SIZE)) for _, w, _ in group]
        outs, grads = batched_window(model, states, [w for _, w, _ in group],
                                     upstream)
        want = [np.zeros_like(block) for block in model.blocks()]
        for b, ((sid, inputs, fresh), gb) in enumerate(zip(group, upstream)):
            if fresh:
                refs[sid] = model_new_state(model)
            ref_outs, ref_grads = day_by_day(model, refs[sid], inputs, gb)
            for t, ref in enumerate(ref_outs):
                np.testing.assert_allclose(outs[t][b], ref, rtol=1e-12,
                                           atol=1e-12)
            want = [w + g for w, g in zip(want, ref_grads)]
        for got, ref in zip(grads, want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", ["lstm2", "gru1", "dlstm", "adrnn"])
def test_padded_rows_contribute_exactly_zero(variant):
    # a short window is padded by repeating its last day; days with other
    # inputs in its place, seeded with zeros, change no bit of the outputs
    # of real days or of any gradient
    rng = np.random.default_rng(23)
    model = model_build(small_config(variant), seed=24)
    long = random_day_inputs(rng, 6)
    extended = random_day_inputs(rng, 6)
    upstream = [rng.normal(size=(6, HEAD_SIZE)), rng.normal(size=(2, HEAD_SIZE))]
    outs, grads = batched_window(model, model_new_state(model),
                                 [long, extended[:2]], upstream)
    ext_outs, ext_grads = batched_window(model, model_new_state(model),
                                         [long, extended], upstream)
    for out, ext_out in zip(outs, ext_outs):
        np.testing.assert_array_equal(out[0], ext_out[0])
    for out, ext_out in zip(outs[:2], ext_outs):
        np.testing.assert_array_equal(out[1], ext_out[1])
    for got, ref in zip(grads, ext_grads):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("variant", sorted(CELL_VARIANTS))
def test_one_row_batch_equals_one_series_unroll_bitwise(variant):
    rng = np.random.default_rng(25)
    model = model_build(small_config(variant), seed=26)
    inputs = random_day_inputs(rng, 9)
    upstream = rng.normal(size=(9, HEAD_SIZE))
    outs, grads = batched_window(model, model_new_state(model), [inputs],
                                 [upstream])
    ref_outs, ref_grads = day_by_day(model, model_new_state(model), inputs,
                                     upstream)
    for out, ref in zip(outs, ref_outs):
        np.testing.assert_array_equal(out, ref[None])
    for got, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("variant", ["gru2", "adrnn"])
def test_window_group_records_as_many_nodes_as_one_series(variant):
    rng = np.random.default_rng(27)
    model = model_build(small_config(variant), seed=28)
    windows = [random_day_inputs(rng, 4) for _ in range(5)]
    one, five = Tape(), Tape()
    model_unroll(model, model_new_state(model), stacked(windows[:1]), one)
    model_unroll(model, model_new_state(model), stacked(windows), five)
    assert len(five) == len(one)


@pytest.mark.parametrize("variant", ["lstm1", "adrnn"])
@pytest.mark.parametrize("window_days", [1, 6])
def test_window_is_one_input_step_three_cell_steps_a_day_and_one_head_step(
        variant, window_days):
    model = model_build(small_config(variant), seed=29)
    windows = [random_day_inputs(np.random.default_rng(30), window_days)] * 2
    tape = Tape()
    model_unroll(model, model_new_state(model), stacked(windows), tape)
    assert len(tape) == len(model.blocks()) + 3 * window_days + 2


@pytest.mark.parametrize("variant", sorted(CELL_VARIANTS))
def test_window_is_bitwise_its_days_unrolled_in_turn(variant):
    # time is a batch axis of the window's input and head products, and
    # their gradient parts reach the tape in the per-day sweep's order
    rng = np.random.default_rng(31)
    model = model_build(small_config(variant), seed=32)
    window = stacked([random_day_inputs(rng, 9) for _ in range(3)])
    upstream = rng.normal(size=(9, 3, HEAD_SIZE))
    tape, states = Tape(), model_new_state(model)
    heads = model_unroll(model, states, window, tape)
    grads = model_backward(model, states, tape, upstream)
    ref_heads, ref_grads = day_by_day(model, model_new_state(model), window,
                                      upstream)
    np.testing.assert_array_equal(heads, ref_heads)
    for got, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("variant", ["gru2", "dlstm", "adrnn"])
def test_heads_without_a_tape_equal_recorded_heads(variant):
    model = model_build(small_config(variant), seed=33)
    window = stacked([random_day_inputs(np.random.default_rng(34), 7)] * 2)
    recorded = model_unroll(model, model_new_state(model), window, Tape())
    np.testing.assert_array_equal(
        model_unroll(model, model_new_state(model), window), recorded)
