"""Central-difference validation of every cell's analytic gradients."""

import tracemalloc

import numpy as np
import pytest

from loadcast.cells import CellKind, Connection
from loadcast.gradcheck import (
    MULTI_STEP_TOL,
    SINGLE_STEP_TOL,
    check_cell,
    check_gradients,
    check_model,
    relative_error,
)
from loadcast.network import ModelConfig

CELL_CONFIGS = [
    ("lstm_recent", CellKind.LSTM, dict(connection=Connection.RECENT_ONLY)),
    ("lstm_delayed", CellKind.LSTM, dict(connection=Connection.DELAYED_ONLY)),
    ("gru_recent", CellKind.GRU, dict(connection=Connection.RECENT_ONLY)),
    ("gru_delayed", CellKind.GRU, dict(connection=Connection.DELAYED_ONLY)),
    ("dlstm", CellKind.DLSTM, dict(out_size=3)),
    ("drnn", CellKind.DRNN, dict(out_size=3)),
    ("adrnn", CellKind.ADRNN, dict(out_size=3, upper_hidden_size=4)),
]


@pytest.mark.parametrize("label,kind,kwargs",
                         CELL_CONFIGS, ids=[c[0] for c in CELL_CONFIGS])
@pytest.mark.parametrize("dilation", [1, 2, 4, 7])
def test_multi_step_cell_gradients(label, kind, kwargs, dilation):
    seed = 100 * dilation + sum(map(ord, label)) % 50
    report = check_cell(kind, input_size=3, hidden_size=4, dilation=dilation,
                        steps=max(dilation + 4, 7), seed=seed,
                        max_coords_per_block=40, **kwargs)
    assert report.tolerance == MULTI_STEP_TOL
    bad = report.failing_blocks()
    assert report.passed, f"worst {report.worst:.2e} in {[b.name for b in bad]}"


@pytest.mark.parametrize("label,kind,kwargs",
                         CELL_CONFIGS, ids=[c[0] for c in CELL_CONFIGS])
def test_dilation_past_every_step_checks_as_a_short_one(label, kind, kwargs):
    # over 3 steps a dilation of 4 and one of 10**9 both read only cold
    # state; the sweep's adjoint buffer holds at most the chain's steps, so
    # the huge dilation allocates no more than the short one
    tracemalloc.start()
    try:
        huge = check_cell(kind, input_size=3, hidden_size=4, dilation=10**9,
                          steps=3, seed=5, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge == check_cell(kind, input_size=3, hidden_size=4, dilation=4,
                              steps=3, seed=5, **kwargs)
    assert peak < 2**24


@pytest.mark.parametrize("label,kind,kwargs",
                         CELL_CONFIGS, ids=[c[0] for c in CELL_CONFIGS])
def test_single_step_cell_gradients(label, kind, kwargs):
    report = check_cell(kind, input_size=3, hidden_size=4, dilation=1,
                        steps=1, seed=7, **kwargs)
    assert report.tolerance == SINGLE_STEP_TOL
    assert report.passed, f"worst {report.worst:.2e}"


def test_input_gradients_are_checked():
    report = check_cell(CellKind.DRNN, 3, 4, out_size=2, dilation=2, steps=6, seed=3)
    input_blocks = [b for b in report.blocks if b.name.startswith("x[")]
    assert len(input_blocks) == 6
    assert all(b.checked == 3 for b in input_blocks)
    assert report.passed


@pytest.mark.parametrize("variant", ["gru1", "dlstm", "adrnn"])
def test_full_model_gradients(variant):
    config = ModelConfig(cell_variant=variant, hidden_size=3, embed_size=4)
    report = check_model(config, steps=8, seed=31, max_coords_per_block=5)
    bad = [b.name for b in report.failing_blocks()]
    assert report.passed, f"worst {report.worst:.2e} in {bad}"
    names = [b.name for b in report.blocks]
    assert "embed.W" in names and "head.b" in names
    assert any(n.startswith("layer3.") for n in names)


def test_full_model_corrupt_hook():
    report = check_model(steps=4, seed=1, max_coords_per_block=4,
                         corrupt_block="head.W")
    assert not report.passed
    assert [b.name for b in report.failing_blocks()] == ["head.W"]


def test_corrupt_hook_is_detected():
    kwargs = dict(out_size=2, dilation=2, steps=7, seed=5)
    clean = check_cell(CellKind.DRNN, 3, 4, **kwargs)
    assert clean.passed
    bad = check_cell(CellKind.DRNN, 3, 4, corrupt_block="fusion.W", **kwargs)
    assert not bad.passed
    assert [b.name for b in bad.failing_blocks()] == ["fusion.W"]


def test_corrupt_unknown_block_rejected():
    with pytest.raises(KeyError):
        check_cell(CellKind.GRU, 2, 2, steps=2, seed=0, corrupt_block="nope.W")


def test_relative_error_scale_floor():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(0.0, 0.0) == 0.0
    # tiny absolute differences are measured against the 1e-6 floor
    assert relative_error(1e-9, 0.0) == pytest.approx(1e-3)
    assert relative_error(2.0, 1.0) == pytest.approx(0.5)
    assert relative_error(1.0, 2.0) == pytest.approx(0.5)


def test_coordinate_sampling_caps_work():
    w = np.arange(12.0).reshape(3, 4) / 10.0

    def value():
        return float(np.sum(np.sin(w)))

    def gradient():
        return {"w": np.cos(w)}

    rng = np.random.default_rng(0)
    report = check_gradients(value, gradient, [("w", w)],
                             max_coords_per_block=5, rng=rng)
    assert report.blocks[0].checked == 5
    assert report.passed
    full = check_gradients(value, gradient, [("w", w)])
    assert full.blocks[0].checked == 12


def test_quadratic_exactness_of_central_differences():
    # central differences are exact for quadratics up to roundoff
    v = np.array([0.3, -1.2, 2.0])

    def value():
        return float(v @ v)

    def gradient():
        return {"v": 2.0 * v}

    report = check_gradients(value, gradient, [("v", v)], tolerance=1e-9)
    assert report.passed
