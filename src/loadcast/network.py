"""Stacked dilated recurrent forecaster.

Three recurrent layers of one cell kind, dilated 2, 4 and 7 days, with
identity shortcuts between consecutive layer outputs.  The per-day input
concatenates the standardized week, its log level, and a learned linear
embedding of the calendar one-hots.  A linear head maps the top layer output
to 72 numbers: 24 hourly point forecasts and 24 lower and upper interval
bounds, all in standardized space.  No ordering among point and bounds is
imposed; crossings are measured downstream, not prevented.

Only the layers read earlier days, and layers feed only upward, so a window
of days, of one series or of series stacked as rows, is one input step,
layer 1's window, layer 2's and layer 3's, and one head step:
:func:`model_unroll`, which training, serving and the gradient check all
run.  Its five tape entries (the input and head one step each, whose
value is the window's) :func:`model_backward` sweeps from the head down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import (
    CellKind,
    CellParams,
    CellState,
    Connection,
    allocate,
    cell_layout,
    cell_step,
    init_uniform,
    new_state,
)
from .errors import ConfigError
from .preprocess import CALENDAR_SIZE, HOURS_PER_WEEK, ExtendedInput
from .tape import Tape

#: forecast horizon in hours; the head emits point, lower and upper per hour
HORIZON = 24
HEAD_SIZE = 3 * HORIZON
#: hierarchical dilations of the three layers, in days
DILATIONS = (2, 4, 7)
#: names of the tape chains of a window's input and head steps
INPUT, HEAD = "input", "head"

#: model-level cell vocabulary: plain cells come in a recent-state and a
#: delayed-state variant, dilated cells use both connections
CELL_VARIANTS: dict[str, tuple[CellKind, Connection]] = {
    "lstm1": (CellKind.LSTM, Connection.RECENT_ONLY),
    "lstm2": (CellKind.LSTM, Connection.DELAYED_ONLY),
    "gru1": (CellKind.GRU, Connection.RECENT_ONLY),
    "gru2": (CellKind.GRU, Connection.DELAYED_ONLY),
    "dlstm": (CellKind.DLSTM, Connection.BOTH),
    "drnn": (CellKind.DRNN, Connection.BOTH),
    "adrnn": (CellKind.ADRNN, Connection.BOTH),
}

@dataclass(frozen=True)
class ModelConfig:
    cell_variant: str = "adrnn"
    hidden_size: int = 125
    out_size: int | None = None  # defaults to hidden_size
    upper_hidden_size: int | None = None  # adrnn second stage, defaults to hidden
    embed_size: int = 16
    dilations: tuple[int, int, int] = DILATIONS

    def __post_init__(self):
        if self.cell_variant not in CELL_VARIANTS:
            raise ConfigError(
                f"unknown cell variant {self.cell_variant!r}; "
                f"choose from {sorted(CELL_VARIANTS)}")
        if self.embed_size < 1:
            raise ConfigError("sizes must be positive")
        if len(self.dilations) != 3:
            raise ConfigError("need three dilations")
        # the cells' rules: checked by building each layer's layout and state
        for cell, dilation in zip(_cell_layouts(self), self.dilations):
            new_state(cell, dilation)

    @property
    def layer1_input_size(self) -> int:
        return HOURS_PER_WEEK + 1 + self.embed_size


@dataclass
class StackedModel:
    config: ModelConfig
    embedding: np.ndarray  # (embed_size, 90)
    cells: list[CellParams]
    head_w: np.ndarray  # (72, out_size)
    head_b: np.ndarray  # (72,)

    def blocks(self) -> list[np.ndarray]:
        """The parameter arrays as stored: each cell's gates are one
        stacked matrix."""
        return ([self.embedding]
                + [block for cell in self.cells for block in cell.blocks()]
                + [self.head_w, self.head_b])

    def named_arrays(self, blocks=None) -> list[tuple[str, np.ndarray]]:
        """Every learnable array by name, in file and initialization order,
        as views into :meth:`blocks`, or into ``blocks`` (arrays shaped like
        them, e.g. their gradients) when given."""
        blocks = iter(self.blocks() if blocks is None else blocks)
        out = [("embed.W", next(blocks))]
        for i, cell in enumerate(self.cells, start=1):
            out += cell.named_arrays(f"layer{i}.", blocks)
        out.append(("head.W", next(blocks)))
        out.append(("head.b", next(blocks)))
        return out


def _cell_layouts(config: ModelConfig) -> list[CellParams]:
    kind, connection = CELL_VARIANTS[config.cell_variant]
    cells, size = [], config.layer1_input_size
    for _ in config.dilations:
        cells.append(cell_layout(kind, size, config.hidden_size,
                                 config.out_size, config.upper_hidden_size,
                                 connection))
        size = cells[-1].out_size
    return cells


def _block_shapes(config: ModelConfig) -> list:
    cells = _cell_layouts(config)
    shapes = [(config.embed_size, CALENDAR_SIZE)]
    for cell in cells:
        shapes += cell.block_shapes()
    return shapes + [(HEAD_SIZE, cells[-1].out_size), (HEAD_SIZE,)]


def model_param_count(config: ModelConfig) -> int:
    """Number of floats :func:`model_allocate` allocates for ``config``,
    counted without allocating them."""
    return sum(math.prod(shape) for shape in _block_shapes(config))


def _bind(config: ModelConfig, blocks) -> StackedModel:
    """A model for ``config`` holding ``blocks`` in their stored order."""
    blocks = iter(blocks)
    embedding = next(blocks)
    cells = _cell_layouts(config)
    for cell in cells:
        cell.bind(blocks)
    return StackedModel(config, embedding, cells, next(blocks), next(blocks))


def model_allocate(config: ModelConfig) -> StackedModel:
    """A model for ``config`` whose arrays are allocated but not filled."""
    return _bind(config, allocate(_block_shapes(config), "model"))


def model_stack(models) -> StackedModel:
    """A serving view of ``models`` (of one config): every block stacked
    along a leading member axis, so a step serves an (M, B) batch; the head
    bias is (M, 1, 72), to broadcast over a member's rows."""
    *blocks, head_b = (np.stack(b) for b in zip(*(m.blocks() for m in models)))
    return _bind(models[0].config, blocks + [head_b[:, None]])


def model_build(config: ModelConfig, seed=0) -> StackedModel:
    """A freshly initialized model: uniform +-1/sqrt(fan_in) weights drawn
    in :meth:`StackedModel.named_arrays` order, zero biases."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    model = model_allocate(config)
    init_uniform(model.named_arrays(), rng)
    return model


def model_new_state(model: StackedModel) -> list[CellState]:
    return [new_state(cell, d)
            for cell, d in zip(model.cells, model.config.dilations)]


def model_step(model: StackedModel, states: list[CellState], u1: np.ndarray,
               tape: Tape | None = None) -> np.ndarray:
    """The recurrent stack over the window ``u1`` (``(T, ...,
    layer1_input_size)``): layer 1's window, then layer 2's, then layer
    3's, each one :func:`cell_step` advancing its ring of ``states`` by T
    steps, with identity shortcuts; returns the top layer's (T, ...)
    outputs.  Each layer's window is one entry of ``tape``'s chain of its
    layer, when given."""
    d1, d2, d3 = model.config.dilations
    y1 = cell_step(model.cells[0], states[0], u1, d1, tape, window=True)
    y2 = cell_step(model.cells[1], states[1], y1, d2, tape, window=True) + y1
    return cell_step(model.cells[2], states[2], y2, d3, tape,
                     window=True) + y2


def model_unroll(model: StackedModel, states: list[CellState],
                 inputs: ExtendedInput, tape: Tape | None = None
                 ) -> np.ndarray:
    """The window ``inputs`` forward: ``[week; level; E calendar]`` for all
    days, :func:`model_step` over them, then the head for all days, whose
    ``(T, ..., 72)`` output (point, lower, upper) it returns.

    ``inputs`` holds one series' (T, ...) days, or (T, B, ...) for series
    stacked as rows of ``states``; a :func:`model_stack` maps (T, 1, B,
    ...) to (T, M, B, 72).  Recorded on ``tape``, if given, for
    :func:`model_backward`; else the parameters are registered on a
    forward-only tape and no step is kept.
    """
    if tape is None:
        tape = Tape(forward_only=True)
    calendar = inputs.calendar
    embedded = calendar @ model.embedding.swapaxes(-1, -2)
    # filled part by part, so a member axis broadcasts over the days' input
    u1 = np.empty(embedded.shape[:-1] + (model.config.layer1_input_size,))
    u1[..., :HOURS_PER_WEEK] = inputs.week
    u1[..., HOURS_PER_WEEK] = inputs.level
    u1[..., HOURS_PER_WEEK + 1:] = embedded
    # gradient parts go to the tape day by day, the last day first (the head
    # bias: each day's rows summed, then the days), as per-day steps would
    tape.record(INPUT, (1, *u1.shape), (0, u1.shape[-1]), (),
                (model.embedding,),
                [lambda g: (list(zip(g[::-1, ..., HOURS_PER_WEEK + 1:],
                                     calendar[::-1])), None)])
    y3 = model_step(model, states, u1, tape)
    w = model.head_w
    heads = y3 @ w.swapaxes(-1, -2) + model.head_b
    tape.record(HEAD, (1, *heads.shape), (0, HEAD_SIZE), (),
                (w, model.head_b),
                [lambda g: (list(zip(g[::-1], y3[::-1])), np.add.reduce(
                    g.reshape(len(g), -1, HEAD_SIZE).sum(1)[::-1]), g @ w)])
    return heads


def model_backward(model: StackedModel, states: list[CellState], tape: Tape,
                   head_grads: np.ndarray) -> list[np.ndarray]:
    """Gradients of ``sum(head_grads * heads)`` for the window unrolled on
    ``tape`` with ``states``, for :meth:`StackedModel.blocks` in order.

    Sweeps the head, layer 3, layer 2, layer 1 and input chains in turn.  A
    layer's output adjoint adds what its shortcut sends, then what the layer
    above sends; another order rounds every gradient differently.
    """
    layer1, layer2, layer3 = states
    (dy3,) = tape.backward(HEAD, [head_grads])
    dy2 = dy3 + np.stack(tape.backward(layer3, dy3))
    dx2 = np.stack(tape.backward(layer2, dy2))
    tape.backward(INPUT, [np.stack(tape.backward(layer1, dy2, dx2))])
    return tape.grads(model.blocks())
