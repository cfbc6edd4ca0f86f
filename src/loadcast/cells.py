"""The five gated recurrent cells and their exact training gradients.

A layer's state is the ring of its last ``d`` step values; a value holds
the step's h-state, output and c-state as parts of its last axis.  A cell
step takes and returns plain arrays: it reads ``(lag, lo, hi)`` parts of
earlier values (the layer's read table, its h reads then its c reads),
appends its own value and returns the output y.  :func:`cell_step` runs a
layer's (T, ...) window of steps, its only form, one step being a window
of one; it builds the read table once per window.  Given a
:class:`~loadcast.tape.Tape`, it records the window, with that table, as
one entry on the chain of its layer's state, one vjp per block; the tape's
sweep of that chain gives reverse-mode gradients through any number of
steps.

A window runs in blocks: ``d`` days for the delayed-only plain cells over
row batches, whose every read is ``d`` steps back, so the steps of a block
read none of each other, and one day for every other cell and every 1-d
window.  A block runs one stage function, :func:`_stage`, per gate stack
(adrnn has two): it takes the block's read parts of the stack, builds the
gate input ``[x; h_recent; h_delayed; 1]`` and runs one of three
pure-array kernels (``_lstm`` for LSTM and dilated LSTM, ``_gru``,
``_drnn``), which compute all gate pre-activations with one product of that
input and the stack's gate matrix and return the stack's value with its
hand-written backward pass; their sigmoid gates are :func:`logistic`,
``0.5 + 0.5 * tanh(x / 2)``.  That pass multiplies the sigmoid gates'
derivative chains link by link over the whole gate block, each element in
its gate's own left-to-right order, so it rounds as per-gate chains do.  A
step takes one series' input vector, or a batch of series as rows
(``z @ W.T``), with the state values holding one row per series, the
matrix's gradient then being one product over a window's rows; matrices
with a leading member axis step one batch per member, and a block's steps
are one more leading axis.  Cells with dilation read both the
most recent state and the state from ``d`` steps ago; plain LSTM/GRU run in
one of two connection variants, fed either by the recent state only or by
the delayed state only.

The split-output cells (dilated LSTM, the merged gate cell, and its attentive
two-stage version) divide the raw activation into a controlling hidden part,
which feeds the gates of later steps, and an output part that goes to the next
layer.  The attentive cell runs two merged-gate stages in one step: the
first emits a per-component attention vector whose clamped exponential
rescales the input of the second; the step's value is the two stages'
values end to end.

:func:`cell_layout` is the one home of the cells' size and connection
rules, :func:`new_state` of the dilation rule and :func:`allocate` of
the parameter arrays' memory check.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .tape import Tape

#: attention pre-activations are clamped to this band before exponentiation
ATTENTION_CLAMP = 10.0


class CellKind(Enum):
    LSTM = "lstm"
    GRU = "gru"
    DLSTM = "dlstm"
    DRNN = "drnn"
    ADRNN = "adrnn"


class Connection(Enum):
    RECENT_ONLY = "recent_only"
    DELAYED_ONLY = "delayed_only"
    BOTH = "both"


#: gate layout per cell kind, in parameter/initialization order
GATE_NAMES = {
    CellKind.LSTM: ("forget", "input", "output", "candidate"),
    CellKind.GRU: ("reset", "update", "candidate"),
    CellKind.DLSTM: ("forget", "input", "output", "candidate"),
    CellKind.DRNN: ("fusion", "update", "output", "candidate"),
}

#: cells whose gates read both the recent and the delayed state
_DILATED = (CellKind.DLSTM, CellKind.DRNN)

@dataclass
class GateBlock:
    """Weights of one gate: input, recent-state, delayed-state, bias."""

    W: np.ndarray
    V: np.ndarray
    U: np.ndarray | None
    b: np.ndarray


@dataclass
class CellParams:
    kind: CellKind
    connection: Connection
    input_size: int
    hidden_size: int  # controlling state fed back into the gates
    out_size: int  # what the cell passes to the next layer
    cell_size: int  # size of the c-state (0 when the cell has none)
    #: the gates stacked along the rows, columns ``[W | V | U | b]``
    stack: np.ndarray | None = None
    lower: "CellParams | None" = None  # attentive cell only
    upper: "CellParams | None" = None

    @property
    def gate_size(self) -> int:
        return self.cell_size if self.kind in _DILATED else self.hidden_size

    @property
    def stages(self) -> tuple:
        """The gate stacks a step runs, in order: the attentive cell's lower
        and upper stage, the cell itself for every other kind."""
        return ((self.lower, self.upper) if self.kind is CellKind.ADRNN
                else (self,))

    def block_shapes(self) -> list[tuple[int, int]]:
        """Shapes of the stacked gate matrices, in :meth:`blocks` order."""
        return [(len(GATE_NAMES[s.kind]) * s.gate_size,
                 s.input_size + _h_reads(s) * s.hidden_size + 1)
                for s in self.stages]

    def blocks(self) -> list[np.ndarray]:
        return [stage.stack for stage in self.stages]

    def bind(self, blocks):
        """Take the stacked matrices from the iterator ``blocks``."""
        for stage, shape in zip(self.stages, self.block_shapes()):
            stage.stack = next(blocks)
            if stage.stack.shape[-2:] != shape:
                raise ValueError("stacked gate matrix has the wrong shape")

    @property
    def gates(self) -> dict[str, GateBlock]:
        """Per-gate views into :attr:`stack`."""
        return _gate_views(self, self.stack)

    def named_arrays(self, prefix: str = "",
                     blocks=None) -> list[tuple[str, np.ndarray]]:
        """All learnable arrays in a fixed, deterministic order, as views
        into the stacked matrices, or into ``blocks`` (arrays shaped like
        :meth:`blocks`, e.g. their gradients) when given; two stages are
        named ``lower.`` and ``upper.``."""
        blocks = iter(self.blocks() if blocks is None else blocks)
        parts = ("lower.", "upper.") if len(self.stages) > 1 else ("",)
        out = []
        for stage, part in zip(self.stages, parts):
            for name, gate in _gate_views(stage, next(blocks)).items():
                out += [(f"{prefix}{part}{name}.{key}", arr)  # W, V, U, b
                        for key, arr in vars(gate).items() if arr is not None]
        return out


def _gate_views(params: CellParams, stack: np.ndarray) -> dict[str, GateBlock]:
    rows, i, h = params.gate_size, params.input_size, params.hidden_size
    views = {}
    for k, name in enumerate(GATE_NAMES[params.kind]):
        gate = stack[k * rows:(k + 1) * rows]
        views[name] = GateBlock(
            W=gate[:, :i], V=gate[:, i:i + h],
            U=gate[:, i + h:i + 2 * h] if params.kind in _DILATED else None,
            b=gate[:, -1])
    return views


class CellState:
    """A layer's state: the ring of its last ``capacity`` step values, the
    arrays its steps record on the tape, one vector or one row per series
    each.  Steps read ``(lag, lo, hi)`` parts of them; lags beyond recorded
    history read as cold-start zeros."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.values = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self.values)

    def read(self, rows: tuple, lag: int, lo: int, hi: int) -> np.ndarray:
        """Part ``[lo:hi]`` of the value stored ``lag`` steps ago, or zeros
        with leading shape ``rows`` before enough history."""
        if lag < 1 or lag > self.capacity:
            raise ValueError(f"lag {lag} outside buffer capacity {self.capacity}")
        if lag > len(self.values):
            return np.zeros((*rows, hi - lo))
        return self.values[-lag][..., lo:hi]

    def regroup(self, rows: np.ndarray, fresh: np.ndarray):
        """Row ``i`` of every value becomes old row ``rows[i]``, or zeros,
        which read like a cold start, where ``fresh[i]``."""
        for k in range(len(self.values)):
            value = self.values[k][rows]
            value[fresh] = 0.0
            self.values[k] = value


def new_state(params: CellParams, dilation: int) -> CellState:
    """A fresh state for a cell of any kind, sized for ``dilation``, from 1
    to the longest ring a deque holds."""
    if not 1 <= dilation <= sys.maxsize:
        raise ConfigError(f"dilation must be >= 1 and at most the longest "
                          f"state ring, {sys.maxsize}")
    return CellState(dilation)


def cell_layout(
    kind: CellKind,
    input_size: int,
    hidden_size: int,
    out_size: int | None = None,
    upper_hidden_size: int | None = None,
    connection: Connection | None = None,
) -> CellParams:
    """Validated sizes of a cell, with no parameter arrays bound yet: the one
    home of the size and connection rules.  Output size defaults to hidden
    size, the only one plain LSTM/GRU take; only adrnn has an upper stage."""
    plain = kind in (CellKind.LSTM, CellKind.GRU)
    connection = connection or (Connection.RECENT_ONLY if plain
                                else Connection.BOTH)
    out_size = hidden_size if out_size is None else out_size
    if min(input_size, hidden_size, out_size) < 1:
        raise ConfigError("sizes must be positive")
    if plain == (connection is Connection.BOTH):
        raise ConfigError(f"{kind.value} does not support "
                          f"{connection.value} connections")
    if plain and out_size != hidden_size:
        raise ConfigError(f"{kind.value} emits its hidden state; out_size "
                          "must match hidden_size")
    if kind is not CellKind.ADRNN:
        if upper_hidden_size is not None:
            raise ConfigError(f"{kind.value} has no upper stage; "
                              "upper_hidden_size applies to adrnn only")
        return CellParams(kind, connection, input_size, hidden_size, out_size,
                          {CellKind.LSTM: hidden_size, CellKind.GRU: 0}.get(
                              kind, hidden_size + out_size))
    lower = cell_layout(CellKind.DRNN, input_size, hidden_size,
                        out_size=input_size)
    upper = cell_layout(CellKind.DRNN, input_size, hidden_size
                        if upper_hidden_size is None else upper_hidden_size,
                        out_size=out_size)
    return CellParams(kind, connection, input_size, hidden_size, out_size,
                      upper.cell_size, lower=lower, upper=upper)


def allocate(shapes, what: str) -> list[np.ndarray]:
    """Unfilled arrays of ``shapes``, the parameters of a ``what``, or a
    :class:`ConfigError` naming their count if they do not fit in memory."""
    try:
        return [np.empty(shape) for shape in shapes]
    except (MemoryError, ValueError):  # ValueError: past numpy's size range
        raise ConfigError(f"a {what} of {sum(map(math.prod, shapes))} "
                          "parameters does not fit in memory") from None


def init_uniform(named, rng: np.random.Generator):
    """Fill the ``(name, array)`` pairs in order: biases (names ending in
    ``.b``) with zeros, every other array from U(+-1/sqrt(fan_in)), its
    column count being the fan-in."""
    for name, arr in named:
        if name.endswith(".b"):
            arr[...] = 0.0
        else:
            bound = 1.0 / np.sqrt(arr.shape[1])
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)


def cell_init(
    kind: CellKind,
    input_size: int,
    hidden_size: int,
    out_size: int | None = None,
    upper_hidden_size: int | None = None,
    connection: Connection | None = None,
    dilation: int = 1,
    seed=0,
) -> tuple[CellParams, CellState]:
    """Build cell parameters (uniform +-1/sqrt(fan_in), zero biases) and state.

    Same seed, same sizes: bit-identical parameters.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params = cell_layout(kind, input_size, hidden_size, out_size,
                         upper_hidden_size, connection)
    params.bind(iter(allocate(params.block_shapes(), "cell")))
    init_uniform(params.named_arrays(), rng)
    return params, new_state(params, dilation)


# -- steps -----------------------------------------------------------------
#
# A kernel maps (params, z, c-states...) to its gate stack's value and a
# closure mapping the value's adjoint to the stacked matrix's factor pairs,
# the gradient of z and one gradient per c-state; z may lead with a block's
# steps, members and rows.  A value holds the h-state in ``[:hidden_size]``
# and the c-state in ``[cell_size:2 * cell_size]``; an attentive step's
# value is its lower stage's value followed by its upper stage's.


def _h_reads(params: CellParams) -> int:
    """How many h-states a step reads: the recent and the delayed one in a
    dilated cell, the one its connection variant picks otherwise."""
    return 2 if params.kind in _DILATED else 1


def _reads(params: CellParams, dilation: int, offset: int = 0) -> tuple:
    """The ``(lag, lo, hi)`` parts of earlier values a step reads, its h
    reads first, then its c reads, for a value part starting at ``offset``."""
    if params.kind in _DILATED:
        h_lags = (1, dilation)
        c_lags = (1,) if params.kind is CellKind.DLSTM else h_lags
    else:
        h_lags = (1 if params.connection is Connection.RECENT_ONLY
                  else dilation,)
        c_lags = h_lags if params.kind is CellKind.LSTM else ()
    h, c = offset + params.hidden_size, offset + params.cell_size
    return (tuple((lag, offset, h) for lag in h_lags)
            + tuple((lag, c, c + params.cell_size) for lag in c_lags))


def _out_part(params: CellParams) -> tuple:
    """The ``(lo, hi)`` part of a step's value that is its output y: an
    attentive step's is its upper stage's, after the lower stage's value."""
    if params.kind is CellKind.ADRNN:
        split = 2 * params.lower.cell_size
        lo, hi = _out_part(params.upper)
        return split + lo, split + hi
    if params.kind in _DILATED:
        return params.hidden_size, params.cell_size
    return 0, params.hidden_size


def logistic(x: np.ndarray) -> np.ndarray:
    """The gates' sigmoid ``0.5 + 0.5 * tanh(x / 2)``, which saturates to
    exactly 0 and 1 and never overflows, in a fresh contiguous array."""
    s = np.multiply(x, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


@functools.cache
def _ones(rows: tuple) -> np.ndarray:
    """The bias column of a gate input with leading shape ``rows``; shared,
    so read-only."""
    ones = np.ones((*rows, 1))
    ones.flags.writeable = False
    return ones


def _lstm(params: CellParams, z: np.ndarray, c_prev):
    """LSTM-type gates (forget, input, output, candidate): the raw activation
    ``output * tanh(c)`` and c."""
    n, w = params.cell_size, params.stack
    pre = z @ w.swapaxes(-1, -2)
    sig = logistic(pre[..., :3 * n])
    forget, infl, out = sig[..., :n], sig[..., n:2 * n], sig[..., 2 * n:]
    cand = np.tanh(pre[..., 3 * n:])
    c = forget * c_prev + infl * cand
    tc = np.tanh(c)

    def back(g):
        dhp = g[..., :n]
        dc = g[..., n:] + dhp * out * (1.0 - tc * tc)
        left = np.concatenate((dc, dc, dhp), axis=-1)
        mid = np.concatenate((c_prev, cand, tc), axis=-1)
        dpre = np.concatenate((left * mid * sig * (1.0 - sig),
                               dc * infl * (1.0 - cand * cand)), axis=-1)
        return [(dpre, z)], dpre @ w, (dc * forget,)

    return np.concatenate((out * tc, c), axis=-1), back


def _gru(params: CellParams, z: np.ndarray):
    """GRU gates: reset and update rows read ``[x; h; 1]``, the candidate
    rows read ``[x; r*h; 1]``, so the matrix's gradient is two factor
    pairs."""
    i, n, w = params.input_size, params.hidden_size, params.stack
    h = z[..., i:i + n]
    gates = logistic(z @ w[..., :2 * n, :].swapaxes(-1, -2))
    reset, update = gates[..., :n], gates[..., n:]
    zc = z.copy()
    zc[..., i:i + n] = reset * h
    cand = np.tanh(zc @ w[..., 2 * n:, :].swapaxes(-1, -2))

    def back(g):
        dpre_c = g * update * (1.0 - cand * cand)
        dzc = dpre_c @ w[..., 2 * n:, :]
        drh = dzc[..., i:i + n]
        rest = 1.0 - gates
        dpre = (np.concatenate((drh, g), axis=-1)
                * np.concatenate((h, cand - h), axis=-1) * gates * rest)
        drh *= reset  # r*h's gradient, passed on to h, in dzc
        dz = dpre @ w[..., :2 * n, :] + dzc
        dh = dz[..., i:i + n]
        dh += g * rest[..., n:]
        return ([(np.concatenate((dpre, np.zeros_like(g)), axis=-1), z),
                 (np.concatenate((np.zeros_like(dpre), dpre_c), axis=-1), zc)],
                dz, ())

    return (1.0 - update) * h + update * cand, back


def _drnn(params: CellParams, z: np.ndarray, c1, cd):
    """Merged gates: c is a gated fusion of the recent and delayed c-states
    mixed with the candidate; the raw activation is ``output_gate * c``
    with no tanh."""
    n, w = params.cell_size, params.stack
    pre = z @ w.swapaxes(-1, -2)
    sig = logistic(pre[..., :3 * n])
    rest = 1.0 - sig
    fusion, update, out = sig[..., :n], sig[..., n:2 * n], sig[..., 2 * n:]
    cand = np.tanh(pre[..., 3 * n:])
    mix = fusion * c1 + rest[..., :n] * cd
    c = update * mix + rest[..., n:2 * n] * cand

    def back(g):
        dhp = g[..., :n]
        dc = g[..., n:] + dhp * out
        dmix = dc * update
        rest = 1.0 - sig  # again: keeping the forward's costs 3n per taped step
        left = np.concatenate((dmix, dc, dhp), axis=-1)
        mid = np.concatenate((c1 - cd, mix - cand, c), axis=-1)
        dpre = np.concatenate((
            left * mid * sig * rest,
            dc * rest[..., n:2 * n] * (1.0 - cand * cand)), axis=-1)
        return [(dpre, z)], dpre @ w, (dmix * fusion, dmix * rest[..., :n])

    return np.concatenate((out * c, c), axis=-1), back


def _stage(params: CellParams, parts: list, x: np.ndarray):
    """One gate stack's block of steps: its value and its vjp, whose
    gradients are the factor pairs, dx, then one per read, h reads first;
    ``parts`` holds the block's read parts in the stack's read table order.
    The one builder of the gate input ``[x; h reads; 1]``."""
    if x.shape[-1] != params.input_size:
        raise ValueError(f"input length {x.shape[-1]} != cell input size "
                         f"{params.input_size}")
    n = _h_reads(params)
    z = np.concatenate([x, *parts[:n], _ones(x.shape[:-1])], axis=-1)
    value, back = _KERNELS[params.kind](params, z, *parts[n:])
    i, h = params.input_size, params.hidden_size

    def vjp(g):
        dw, dz, dcs = back(g)
        return (dw, dz[..., :i],
                *(dz[..., i + k * h:i + (k + 1) * h] for k in range(n)), *dcs)

    return value, vjp


def _adrnn_step(params: CellParams, parts: list, x: np.ndarray):
    """The same for the attentive cell, as two stages: the lower stage's
    output ``a`` rescales the input of the upper stage by ``exp(clip(a))``;
    both stages read their own part of the layer's earlier values, the
    lower stage's parts first."""
    lower, upper = params.stages
    split = 2 * lower.cell_size
    half = len(parts) // 2  # two drnn stages, with equal read tables
    value_l, vjp_l = _stage(lower, parts[:half], x)
    lo, hi = _out_part(lower)
    attention = value_l[..., lo:hi]
    inside = np.abs(attention) <= ATTENTION_CLAMP  # the clamp's gradient
    weights = np.exp(np.minimum(np.maximum(attention, -ATTENTION_CLAMP),
                                ATTENTION_CLAMP))  # np.clip, without its wrapper
    value_u, vjp_u = _stage(upper, parts[half:], x * weights)

    def vjp(g):
        dwu, dxu, *dreads_u = vjp_u(g[..., split:])
        gl = g[..., :split].copy()
        da = gl[..., lo:hi]
        da += dxu * x * weights * inside
        dwl, dxl, *dreads_l = vjp_l(gl)
        return dwl, dwu, dxu * weights + dxl, *dreads_l, *dreads_u

    return np.concatenate((value_l, value_u), axis=-1), vjp


_KERNELS = {CellKind.LSTM: _lstm, CellKind.GRU: _gru, CellKind.DLSTM: _lstm,
            CellKind.DRNN: _drnn}


def _layer_reads(params: CellParams, dilation: int) -> tuple:
    """The ``(lag, lo, hi)`` parts a step of any kind reads: an attentive
    step's lower stage's, then its upper stage's."""
    if params.kind is CellKind.ADRNN:
        return (_reads(params.lower, dilation)
                + _reads(params.upper, dilation, 2 * params.lower.cell_size))
    return _reads(params, dilation)


def cell_step(params: CellParams, state: CellState, xs: np.ndarray,
              dilation: int, tape: Tape | None = None) -> np.ndarray:
    """The steps of any cell kind on the (T, ...) window ``xs``, in turn:
    reads ``state``, appends the steps' values to it and returns their
    (T, ...) outputs y; one step is the window ``x[None]``.  Recorded on
    ``tape``, when one is given, as one entry of the chain of ``state``,
    with one vjp per block.

    The layer's read table is built once per window.  A delayed-only cell,
    whose every read is ``dilation`` steps back, runs a window of row
    batches in blocks of ``dilation`` steps, its d chains side by side: no
    step of a block reads another.  Any other cell, and any 1-d window,
    runs a block per step.  A block is one kernel call, its steps a batch
    axis of every product, so its arithmetic is that of its steps one by
    one.
    """
    if xs.ndim < 2:
        raise ValueError("cell_step takes a (T, ...) window; one step is x[None]")
    steps, rows = len(xs), xs.shape[1:-1]
    reads = _layer_reads(params, dilation)
    span = (dilation if rows and all(lag == dilation for lag, _, _ in reads)
            else 1)
    lo, hi = _out_part(params)
    ys = np.empty((steps, *rows, hi - lo))
    step = _adrnn_step if params.kind is CellKind.ADRNN else _stage
    keep = tape is not None and tape.recording
    vjps, last = [], None  # the blocks' vjps, for a recording tape only
    for t0 in range(0, steps, span):
        t1 = min(t0 + span, steps)
        if span == 1:  # the ring holds the window's steps so far
            parts = [state.read(rows, *read) for read in reads]
        elif last is not None:  # every read is of the block before
            parts = [last[:t1 - t0, ..., rlo:rhi] for _, rlo, rhi in reads]
        else:
            parts = [np.stack([state.read(rows, lag - t, rlo, rhi)
                               for t in range(t1 - t0)])
                     for lag, rlo, rhi in reads]
        at = t0 if span == 1 else slice(t0, t1)
        last, vjp = step(params, parts, xs[at])
        ys[at] = last[..., lo:hi]
        state.values.extend([last] if span == 1 else last)
        if keep:
            vjps.append(vjp)
    if tape is not None and steps:  # an empty window records nothing
        tape.record(state, (steps, *rows, last.shape[-1]), (lo, hi), reads,
                    params.blocks(), vjps, span)
    return ys

