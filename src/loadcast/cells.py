"""The five gated recurrent cells and their exact training gradients.

A layer's state is the ring of its last ``d`` step values, the same arrays
the tape records; a value holds the step's h-state, output and c-state as
parts of its last axis.  A cell step takes and returns plain arrays: it reads
``(lag, lo, hi)`` parts of earlier values (one table per step, its h reads
then its c reads), appends its own value and returns the output y.  Given a
:class:`~loadcast.tape.Tape`, it also records itself, with the same read
table, as one step on the chain of its layer's state, so reverse-mode
gradients through any number of steps come from sweeping that chain.  Three
pure-array kernels (``_lstm`` for LSTM and dilated LSTM, ``_gru``,
``_drnn``) compute all gate pre-activations with one product of ``[x;
h_recent; h_delayed; 1]`` and the cell's stacked gate matrix, and return the
step's value with its hand-written backward pass.  A step takes one series'
input vector, or a batch of series as rows (``z @ W.T``), with the state
values holding one row per series, the matrix's gradient then being one
product over a window's rows; matrices with a leading member axis step one
batch per member.  Cells with dilation read both the most recent state and
the state from ``d`` steps ago; plain LSTM/GRU run in one of two connection
variants, fed either by the recent state only or by the delayed state only.

The split-output cells (dilated LSTM, the merged gate cell, and its attentive
two-stage version) divide the raw activation into a controlling hidden part,
which feeds the gates of later steps, and an output part that goes to the next
layer.  The attentive cell stacks two merged-gate kernels in one step: the
first emits a per-component attention vector whose clamped exponential
rescales the input of the second; the step's value is the two stages'
values end to end.

:func:`cell_layout` is the one home of the cells' size and connection
rules, :func:`new_state` of the dilation rule.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import expit

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
    read_tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def gate_size(self) -> int:
        return self.cell_size if self.kind in _DILATED else self.hidden_size

    def block_shapes(self) -> list[tuple[int, int]]:
        """Shapes of the stacked gate matrices, in :meth:`blocks` order."""
        if self.kind is CellKind.ADRNN:
            return self.lower.block_shapes() + self.upper.block_shapes()
        return [(len(GATE_NAMES[self.kind]) * self.gate_size,
                 self.input_size + _h_reads(self) * self.hidden_size + 1)]

    def blocks(self) -> list[np.ndarray]:
        if self.kind is CellKind.ADRNN:
            return self.lower.blocks() + self.upper.blocks()
        return [self.stack]

    def bind(self, blocks):
        """Take the stacked matrices from the iterator ``blocks``."""
        if self.kind is CellKind.ADRNN:
            self.lower.bind(blocks)
            self.upper.bind(blocks)
            return
        self.stack = next(blocks)
        if self.stack.shape[-2:] != self.block_shapes()[0]:
            raise ValueError("stacked gate matrix has the wrong shape")

    @property
    def gates(self) -> dict[str, GateBlock]:
        """Per-gate views into :attr:`stack`."""
        return _gate_views(self, self.stack)

    def named_arrays(self, prefix: str = "",
                     blocks=None) -> list[tuple[str, np.ndarray]]:
        """All learnable arrays in a fixed, deterministic order, as views
        into the stacked matrices, or into ``blocks`` (arrays shaped like
        :meth:`blocks`, e.g. their gradients) when given."""
        blocks = iter(self.blocks() if blocks is None else blocks)
        if self.kind is CellKind.ADRNN:
            return (self.lower.named_arrays(prefix + "lower.", blocks)
                    + self.upper.named_arrays(prefix + "upper.", blocks))
        out = []
        for name, gate in _gate_views(self, next(blocks)).items():
            out.append((f"{prefix}{name}.W", gate.W))
            out.append((f"{prefix}{name}.V", gate.V))
            if gate.U is not None:
                out.append((f"{prefix}{name}.U", gate.U))
            out.append((f"{prefix}{name}.b", gate.b))
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
    """A fresh state for a cell of any kind, sized for ``dilation`` >= 1."""
    if dilation < 1:
        raise ConfigError("dilation must be >= 1")
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
    params.bind(np.empty(shape) for shape in params.block_shapes())
    init_uniform(params.named_arrays(), rng)
    return params, new_state(params, dilation)


# -- fused steps -----------------------------------------------------------
#
# A kernel maps (params, z, c-states...) to the step's value and a closure
# mapping the value's adjoint to the stacked matrix's factor pairs, the
# gradient of z and one gradient per c-state.  A value holds the h-state in
# ``[:hidden_size]`` and the c-state in ``[cell_size:2 * cell_size]``; an
# attentive step's value is its lower stage's value followed by its upper
# stage's.


def _h_reads(params: CellParams) -> int:
    """How many h-states a step reads: the recent and the delayed one in a
    dilated cell, the one its connection variant picks otherwise."""
    return 2 if params.kind in _DILATED else 1


def _reads(params: CellParams, dilation: int, offset: int = 0) -> tuple:
    """The ``(lag, lo, hi)`` parts of earlier values a step reads, its h
    reads first, then its c reads, for a value part starting at ``offset``;
    built once per layer and kept in ``params.read_tables``."""
    key = dilation, offset
    if key not in params.read_tables:
        if params.kind in _DILATED:
            h_lags = (1, dilation)
            c_lags = (1,) if params.kind is CellKind.DLSTM else h_lags
        else:
            h_lags = (1 if params.connection is Connection.RECENT_ONLY
                      else dilation,)
            c_lags = h_lags if params.kind is CellKind.LSTM else ()
        h, c = offset + params.hidden_size, offset + params.cell_size
        params.read_tables[key] = (tuple((lag, offset, h) for lag in h_lags)
                                   + tuple((lag, c, c + params.cell_size)
                                           for lag in c_lags))
    return params.read_tables[key]


def _read_state(params: CellParams, state: CellState, x: np.ndarray,
                reads: tuple):
    """The stacked gate input ``[x; h reads; 1]`` of one step and its c
    reads, fetched by :meth:`CellState.read`."""
    if x.shape[-1] != params.input_size:
        raise ValueError(f"input length {x.shape[-1]} != cell input size "
                         f"{params.input_size}")
    rows = x.shape[:-1]
    parts = [state.read(rows, *part) for part in reads]
    n = _h_reads(params)
    return np.concatenate([x, *parts[:n], _ones(rows)], axis=-1), parts[n:]


def _out_part(params: CellParams) -> tuple:
    """The ``(lo, hi)`` part of a step's value that is its output y."""
    if params.kind in _DILATED:
        return params.hidden_size, params.cell_size
    return 0, params.hidden_size


@functools.cache
def _ones(rows: tuple) -> np.ndarray:
    """The bias column of a gate input with leading shape ``rows``; shared,
    so read-only."""
    ones = np.ones((*rows, 1))
    ones.flags.writeable = False
    return ones


def _split_input_grad(params: CellParams, dz: np.ndarray) -> list:
    """Gradients of x and of each h read, cut from the gradient of ``z``."""
    i, h = params.input_size, params.hidden_size
    return [dz[..., :i]] + [dz[..., i + k * h:i + (k + 1) * h]
                            for k in range(_h_reads(params))]


def _lstm(params: CellParams, z: np.ndarray, c_prev):
    """LSTM-type gates (forget, input, output, candidate): the raw activation
    ``output * tanh(c)`` and c."""
    n, w = params.cell_size, params.stack
    pre = z @ w.swapaxes(-1, -2)
    sig = expit(pre[..., :3 * n])
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


def _gru(params: CellParams, z: np.ndarray):
    """GRU gates: reset and update rows read ``[x; h; 1]``, the candidate
    rows read ``[x; r*h; 1]``, so the matrix's gradient is two factor
    pairs."""
    i, n, w = params.input_size, params.hidden_size, params.stack
    h = z[..., i:i + n]
    gates = expit(z @ w[..., :2 * n, :].swapaxes(-1, -2))
    reset, update = gates[..., :n], gates[..., n:]
    zc = z.copy()
    zc[..., i:i + n] = reset * h
    cand = np.tanh(zc @ w[..., 2 * n:, :].swapaxes(-1, -2))

    def back(g):
        dpre_c = g * update * (1.0 - cand * cand)
        dzc = dpre_c @ w[2 * n:]
        drh = dzc[..., i:i + n]
        dpre = np.concatenate((drh * h * reset * (1.0 - reset),
                               g * (cand - h) * update * (1.0 - update)),
                              axis=-1)
        dzc[..., i:i + n] *= reset  # r*h's gradient, passed on to h
        dz = dpre @ w[:2 * n] + dzc
        dz[..., i:i + n] += g * (1.0 - update)
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
    sig = expit(pre[..., :3 * n])
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


def _fused_step(params: CellParams, state: CellState, x: np.ndarray,
                dilation: int):
    """One step of a single-kernel cell: its value, output part, reads,
    parameter arrays and vjp, as :meth:`Tape.record` takes them."""
    reads = _reads(params, dilation)
    z, cs = _read_state(params, state, x, reads)
    value, back = _KERNELS[params.kind](params, z, *cs)

    def vjp(g):
        dw, dz, dcs = back(g)
        return (dw, *_split_input_grad(params, dz), *dcs)

    return value, _out_part(params), reads, (params.stack,), vjp


def _adrnn_step(params: CellParams, state: CellState, x: np.ndarray,
                dilation: int):
    """The same for the attentive cell: the lower stage's output ``a``
    rescales the input of the upper stage by ``exp(clip(a))``; both stages
    read their own part of the layer's earlier values."""
    lower, upper = params.lower, params.upper
    split = 2 * lower.cell_size
    reads_l, reads_u = _reads(lower, dilation), _reads(upper, dilation, split)
    zl, cl = _read_state(lower, state, x, reads_l)
    value_l, back_l = _drnn(lower, zl, *cl)
    attention = value_l[..., lower.hidden_size:lower.cell_size]
    inside = np.abs(attention) <= ATTENTION_CLAMP  # the clamp's gradient
    weights = np.exp(np.clip(attention, -ATTENTION_CLAMP, ATTENTION_CLAMP))
    zu, cu = _read_state(upper, state, x * weights, reads_u)
    value_u, back_u = _drnn(upper, zu, *cu)

    def vjp(g):
        dwu, dzu, dcu = back_u(g[..., split:])
        dxu = dzu[..., :upper.input_size]
        gl = g[..., :split].copy()
        gl[..., lower.hidden_size:lower.cell_size] += dxu * x * weights * inside
        dwl, dzl, dcl = back_l(gl)
        return (dwl, dwu, dxu * weights + dzl[..., :lower.input_size],
                *_split_input_grad(lower, dzl)[1:], *dcl,
                *_split_input_grad(upper, dzu)[1:], *dcu)

    lo, hi = _out_part(upper)
    return (np.concatenate((value_l, value_u), axis=-1),
            (split + lo, split + hi), reads_l + reads_u,
            (lower.stack, upper.stack), vjp)


_KERNELS = {CellKind.LSTM: _lstm, CellKind.GRU: _gru, CellKind.DLSTM: _lstm,
            CellKind.DRNN: _drnn}


def cell_step(params: CellParams, state: CellState, x: np.ndarray,
              dilation: int, tape: Tape | None = None) -> np.ndarray:
    """One step of any cell kind: reads ``state``, appends the step's value
    to it and returns the output y; recorded on ``tape``, when one is
    given, as a step of the chain of ``state``."""
    step = _adrnn_step if params.kind is CellKind.ADRNN else _fused_step
    value, (lo, hi), reads, leaves, vjp = step(params, state, x, dilation)
    if tape is not None:
        tape.record(state, value.shape, (lo, hi), reads, leaves, vjp)
    state.values.append(value)
    return value[..., lo:hi]


def cell_gradient(
    params: CellParams,
    inputs: list[np.ndarray],
    dilation: int,
    upstream: list[np.ndarray],
):
    """Gradients of ``sum_t upstream[t] . y_t`` from a cold-start unroll.

    Returns ``(param_grads, input_grads)`` where ``param_grads`` maps the
    names from :meth:`CellParams.named_arrays` to arrays.
    """
    if len(inputs) != len(upstream):
        raise ValueError("need one upstream gradient per input step")
    tape = Tape()
    state = new_state(params, dilation)
    for x in inputs:
        cell_step(params, state, np.asarray(x, dtype=np.float64), dilation,
                  tape)
    input_grads = tape.backward(state, upstream)
    grads = tape.grads(params.blocks())
    return dict(params.named_arrays(blocks=grads)), input_grads
