"""The five gated recurrent cells and their exact training gradients.

A layer's state is the ring of its last ``d`` step values; a value holds
the step's h-state, output and c-state as parts of its last axis.  A cell
step takes and returns plain arrays: it reads ``(lag, lo, hi)`` parts of
earlier values (one table per step, its h reads then its c reads), appends
its own value and returns the output y.  :func:`cell_step` runs a layer's
whole (T, ...) window of steps in one call, or one step as a window of one.
Given a :class:`~loadcast.tape.Tape`, it records the window, with the same
read table, as one entry on the chain of its layer's state, so reverse-mode
gradients through any number of steps come from sweeping that chain.

A window runs in blocks: ``d`` days for the delayed-only plain cells, whose
every read is ``d`` steps back, so the steps of a block read none of each
other, and one day for every other cell.  A block runs one stage function,
:func:`_stage`, per gate stack (adrnn has two): it reads the stack's parts,
builds the gate input ``[x; h_recent; h_delayed; 1]`` and runs one of three
pure-array kernels (``_lstm`` for LSTM and dilated LSTM, ``_gru``,
``_drnn``), which compute all gate pre-activations with one product of that
input and the stack's gate matrix and return the stack's value with its
hand-written backward pass.  A step takes one series' input vector, or a
batch of series as rows (``z @ W.T``), with the state values holding one row
per series, the matrix's gradient then being one product over a window's
rows; matrices with a leading member axis step one batch per member, and a
block's steps are one more leading axis.  Cells with dilation read both the
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
        dzc = dpre_c @ w[..., 2 * n:, :]
        drh = dzc[..., i:i + n]
        dpre = np.concatenate((drh * h * reset * (1.0 - reset),
                               g * (cand - h) * update * (1.0 - update)),
                              axis=-1)
        dzc[..., i:i + n] *= reset  # r*h's gradient, passed on to h
        dz = dpre @ w[..., :2 * n, :] + dzc
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


def _stage(params: CellParams, read, x: np.ndarray, dilation: int,
           offset: int = 0):
    """One gate stack's block of steps on the value part at ``offset``: its
    value and its vjp, whose gradients are the factor pairs, dx, then one
    per read, h reads first; ``read(lag, lo, hi)`` gives a read's part for
    the block's steps.  The one builder of the gate input ``[x; h reads;
    1]``."""
    if x.shape[-1] != params.input_size:
        raise ValueError(f"input length {x.shape[-1]} != cell input size "
                         f"{params.input_size}")
    n = _h_reads(params)
    parts = [read(*part) for part in _reads(params, dilation, offset)]
    z = np.concatenate([x, *parts[:n], _ones(x.shape[:-1])], axis=-1)
    value, back = _KERNELS[params.kind](params, z, *parts[n:])
    i, h = params.input_size, params.hidden_size

    def vjp(g):
        dw, dz, dcs = back(g)
        return (dw, dz[..., :i],
                *(dz[..., i + k * h:i + (k + 1) * h] for k in range(n)), *dcs)

    return value, vjp


def _adrnn_step(params: CellParams, read, x: np.ndarray, dilation: int):
    """The same for the attentive cell, as two stages: the lower stage's
    output ``a`` rescales the input of the upper stage by ``exp(clip(a))``;
    both stages read their own part of the layer's earlier values."""
    lower, upper = params.stages
    split = 2 * lower.cell_size
    value_l, vjp_l = _stage(lower, read, x, dilation)
    lo, hi = _out_part(lower)
    attention = value_l[..., lo:hi]
    inside = np.abs(attention) <= ATTENTION_CLAMP  # the clamp's gradient
    weights = np.exp(np.clip(attention, -ATTENTION_CLAMP, ATTENTION_CLAMP))
    value_u, vjp_u = _stage(upper, read, x * weights, dilation, split)

    def vjp(g):
        dwu, dxu, *dreads_u = vjp_u(g[..., split:])
        gl = g[..., :split].copy()
        gl[..., lo:hi] += dxu * x * weights * inside
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


def _block(t0: int, t1: int, span: int):
    """The index of steps ``[t0, t1)`` along a window's first axis; a
    block of one step indexes that axis away."""
    return t0 if span == 1 else slice(t0, t1)


def cell_step(params: CellParams, state: CellState, x: np.ndarray,
              dilation: int, tape: Tape | None = None,
              window: bool = False) -> np.ndarray:
    """One step of any cell kind on the input ``x``, or, with ``window``,
    the steps of the (T, ...) window ``x`` in turn: reads ``state``, appends
    the steps' values to it and returns the output y (a window's (T, ...)
    outputs).  Recorded on ``tape``, when one is given, as one window entry
    of the chain of ``state``.

    A delayed-only cell, whose every read is ``dilation`` steps back, runs
    its window in blocks of ``dilation`` steps, its d chains side by side:
    no step of a block reads another.  Any other cell runs a block per step.
    A block is one kernel call, its steps a batch axis of every product, so
    its arithmetic is that of its steps one by one.
    """
    xs = x if window else x[None]
    steps, rows = len(xs), xs.shape[1:-1]
    reads = _layer_reads(params, dilation)
    span = dilation if all(lag == dilation for lag, _, _ in reads) else 1
    if span > 1 and not rows:  # keeps a block's 1-d steps matrix-vector
        xs = xs[:, None]       # products: a unit row axis
    inner = xs.shape[1:-1]
    lo, hi = _out_part(params)
    ys = np.empty((steps, *inner, hi - lo))
    step = _adrnn_step if params.kind is CellKind.ADRNN else _stage
    keep = tape is not None and tape.recording
    vjps, last = [], None  # the blocks' vjps, for a recording tape only
    for t0 in range(0, steps, span):
        t1 = min(t0 + span, steps)

        def read(lag, lo, hi):
            if span == 1:  # the ring holds the window's steps so far
                return state.read(rows, lag, lo, hi)
            if last is not None:  # every read is of the block before
                return last[:t1 - t0, ..., lo:hi]
            return np.stack([state.read(rows, lag - t, lo, hi)
                             for t in range(t1 - t0)]).reshape(
                                 t1 - t0, *inner, hi - lo)

        at = _block(t0, t1, span)
        last, vjp = step(params, read, xs[at], dilation)
        ys[at] = last[..., lo:hi]
        if span == 1:
            state.values.append(last)
        else:
            state.values.extend(last.reshape(-1, *rows, last.shape[-1]))
        if keep:
            vjps.append(vjp)

    def window_vjp(adj, terms):
        # blocks in reverse; a block's adjoint gets the upstream terms after
        # what later blocks' reads sent, and its factor pairs go on a step
        # at a time, the last step first, as from a sweep of single steps
        adj = adj.reshape(steps, *inner, adj.shape[-1])
        terms = [np.reshape(term, (*adj.shape[:-1], hi - lo))
                 for term in terms]
        pairs = [[] for _ in params.stages]
        dxs = [None] * steps
        early = [[None] * min(lag, steps) for lag, _, _ in reads]
        for k in range(len(vjps) - 1, -1, -1):
            t0, t1 = k * span, min(k * span + span, steps)
            at = _block(t0, t1, span)
            g = adj[at]
            for term in terms:
                g[..., lo:hi] += term[at]
            grads = vjps[k](g)
            for factors, dw in zip(pairs, grads):
                factors += dw if span == 1 else [
                    (u[t], v[t]) for t in range(t1 - t0 - 1, -1, -1)
                    for u, v in dw]
            dx = grads[len(pairs)]
            if span == 1:
                dxs[t0] = dx
            else:
                dxs[t0:t1] = dx.reshape(t1 - t0, *rows, dx.shape[-1])
            for (lag, rlo, rhi), rg, before in zip(
                    reads, grads[len(pairs) + 1:], early):
                if t0 >= lag:
                    adj[_block(t0 - lag, t1 - lag, span)][..., rlo:rhi] += rg
                else:  # the block read before the window
                    before[t0:t1] = rg.reshape(t1 - t0, *rows, rhi - rlo)
        return (*pairs, dxs, *early)

    if tape is not None:
        tape.record(state, (steps, *rows, last.shape[-1]), (lo, hi), reads,
                    params.blocks(), window_vjp, window=True)
    ys = ys.reshape(steps, *rows, hi - lo)
    return ys if window else ys[0]


def cell_gradient(
    params: CellParams,
    inputs: list[np.ndarray],
    dilation: int,
    upstream: list[np.ndarray],
):
    """Gradients of ``sum_t upstream[t] . y_t`` from a cold-start unroll of
    ``inputs`` as one window.

    Returns ``(param_grads, input_grads)`` where ``param_grads`` maps the
    names from :meth:`CellParams.named_arrays` to arrays.
    """
    if len(inputs) != len(upstream):
        raise ValueError("need one upstream gradient per input step")
    tape = Tape()
    state = new_state(params, dilation)
    cell_step(params, state, np.asarray(inputs, dtype=np.float64), dilation,
              tape, window=True)
    input_grads = tape.backward(state, upstream)
    grads = tape.grads(params.blocks())
    return dict(params.named_arrays(blocks=grads)), input_grads
