"""Minimal reverse-mode autodiff on a recorded operation tape.

Everything downstream (fused cell steps, the stacked network, training)
builds its forward pass out of nodes recorded here.  A :class:`Tape` records
each node together with a vector-Jacobian closure; :meth:`Tape.backward`
replays the record once in reverse and accumulates exact gradients for every
leaf (parameter arrays, inputs).

Values are float64 numpy arrays; parameter matrices enter only as leaves.  A
:class:`Var` names a contiguous part of one node's value, so a node may carry
several outputs (a cell step's output, h- and c-state) and slicing records
nothing.  Leaves are cached per tape by array identity, so the same parameter
array used at every unrolled step accumulates a single gradient.  A vjp may
hand a leaf its gradient as a rank-1 factor pair ``(u, v)``, standing for
``np.outer(u, v)``; the backward sweep collects a leaf's pairs and reduces
them with one matrix product at its end instead of summing one outer product
per use.
"""

from __future__ import annotations

import numpy as np

from .errors import StaleTapeError

__all__ = [
    "Tape",
    "Var",
    "Gradients",
    "matvec",
    "exp_clipped",
    "concat",
    "narrow",
]


class Var:
    """Handle to the part ``[lo, hi)`` of one recorded value on a tape."""

    __slots__ = ("tape", "index", "lo", "hi")

    def __init__(self, tape: "Tape", index: int, lo: int, hi: int):
        self.tape = tape
        self.index = index
        self.lo = lo
        self.hi = hi

    @property
    def value(self) -> np.ndarray:
        return self.tape._values[self.index][self.lo:self.hi]

    def __len__(self) -> int:
        return self.hi - self.lo

    def __add__(self, other: "Var") -> "Var":
        return _add(self, other)

    def __mul__(self, other: "Var") -> "Var":
        return _mul(self, other)

    def __repr__(self) -> str:
        return f"Var(#{self.index}[{self.lo}:{self.hi}], {self.value!r})"


def _fingerprint(arr: np.ndarray) -> tuple:
    return (arr.shape, float(arr.sum()), float(np.abs(arr).sum()))


class Tape:
    """Wengert list of nodes with per-node vjp closures."""

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._parents: list[list] = []  # (index, lo, hi) of each parent
        self._vjps: list = []
        self._leaf_cache: dict[int, int] = {}
        self._leaf_prints: dict[int, tuple] = {}
        self._leaf_arrays: dict[int, np.ndarray] = {}

    # -- node construction -------------------------------------------------

    def record(self, value: np.ndarray, parents: tuple, vjp) -> Var:
        """Append a node computed from ``parents``: Vars of this tape, or
        None for inputs that carry no gradient.

        ``vjp(g)`` maps the node's adjoint to one gradient per parent: an
        array shaped like the parent's value, None, or, for a leaf parent, a
        rank-1 factor pair ``(u, v)`` meaning ``np.outer(u, v)``.
        """
        parts = []
        for p in parents:
            if p is None:
                parts.append(None)
            elif p.tape is not self:
                raise ValueError("Var belongs to a different tape")
            else:  # no Var: a tape holding its own Vars is a reference cycle
                parts.append((p.index, p.lo, p.hi))
        self._values.append(value)
        self._parents.append(parts)
        self._vjps.append(vjp)
        return Var(self, len(self._values) - 1, 0, value.shape[0])

    def leaf(self, arr: np.ndarray) -> Var:
        """Register ``arr`` as a gradient-tracked input, cached by identity."""
        key = id(arr)
        idx = self._leaf_cache.get(key)
        if idx is not None:
            return Var(self, idx, 0, arr.shape[0])
        arr = np.asarray(arr, dtype=np.float64)
        var = self.record(arr, (), None)
        self._leaf_cache[key] = var.index
        self._leaf_prints[var.index] = _fingerprint(arr)
        self._leaf_arrays[var.index] = arr
        return var

    def constant(self, arr: np.ndarray) -> Var:
        """Record a value that never needs a gradient (e.g. a day's input)."""
        return self.record(np.asarray(arr, dtype=np.float64), (), None)

    def __len__(self) -> int:
        return len(self._values)

    # -- reverse sweep -----------------------------------------------------

    def backward(self, seeds) -> "Gradients":
        """Accumulate adjoints for ``seeds`` = iterable of (Var, gradient).

        Raises :class:`StaleTapeError` if any leaf array changed since it was
        recorded (e.g. an optimizer update ran before the backward pass).
        """
        for idx, print_ in self._leaf_prints.items():
            if _fingerprint(self._leaf_arrays[idx]) != print_:
                raise StaleTapeError("leaf array mutated since it was recorded")

        adj: dict[int, np.ndarray] = {}
        for var, g in seeds:
            if var.tape is not self:
                raise ValueError("seed Var belongs to a different tape")
            g = np.asarray(g, dtype=np.float64)
            if g.shape != var.value.shape:
                raise ValueError("seed gradient shape mismatch")
            self._accumulate(adj, (var.index, var.lo, var.hi), g)

        factors: dict[int, list] = {}
        for idx in range(len(self._values) - 1, -1, -1):
            g = adj.get(idx)
            if g is None:
                continue
            parents = self._parents[idx]
            if not parents:
                continue
            for p, pg in zip(parents, self._vjps[idx](g)):
                if p is None or pg is None:
                    continue
                if type(pg) is tuple:
                    factors.setdefault(p[0], []).append(pg)
                else:
                    self._accumulate(adj, p, pg)
        for idx, pairs in factors.items():
            us, vs = zip(*pairs)
            total = np.array(us).T @ np.array(vs)
            acc = adj.get(idx)
            adj[idx] = total if acc is None else acc + total
        return Gradients(self, adj)

    def _accumulate(self, adj: dict, part: tuple, g: np.ndarray):
        index, lo, hi = part
        acc = adj.get(index)
        if acc is None:
            acc = adj[index] = np.zeros(self._values[index].shape)
        acc[lo:hi] += g


class Gradients:
    """Read-only view of the adjoints produced by one backward sweep."""

    def __init__(self, tape: Tape, adj: dict[int, np.ndarray]):
        self._tape = tape
        self._adj = adj

    def of(self, var: Var) -> np.ndarray:
        g = self._adj.get(var.index)
        if g is None:
            return np.zeros_like(var.value)
        return g[var.lo:var.hi]

    def of_array(self, arr: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. a leaf registered via ``Tape.leaf(arr)``."""
        idx = self._tape._leaf_cache.get(id(arr))
        if idx is None:
            return np.zeros_like(np.asarray(arr, dtype=np.float64))
        g = self._adj.get(idx)
        if g is None:
            return np.zeros_like(np.asarray(arr, dtype=np.float64))
        return g


# -- elementwise and linear operations ------------------------------------


def _add(a: Var, b: Var) -> Var:
    return a.tape.record(a.value + b.value, (a, b), lambda g: (g, g))


def _mul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    return a.tape.record(av * bv, (a, b), lambda g: (g * bv, g * av))


def matvec(w: np.ndarray, x: Var) -> Var:
    """``w @ x`` where ``w`` is a parameter matrix (auto-registered leaf)."""
    t = x.tape
    wv = t.leaf(w)
    wa, xv = wv.value, x.value
    return t.record(wa @ xv, (wv, x), lambda g: ((g, xv), wa.T @ g))


def exp_clipped(a: Var, lo: float, hi: float) -> Var:
    """``exp(clip(a, lo, hi))``; gradient is zero on the clipped region."""
    av = a.value
    inside = (av >= lo) & (av <= hi)
    y = np.exp(np.clip(av, lo, hi))
    return a.tape.record(y, (a,), lambda g: (g * y * inside,))


def concat(parts: list[Var]) -> Var:
    bounds = np.cumsum([0] + [len(p) for p in parts])

    def vjp(g):
        return tuple(g[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    return parts[0].tape.record(
        np.concatenate([p.value for p in parts]), tuple(parts), vjp)


def narrow(a: Var, start: int, size: int) -> Var:
    """The part ``[start, start + size)`` of ``a``; records nothing."""
    if start < 0 or start + size > len(a):
        raise ValueError("narrow out of range")
    return Var(a.tape, a.index, a.lo + start, a.lo + start + size)
