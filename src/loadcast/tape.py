"""Minimal reverse-mode autodiff on a recorded node tape.

The model records a handful of hand-written nodes per day (the input, one
node per cell step and the head), each with its vector-Jacobian closure;
:meth:`Tape.backward` replays the record once in reverse and returns exact
gradients for the parameter arrays it is asked about.

Values are float64 numpy arrays; parameter matrices enter only as leaves.  A
node's value is one vector, or a batch of them as rows (one row per series
of a training window group).  A :class:`Var` names a contiguous part of the
last axis of one node's value, so a node may carry several outputs (a cell
step's output, h- and c-state) and slicing records nothing; ``+`` (the
network's shortcuts) is the one node a Var records itself.  Leaves are cached
per tape by array identity, so the same parameter array used at every
unrolled step accumulates a single gradient.  A vjp may hand a leaf its
gradient as a list of factor pairs ``(u, v)``: vectors standing for
``np.outer(u, v)``, or row batches standing for ``u.T @ v``.  The backward
sweep collects a leaf's pairs and reduces them with one matrix product over
all their rows at its end, instead of summing one outer product per use.
"""

from __future__ import annotations

import numpy as np

from .errors import StaleTapeError

__all__ = ["Tape", "Var"]


class Var:
    """Handle to the part ``[..., lo:hi]`` of one recorded value on a tape."""

    __slots__ = ("tape", "index", "lo", "hi")

    def __init__(self, tape: "Tape", index: int, lo: int, hi: int):
        self.tape = tape
        self.index = index
        self.lo = lo
        self.hi = hi

    @property
    def value(self) -> np.ndarray:
        return self.tape._values[self.index][..., self.lo:self.hi]

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, part: slice) -> "Var":
        """A contiguous part of this Var's last axis; records nothing."""
        lo, hi, stride = part.indices(len(self))
        if stride != 1:
            raise ValueError("a Var slice must be contiguous")
        return Var(self.tape, self.index, self.lo + lo, self.lo + max(lo, hi))

    def __add__(self, other: "Var") -> "Var":
        return self.tape.record(self.value + other.value, (self, other),
                                lambda g: (g, g))

    def __repr__(self) -> str:
        return f"Var(#{self.index}[{self.lo}:{self.hi}], {self.value!r})"


def _fingerprint(arr: np.ndarray) -> tuple:
    return (arr.shape, float(arr.sum()), float(np.abs(arr).sum()))


class Tape:
    """Wengert list of nodes with per-node vjp closures.

    A ``forward_only`` tape (the one an evaluation step builds for itself)
    takes no leaf fingerprints and refuses :meth:`backward`.
    """

    def __init__(self, forward_only: bool = False):
        self._values: list[np.ndarray] = []
        self._parents: list[list] = []  # (index, lo, hi) of each parent
        self._vjps: list = []
        self._leaf_cache: dict[int, int] = {}
        self._leaf_prints: dict[int, tuple] | None = (
            None if forward_only else {})

    @property
    def forward_only(self) -> bool:
        return self._leaf_prints is None

    def record(self, value: np.ndarray, parents: tuple, vjp) -> Var:
        """Append a node computed from ``parents``: Vars of this tape, or
        None for inputs that carry no gradient.

        ``vjp(g)`` maps the node's adjoint to one gradient per parent: an
        array shaped like the parent's value, None, or, for a leaf parent, a
        list of factor pairs ``(u, v)``, each meaning ``np.outer(u, v)``,
        or ``u.T @ v`` when they are row batches.
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
        return Var(self, len(self._values) - 1, 0, value.shape[-1])

    def leaf(self, arr: np.ndarray) -> Var:
        """Register ``arr`` as a gradient-tracked input, cached by identity."""
        key = id(arr)
        idx = self._leaf_cache.get(key)
        if idx is not None:
            return Var(self, idx, 0, arr.shape[-1])
        arr = np.asarray(arr, dtype=np.float64)
        var = self.record(arr, (), None)
        self._leaf_cache[key] = var.index
        if self._leaf_prints is not None:
            self._leaf_prints[var.index] = _fingerprint(arr)
        return var

    def __len__(self) -> int:
        return len(self._values)

    def backward(self, seeds, wrt) -> list[np.ndarray]:
        """Gradients of ``sum(g . var for var, g in seeds)`` with respect to
        each leaf array in ``wrt``, in order; zeros for an array the seeds
        do not reach or the tape never registered.

        Raises :class:`StaleTapeError` if any leaf array changed since it was
        recorded (e.g. an optimizer update ran before the backward pass).
        """
        if self.forward_only:
            raise ValueError("a forward-only tape cannot run backward")
        for idx, print_ in self._leaf_prints.items():
            if _fingerprint(self._values[idx]) != print_:
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
                if type(pg) is list:
                    factors.setdefault(p[0], []).extend(pg)
                else:
                    self._accumulate(adj, p, pg)
        for idx, pairs in factors.items():
            us, vs = zip(*pairs)
            total = np.vstack(us).T @ np.vstack(vs)
            acc = adj.get(idx)
            adj[idx] = total if acc is None else acc + total

        grads = []
        for arr in wrt:
            g = adj.get(self._leaf_cache.get(id(arr)))
            grads.append(np.zeros(np.shape(arr)) if g is None else g)
        return grads

    def _accumulate(self, adj: dict, part: tuple, g: np.ndarray):
        index, lo, hi = part
        acc = adj.get(index)
        if acc is None:
            shape = self._values[index].shape
            if lo == 0 and hi == shape[-1]:
                adj[index] = g + 0.0  # a copy, bit for bit ``zeros + g``
                return
            acc = adj[index] = np.zeros(shape)
        acc[..., lo:hi] += g
