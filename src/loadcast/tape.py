"""Per-layer chains of recorded steps and their reverse sweeps.

A window of the model is an input step, one step per layer and day, and a
head step, and the only links between days are a layer's reads of its own
earlier states.  A :class:`Tape` records each step on the *chain* of its
owner (a layer's state, or the name of the input or head chain): the shape of
its value, the part ``[lo:hi]`` of the last axis that is its output, the
``(lag, lo, hi)`` parts of earlier steps of the chain it read, the parameter
arrays it used and its vector-Jacobian closure.  :meth:`Tape.backward` sweeps
one chain in reverse, sending each read's adjoint to step ``t - lag``; a read
from before the chain's first step hit carried state and passes none.

Values are float64 arrays, one vector or a batch of them as rows.  Parameter
arrays are registered by identity, so an array used at every step
accumulates one gradient.  A vjp hands a parameter a dense gradient or a list
of factor pairs ``(u, v)``, standing for ``np.outer(u, v)`` or, as row
batches, ``u.T @ v``; :meth:`Tape.grads` reduces a parameter's pairs with
one matrix product over all their rows.
"""

from __future__ import annotations

import numpy as np

from .errors import StaleTapeError

__all__ = ["Tape"]


def _fingerprint(arr: np.ndarray) -> tuple:
    return (arr.shape, float(arr.sum()), float(np.abs(arr).sum()))


class Tape:
    """Chains of recorded steps, and the gradients their sweeps produced.

    A ``forward_only`` tape (the one an unroll without a tape builds)
    registers parameters but takes no fingerprints, keeps no steps and
    refuses :meth:`backward`.
    """

    def __init__(self, forward_only: bool = False):
        self._leaves: dict[int, np.ndarray] = {}
        self._prints: dict[int, tuple] | None = None if forward_only else {}
        self._chains: dict = {}
        self._leaf_grads: dict[int, list] = {}

    def leaf(self, arr: np.ndarray):
        """Register the parameter array ``arr``, cached by identity."""
        key = id(arr)
        if key not in self._leaves:
            self._leaves[key] = arr
            if self._prints is not None:
                self._prints[key] = _fingerprint(arr)

    def __len__(self) -> int:
        """Registered parameters plus recorded steps."""
        return len(self._leaves) + sum(map(len, self._chains.values()))

    def record(self, chain, shape: tuple, out: tuple, reads: tuple,
               leaves: tuple, vjp):
        """Append a step whose value has ``shape`` to ``chain``, any
        hashable owner.

        ``out`` is the ``(lo, hi)`` part of the value that is the step's
        output and ``reads`` the ``(lag, lo, hi)`` parts of earlier steps it
        read.  ``vjp(g)`` maps the value's adjoint to one gradient per
        array of ``leaves`` (dense, or a list of factor pairs), then the
        adjoint of the step's input (None for a step without one), then one
        adjoint per read.
        """
        for arr in leaves:
            self.leaf(arr)
        if self._prints is not None:
            self._chains.setdefault(chain, []).append(
                (shape, out, reads, leaves, vjp))

    def backward(self, chain, *upstream) -> list:
        """Sweep ``chain`` in reverse and return its steps' input adjoints.

        Each of ``upstream`` holds one adjoint per step for the steps'
        outputs; they are added in order.  Raises :class:`StaleTapeError` if
        a parameter the chain used changed since it was registered (e.g. an
        optimizer update ran before the backward pass).
        """
        if self._prints is None:
            raise ValueError("a forward-only tape cannot run backward")
        steps = self._chains.get(chain, [])
        for key in {id(arr) for step in steps for arr in step[3]}:
            if _fingerprint(self._leaves[key]) != self._prints[key]:
                raise StaleTapeError("leaf array mutated since it was recorded")

        adj = [np.zeros(step[0]) for step in steps]
        dxs = [None] * len(steps)
        for t in range(len(steps) - 1, -1, -1):
            _, (lo, hi), reads, leaves, vjp = steps[t]
            for terms in upstream:
                adj[t][..., lo:hi] += terms[t]
            grads = vjp(adj[t])
            for arr, lg in zip(leaves, grads):
                self._leaf_grads.setdefault(id(arr), []).append(lg)
            dxs[t] = grads[len(leaves)]
            for (lag, rlo, rhi), rg in zip(reads, grads[len(leaves) + 1:]):
                if lag <= t:
                    adj[t - lag][..., rlo:rhi] += rg
        return dxs

    def grads(self, wrt) -> list[np.ndarray]:
        """Gradients of the arrays in ``wrt``, in order, summed over every
        sweep so far; zeros for an array no sweep reached."""
        out = []
        for arr in wrt:
            parts = self._leaf_grads.get(id(arr), [])
            total = sum((p for p in parts if type(p) is not list),
                        np.zeros(np.shape(arr)))
            pairs = [pair for p in parts if type(p) is list for pair in p]
            if pairs:
                us, vs = zip(*pairs)
                total += np.vstack(us).T @ np.vstack(vs)
            out.append(total)
        return out
