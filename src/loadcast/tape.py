"""Per-layer chains of recorded entries and their reverse sweeps.

A window of the model is an input entry, one entry per layer, which runs the
layer's window of steps, and a head entry; the only links between days are a
layer's reads of its own earlier steps.  A :class:`Tape` records each entry
on the *chain* of its owner (a layer's state, or the name of the input or
head chain): the shape of its value, the ``(lag, lo, hi)`` parts of earlier
steps of the chain each of its steps read, the parameter arrays it used and
its vector-Jacobian closure.  An entry is one step, whose value may be a
whole window's (the input and head), or a *window* of steps along its
value's first axis, whose closure sweeps them in reverse itself.
:meth:`Tape.backward` sweeps one chain's entries in reverse, sending each
read that reaches before its entry to step ``t - lag`` of an earlier one; a
read from before the chain's first step hit carried state and passes none.

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


def _one_step(vjp, out: tuple, n_leaves: int):
    """The vjp of a one-step entry as a window's: the step's adjoint gets
    each upstream term on its output, then its gradients come out as a
    window of one's."""
    lo, hi = out

    def window_vjp(adj, terms):
        g = adj[0]
        for term in terms:
            g[..., lo:hi] += term[0]
        grads = vjp(g)
        return (*grads[:n_leaves], grads[n_leaves:n_leaves + 1],
                *([rg] for rg in grads[n_leaves + 1:]))

    return window_vjp


class Tape:
    """Chains of recorded entries, and the gradients their sweeps produced.

    A ``forward_only`` tape (the one an unroll without a tape builds)
    registers parameters but takes no fingerprints, keeps no entries and
    refuses :meth:`backward`.
    """

    def __init__(self, forward_only: bool = False):
        self._leaves: dict[int, np.ndarray] = {}
        self._prints: dict[int, tuple] | None = None if forward_only else {}
        self._chains: dict = {}
        self._leaf_grads: dict[int, list] = {}

    @property
    def recording(self) -> bool:
        """Whether recorded entries are kept for :meth:`backward`."""
        return self._prints is not None

    def leaf(self, arr: np.ndarray):
        """Register the parameter array ``arr``, cached by identity."""
        key = id(arr)
        if key not in self._leaves:
            self._leaves[key] = arr
            if self._prints is not None:
                self._prints[key] = _fingerprint(arr)

    def __len__(self) -> int:
        """Registered parameters plus recorded entries."""
        return len(self._leaves) + sum(map(len, self._chains.values()))

    def record(self, chain, shape: tuple, out: tuple, reads: tuple,
               leaves: tuple, vjp, window: bool = False):
        """Append an entry whose value has ``shape`` to ``chain``, any
        hashable owner.

        ``out`` is the ``(lo, hi)`` part of the value that is the step's
        output and ``reads`` the ``(lag, lo, hi)`` parts of earlier steps it
        read.  ``vjp(g)`` maps the value's adjoint to one gradient per
        array of ``leaves`` (dense, or a list of factor pairs), then the
        adjoint of the step's input (None for a step without one), then one
        adjoint per read.

        A ``window`` entry is the steps along the first axis of ``shape``,
        each reading ``reads``.  Its ``vjp(adj, terms)`` takes the window's
        adjoint, holding what later entries' reads sent, and each upstream's
        terms for its steps.  Sweeping in reverse, it adds a step's terms to
        its output after what later steps' reads sent, and returns the
        leaves' gradients, the steps' input adjoints, then per read the
        adjoints of the steps whose read reached before the window.
        """
        for arr in leaves:
            self.leaf(arr)
        if self._prints is not None:
            if not window:
                shape, vjp = (1, *shape), _one_step(vjp, out, len(leaves))
            self._chains.setdefault(chain, []).append(
                (shape, reads, leaves, vjp))

    def backward(self, chain, *upstream) -> list:
        """Sweep ``chain`` in reverse and return its steps' input adjoints.

        Each of ``upstream`` holds one adjoint per step for the steps'
        outputs; they are added in order.  Raises :class:`StaleTapeError` if
        a parameter the chain used changed since it was registered (e.g. an
        optimizer update ran before the backward pass).
        """
        if self._prints is None:
            raise ValueError("a forward-only tape cannot run backward")
        entries = self._chains.get(chain, [])
        for key in {id(arr) for entry in entries for arr in entry[2]}:
            if _fingerprint(self._leaves[key]) != self._prints[key]:
                raise StaleTapeError("leaf array mutated since it was recorded")

        adj = [np.zeros(entry[0]) for entry in entries]
        steps = [(k, i) for k, entry in enumerate(entries)
                 for i in range(entry[0][0])]  # each step's entry and index
        dxs = [None] * len(steps)
        end = len(steps)
        for k in range(len(entries) - 1, -1, -1):
            shape, reads, leaves, vjp = entries[k]
            start = end - shape[0]
            grads = vjp(adj[k], [terms[start:end] for terms in upstream])
            for arr, lg in zip(leaves, grads):
                self._leaf_grads.setdefault(id(arr), []).append(lg)
            dxs[start:end] = grads[len(leaves)]
            # reads that reached before the entry, the last step's first
            for t in range(shape[0] - 1, -1, -1) if start else ():
                for (lag, lo, hi), rg in zip(reads, grads[len(leaves) + 1:]):
                    if t < lag <= start + t:
                        j, i = steps[start + t - lag]
                        adj[j][i][..., lo:hi] += rg[t]
            end = start
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
