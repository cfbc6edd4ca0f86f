"""Per-layer chains of recorded entries and their one reverse sweep.

A window of the model is an input entry, one entry per layer, which runs the
layer's window of steps, and a head entry; the only links between days are a
layer's reads of its own earlier steps.  A :class:`Tape` records each entry
on the *chain* of its owner (a layer's state, or the name of the input or
head chain).  An entry is the steps along the first axis of its value, in
blocks of ``span`` steps that read none of each other, with one
vector-Jacobian closure per block, the ``(lag, lo, hi)`` parts of earlier
steps each step read and the parameter arrays it used; the input and head
entries are one step, whose value is the window's.  :meth:`Tape.backward`
is the one reverse sweep: it runs a chain's blocks last first, sending each
read's adjoint to the step ``lag`` back, in the same entry or an earlier
one; a read from before the chain's first step hit carried state and passes
none.  Each entry sweeps in one adjoint buffer that reaches ``back`` steps
before it, the longest lag but at most the chain's steps, so every read's
adjoint is one slice of it; those ``back`` rows carry into the buffer of
the entry before.

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
    """Shape and wrapping sum of the raw int64 bits of a float64 leaf (all
    are: ``cells.allocate``, ``load_ensemble``); one changed element shows."""
    return (arr.shape, int(arr.view(np.int64).sum()))


def _block(t0: int, t1: int, span: int):
    """The index of steps ``[t0, t1)`` along an entry's first axis; a block
    of span 1 indexes that axis away."""
    return t0 if span == 1 else slice(t0, t1)


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
               leaves: tuple, vjps: list, span: int = 1):
        """Append an entry to ``chain``, any hashable owner: the steps along
        the first axis of a value of ``shape``, in blocks of ``span`` steps
        that read none of each other.

        ``out`` is the ``(lo, hi)`` part of a step's value that is its
        output, ``reads`` the ``(lag, lo, hi)`` parts of earlier steps each
        step read.  ``vjps[b](g)`` maps block b's adjoint (leading with its
        steps unless ``span`` is 1) to one gradient per array of ``leaves``
        (dense, or a list of factor pairs; pairs only if ``span`` > 1), the
        steps' input adjoint (None for steps without one) and one adjoint
        per read.
        """
        for arr in leaves:
            self.leaf(arr)
        if self._prints is not None:
            self._chains.setdefault(chain, []).append(
                (shape, out, reads, leaves, vjps, span))

    def backward(self, chain, *upstream) -> list:
        """Sweep ``chain``'s blocks in reverse and return its steps' input
        adjoints.

        Each of ``upstream`` holds one adjoint per step for the steps'
        outputs.  A block's adjoint gets what later reads sent, then the
        upstream terms in order; its factor pairs go on a step at a time,
        the last step first; each read's adjoint goes to the step ``lag``
        back, in this entry or, through the carried rows of its buffer, an
        earlier one (none from before the chain's first step, which read
        carried state).  Raises
        :class:`StaleTapeError` if a parameter the chain used changed since
        it was registered (e.g. an optimizer update ran before the sweep).
        """
        if self._prints is None:
            raise ValueError("a forward-only tape cannot run backward")
        entries = self._chains.get(chain, [])
        for key in {id(arr) for entry in entries for arr in entry[3]}:
            if _fingerprint(self._leaves[key]) != self._prints[key]:
                raise StaleTapeError("leaf array mutated since it was recorded")

        dxs = [None] * sum(entry[0][0] for entry in entries)
        # an entry's steps are rows back.. of its buffer; the first back
        # rows, the steps before, carry into the entry before's last ones
        back = min(max((lag for entry in entries for lag, _, _ in entry[2]),
                       default=0), len(dxs))
        end, carry = len(dxs), 0.0  # what later entries' reads sent
        for shape, (lo, hi), reads, leaves, vjps, span in reversed(entries):
            start = end - shape[0]
            adj = np.zeros((back + shape[0], *shape[1:]))
            adj[shape[0]:] = carry
            parts = [[] for _ in leaves]
            for t0 in range(span * (len(vjps) - 1), -1, -span):
                t1 = min(t0 + span, shape[0])
                g = adj[_block(back + t0, back + t1, span)]
                gout = g[..., lo:hi]  # views, so += runs no __setitem__
                for terms in upstream:
                    gout += terms[_block(start + t0, start + t1, span)]
                grads = vjps[t0 // span](g)
                for part, dw in zip(parts, grads):
                    part.append(dw if span == 1 else [
                        (u[t], v[t]) for t in range(t1 - t0 - 1, -1, -1)
                        for u, v in dw])
                dx = grads[len(leaves)]
                dxs[start + t0:start + t1] = [dx] if span == 1 else dx
                for (lag, rlo, rhi), rg in zip(reads, grads[len(leaves) + 1:]):
                    if lag <= back + t0:  # else it read carried state
                        dst = adj[_block(back + t0 - lag, back + t1 - lag,
                                         span)]
                        dst = dst[..., rlo:rhi]
                        dst += rg
            for arr, part in zip(leaves, parts):
                self._leaf_grads.setdefault(id(arr), []).extend(part)
            end, carry = start, adj[:back]
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
