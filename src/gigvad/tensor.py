"""Dense float64 tensors and the gradient tape that drives training.

Values are plain row-major numpy arrays frozen after construction; every
differentiable primitive in :mod:`gigvad.ops` records its backward rule on the
innermost active :class:`GradTape`. A tape belongs to a single thread: tensors
may be shared freely once built, the tape may not.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

_local = threading.local()


def _tape_stack() -> list["GradTape"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def active_tape() -> "GradTape | None":
    """The innermost tape currently recording, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """Immutable dense array of 64-bit floats in row-major order.

    The ``grad`` attribute is scratch space owned by whichever tape last ran a
    backward pass; it is not part of the value.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.size > 0 and not np.isfinite(arr).all():
            raise NumericError("tensor values must be finite")
        if arr.size == 0:
            raise DimensionError("tensor extents must be positive")
        arr.flags.writeable = False
        self.data = arr
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for op outputs: takes ownership of a fresh,
        # already-validated float64 array.
        t = object.__new__(cls)
        arr.flags.writeable = False
        t.data = arr
        t.grad = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def accumulate_grad(t: Tensor, delta: np.ndarray) -> None:
    """Add ``delta`` into ``t.grad``, allocating on first touch."""
    if t.grad is None:
        t.grad = np.zeros(t.data.shape, dtype=np.float64)
    t.grad += delta


class _Record:
    __slots__ = ("inputs", "output", "backward", "margin", "winners")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor,
                 backward: Callable[[np.ndarray], None],
                 margin: float | None, winners: np.ndarray | None) -> None:
        self.inputs = inputs
        self.output = output
        self.backward = backward
        self.margin = margin
        self.winners = winners


class GradTape:
    """Ordered record of executed primitives, replayed in reverse for grads.

    Usage::

        with GradTape() as tape:
            loss = build_graph(...)
        grads = tape.gradients(loss, params)

    Gradients accumulate additively when a tensor feeds several consumers.
    Selection-style primitives (max, top-k, top-p) report how close the
    forward pass came to a tie via :meth:`min_selection_margin` and which
    entries they picked via :meth:`selections`.
    """

    def __init__(self) -> None:
        self._records: list[_Record] = []

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape exited out of order")
        stack.pop()

    def record(self, inputs: tuple[Tensor, ...], output: Tensor,
               backward: Callable[[np.ndarray], None],
               margin: float | None = None,
               winners: np.ndarray | None = None) -> None:
        self._records.append(
            _Record(inputs, output, backward, margin, winners))

    def min_selection_margin(self) -> float:
        """Smallest gap to a selection tie seen in the recorded forward pass."""
        margins = [r.margin for r in self._records if r.margin is not None]
        return min(margins) if margins else float("inf")

    def selections(self) -> list[np.ndarray]:
        """Winner indices of each selection primitive, in recording order.

        Each entry is the index array the primitive routes its subgradient
        through, held by reference exactly as the primitive computed it.
        """
        return [r.winners for r in self._records if r.winners is not None]

    def _reset_grads(self) -> None:
        for rec in self._records:
            rec.output.grad = None
            for t in rec.inputs:
                t.grad = None

    def backward(self, output: Tensor) -> None:
        """Seed d(output)/d(output)=1 and replay records newest-first.

        Leaves accumulated gradients on the ``grad`` attribute of every
        tensor that participated.
        """
        if output.data.shape != ():
            raise DimensionError("backward root must be a scalar tensor")
        self._reset_grads()
        output.grad = np.ones((), dtype=np.float64)
        for rec in reversed(self._records):
            upstream = rec.output.grad
            if upstream is None:
                continue  # branch never reached the root
            rec.backward(upstream)

    def gradients(self, output: Tensor,
                  wrt: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradients of ``output`` with respect to each tensor in ``wrt``.

        A tensor in ``wrt`` that the output does not depend on gets zeros.
        """
        for t in wrt:
            t.grad = None
        self.backward(output)
        return [np.zeros(t.data.shape, dtype=np.float64) if t.grad is None
                else t.grad.copy() for t in wrt]
