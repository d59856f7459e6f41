"""A minimal reverse-mode autograd engine over numpy arrays.

This is the substrate that replaces PyTorch for the paper's fine-tuning
experiments.  It implements exactly the operations the transformer
surrogates need: broadcasting arithmetic, matmul (2-D and batched 3-D),
reductions, elementwise nonlinearities, indexing, and an embedding gather.

Gradients flow through a dynamically built graph; :meth:`Tensor.backward`
performs an iterative topological traversal, so deep graphs do not hit the
Python recursion limit.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence

import numpy as np

from ..errors import GradientError

__all__ = ["Tensor", "concat", "stack", "no_grad", "is_grad_enabled"]

#: Grad mode is *thread-local*: the study runtime trains independent grid
#: cells on worker threads, and a process-wide flag would let one cell's
#: ``no_grad()`` evaluation silently disable graph construction inside
#: another cell's training step.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _GRAD_STATE.enabled = self._prev


def is_grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcast forward op."""
    if grad.shape == shape:
        return grad
    # Sum away leading dims that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "__weakref__")

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if isinstance(data, Tensor):  # defensive: wrapping a Tensor is a bug
            raise GradientError("cannot wrap a Tensor in a Tensor")
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and is_grad_enabled()
        # A tensor that does not require grad must not pin the activation
        # graph: drop both the parents tuple and the backward closure (the
        # closure alone captures the parent arrays) so eval batches free as
        # they go instead of accumulating until the top-level result dies.
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """The underlying array (a view; do not mutate during training)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # -- graph plumbing ----------------------------------------------------

    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned`` marks an array the backward built for this call alone; a
        C-contiguous one is kept instead of copied.  Anything else (the
        child's own gradient, a view of it) is copied, because a later
        ``+=`` would otherwise write through to the other holder.
        """
        if self.grad is None:
            self.grad = grad if owned and grad.flags.c_contiguous else grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor; scalar tensors need no seed grad."""
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        # Iterative topological sort (post-order DFS).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: "Tensor | float | int") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float | int") -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Tensor | float | int") -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Tensor | float | int") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), owned=True)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | int") -> "Tensor":
        other = self._coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other: "Tensor | float | int") -> "Tensor":
        return self._coerce(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise GradientError("tensor exponents are not supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0), owned=True)

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                ga = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape), owned=True)
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, other.shape), owned=True)

        return self._make(out_data, (self, other), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), owned=True)

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise ----------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, owned=True)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        return self._make(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data * out_data), owned=True)

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, owned=True)

        return self._make(self.data * mask, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes or tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes_tuple), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, a, b))

        return self._make(np.swapaxes(self.data, a, b), (self,), backward)

    def __getitem__(self, index: object) -> "Tensor":
        out_data = self.data[index]
        # Basic indexing (ints, slices, None, ...) selects each element at
        # most once, so its gradient is a plain assignment; an integer
        # array may repeat an element and needs the scatter-add.
        basic = all(
            item is None or item is Ellipsis or isinstance(item, slice)
            or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
            for item in (index if isinstance(index, tuple) else (index,))
        )

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if basic:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return self._make(np.asarray(out_data), (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to self except ``value`` where ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.where(mask, 0.0, grad), owned=True)

        return self._make(out_data, (self,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis with gradient support."""
    if not tensors:
        raise GradientError("concat of an empty sequence")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer: list[slice] = [slice(None)] * grad.ndim
                slicer[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(slicer)])

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    if not requires:
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, _parents=tuple(tensors), _backward=backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    if not tensors:
        raise GradientError("stack of an empty sequence")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(np.squeeze(part, axis=axis))

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    if not requires:
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, _parents=tuple(tensors), _backward=backward)
