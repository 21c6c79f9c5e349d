"""A reverse-mode automatic-differentiation tensor over numpy arrays.

This is the substrate that replaces PyTorch in this reproduction: it is
sufficient to train DLRM and GPT-style models end-to-end (Linear/LayerNorm/
attention/losses all build on the ops defined here).

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray`` plus an optional backward closure and
  parent list. ``backward()`` runs a topological sort and accumulates
  gradients into ``.grad``.
* Broadcasting is supported everywhere numpy broadcasts; gradients are
  reduced back to the operand shape with :func:`unbroadcast`.
* Only float arrays participate in differentiation; integer tensors (e.g.
  token ids) flow through as plain data.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def scatter_add(array: np.ndarray, indices, values: np.ndarray) -> None:
    """Indexed accumulation (``np.add.at``) behind one seam.

    This is the *only* secret-index-addressed memory operation in the
    framework's training path (embedding-gather backward). Keeping it
    behind a patchable function lets the security tests instrument it and
    prove that DHE training never calls it (§IV-C3).

    ``values`` must cast safely into ``array``'s dtype: ``np.add.at``
    would otherwise truncate silently (e.g. float64 gradients into a
    float32 table), which is rejected here — upcast the destination or
    downcast the values explicitly instead.
    """
    values = np.asarray(values)
    if values.dtype != array.dtype and not np.can_cast(
            values.dtype, array.dtype, casting="safe"):
        raise TypeError(
            f"scatter_add would truncate: values dtype {values.dtype} does "
            f"not cast safely to array dtype {array.dtype}; upcast the "
            f"array or cast the values explicitly")
    np.add.at(array, indices, values)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: ArrayLike, dtype=None) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


# ----------------------------------------------------------------------
# Grad mode: enabled by default
# ----------------------------------------------------------------------
_grad_enabled: bool = True


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction: forward ops return plain tensors.

    Cuts autograd bookkeeping from inference loops.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """An array with reverse-mode autograd support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    # Make ``ndarray (op) Tensor`` dispatch to Tensor's reflected methods.
    __array_priority__ = 100.0

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError(
                f"only floating tensors can require grad, got dtype {self.data.dtype}"
            )
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward = _backward
        self._parents = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so calling ``loss.backward()`` on a scalar
        loss works with no arguments).
        """
        if grad is None:
            grad = np.ones_like(self.data, dtype=self.data.dtype)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        topo: List[Tensor] = []
        visited = set()

        # Iterative topological sort to avoid recursion limits on deep nets.
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
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
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    @staticmethod
    def _needs_graph(*tensors: "Tensor") -> bool:
        if not _grad_enabled:
            return False
        return any(t.requires_grad or t._parents for t in tensors)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        if not Tensor._needs_graph(self, other):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._parents:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate(unbroadcast(grad, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        if not Tensor._needs_graph(self, other):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._parents:
                self._accumulate(unbroadcast(grad * other.data, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate(unbroadcast(grad * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return self * as_tensor(other) ** -1.0

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        # 0 ** negative legitimately produces inf; keep numpy's value but
        # not its warning (callers relying on it should test isfinite).
        with np.errstate(divide="ignore"):
            out_data = self.data ** exponent
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            # d/dx x**p = p * x**(p-1) is undefined at x == 0 for p < 1
            # (and for p == 0). Rather than emit inf/nan into the graph,
            # clamp the local derivative to 0 exactly at the boundary —
            # the subgradient convention sqrt-at-zero training code
            # expects. Everywhere else the formula is untouched.
            with np.errstate(divide="ignore", invalid="ignore"):
                local = exponent * self.data ** (exponent - 1)
            local = np.asarray(local)
            bad = ~np.isfinite(local) & (np.asarray(self.data) == 0)
            if bad.any():
                local = np.where(bad, 0.0, local)
            self._accumulate(grad * local)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Comparisons (no grad; return plain tensors)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data > as_tensor(other).data)

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data < as_tensor(other).data)

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data >= as_tensor(other).data)

    def __le__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data <= as_tensor(other).data)

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        if not Tensor._needs_graph(self, other):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._parents:
                if other.data.ndim == 1:
                    grad_self = np.expand_dims(grad, -1) * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                if self.data.ndim == 1 and grad_self.ndim > 1:
                    grad_self = grad_self.sum(axis=tuple(range(grad_self.ndim - 1)))
                self._accumulate(unbroadcast(grad_self, self.shape))
            if other.requires_grad or other._parents:
                if self.data.ndim == 1:
                    grad_other = np.expand_dims(self.data, -1) * grad
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                if other.data.ndim == 1 and grad_other.ndim > 1:
                    grad_other = grad_other.sum(axis=tuple(range(grad_other.ndim - 1)))
                other._accumulate(unbroadcast(grad_other, other.shape))

        out._backward = backward
        return out

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) @ self

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        # Numerically stable piecewise evaluation.
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                            np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        out._backward = backward
        return out

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        out._backward = backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        mask = (self.data >= low) & (self.data <= high)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.shape))

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for a in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, a)
            self._accumulate(mask * g)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        inverse = np.argsort(axes)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        out._backward = backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            scatter_add(full, key, grad)
            self._accumulate(full)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Composition helpers
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        if not Tensor._needs_graph(*tensors):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=tuple(tensors))
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad or tensor._parents:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(index)])

        out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)
        if not Tensor._needs_graph(*tensors):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=tuple(tensors))

        def backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, slices):
                if tensor.requires_grad or tensor._parents:
                    tensor._accumulate(piece)

        out._backward = backward
        return out

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather ``self[indices]`` with scatter-add backward.

        This is the (non-secure) embedding-table lookup primitive: gradients
        from repeated indices accumulate, matching ``nn.Embedding`` semantics.
        """
        indices = np.asarray(indices)
        out_data = self.data[indices]
        if not Tensor._needs_graph(self):
            return Tensor(out_data)
        out = Tensor(out_data, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            scatter_add(full, indices, grad)
            self._accumulate(full)

        out._backward = backward
        return out


def zeros(shape, dtype=np.float64, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=np.float64, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def randn(shape, rng: Optional[np.random.Generator] = None, scale: float = 1.0,
          requires_grad: bool = False) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)
