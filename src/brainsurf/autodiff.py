"""Dense float64 tensors with reverse-mode differentiation.

Minimal by design: exactly the operations the mesh network, loss, and
baseline need, each recording a backward closure on a freshly built graph.
Gradients accumulate additively across fan-out, so diamond-shaped graphs
come out right without any extra bookkeeping.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp


class ShapeMismatch(ValueError):
    pass


class EmptySet(ValueError):
    pass


class NonScalarRoot(ValueError):
    pass


class NonFiniteValue(ValueError):
    pass


_grad_enabled = True
_hinge_trace: list[np.ndarray] | None = None


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (inference, margin estimation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def trace_hinges() -> Iterator[list[np.ndarray]]:
    """Collect pre-activation values of every hinge-shaped op run in the block.

    Used by grad_check to detect coordinates whose finite-difference
    perturbation crosses a kink, where central differences are invalid.
    """
    global _hinge_trace
    prev = _hinge_trace
    trace: list[np.ndarray] = []
    _hinge_trace = trace
    try:
        yield trace
    finally:
        _hinge_trace = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def sum(self) -> "Tensor":
        x = self
        out = _result(x.data.sum(), (x,))
        if out._parents:
            def backward(g: np.ndarray) -> None:
                _accumulate(x, np.broadcast_to(g, x.data.shape))
            out._backward_fn = backward
        return out

    def mean(self) -> "Tensor":
        x = self
        n = x.data.size
        out = _result(x.data.mean(), (x,))
        if out._parents:
            def backward(g: np.ndarray) -> None:
                _accumulate(x, np.broadcast_to(g / n, x.data.shape))
            out._backward_fn = backward
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # own the buffer; g may be reused
    else:
        t.grad += g


def _result(data, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "add")
    out = _result(a.data + b.data, (a, b))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(a, g)
            _accumulate(b, g)
        out._backward_fn = backward
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "sub")
    out = _result(a.data - b.data, (a, b))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(a, g)
            _accumulate(b, -g)
        out._backward_fn = backward
    return out


def mul_scalar(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = _result(a.data * c, (a,))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(a, g * c)
        out._backward_fn = backward
    return out


def add_scalar(a, c: float) -> Tensor:
    a = _as_tensor(a)
    out = _result(a.data + float(c), (a,))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(a, g)
        out._backward_fn = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {a.data.shape} and {b.data.shape} incompatible")
    out = _result(a.data @ b.data, (a, b))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
        out._backward_fn = backward
    return out


def _along_axis0(matrix: sp.spmatrix, a: np.ndarray) -> np.ndarray:
    # A C-contiguous a is viewed as [rows, rest] and back: no copy either way.
    out = matrix @ a.reshape(a.shape[0], -1)
    return out.reshape((matrix.shape[0],) + a.shape[1:])


def sparse_matmul(matrix: sp.spmatrix, x) -> Tensor:
    """Apply a constant sparse operator along axis 0 (the vertex axis) of x,
    whatever its trailing shape."""
    x = _as_tensor(x)
    if x.data.ndim == 0 or x.data.shape[0] != matrix.shape[1]:
        raise ShapeMismatch(
            f"sparse_matmul: operator {matrix.shape} against data {x.data.shape}"
        )
    out = _result(_along_axis0(matrix, x.data), (x,))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(x, _along_axis0(matrix.T, g))
        out._backward_fn = backward
    return out


def _record_hinge(pre: np.ndarray) -> None:
    if _hinge_trace is not None:
        _hinge_trace.append(pre.copy())


def leaky_relu(x, slope: float = 0.1) -> Tensor:
    x = _as_tensor(x)
    _record_hinge(x.data)
    out = _result(np.where(x.data > 0.0, x.data, slope * x.data), (x,))
    if out._parents:
        scale = np.where(x.data > 0.0, 1.0, slope)
        def backward(g: np.ndarray) -> None:
            _accumulate(x, g * scale)
        out._backward_fn = backward
    return out


def clamp_min_zero(x) -> Tensor:
    """Hinge [x]_+; subgradient at exactly 0 is 0."""
    x = _as_tensor(x)
    _record_hinge(x.data)
    out = _result(np.maximum(x.data, 0.0), (x,))
    if out._parents:
        mask = x.data > 0.0
        def backward(g: np.ndarray) -> None:
            _accumulate(x, g * mask)
        out._backward_fn = backward
    return out


def square(x) -> Tensor:
    x = _as_tensor(x)
    out = _result(x.data * x.data, (x,))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(x, 2.0 * x.data * g)
        out._backward_fn = backward
    return out


def transpose(x, axes: Sequence[int], shape: tuple[int, ...] | None = None) -> Tensor:
    """Permute the axes of x into a fresh C-contiguous array, then view it in
    ``shape`` when given (a view: the permuted buffer is not copied again)."""
    x = _as_tensor(x)
    permuted = np.ascontiguousarray(x.data.transpose(axes))
    out = _result(permuted if shape is None else permuted.reshape(shape), (x,))
    if out._parents:
        inverse = np.argsort(axes)
        def backward(g: np.ndarray) -> None:
            _accumulate(x, g.reshape(permuted.shape).transpose(inverse))
        out._backward_fn = backward
    return out


def stack(parts: Sequence) -> Tensor:
    """Stack same-shape tensors along a new leading axis (a batch)."""
    tensors = [_as_tensor(p) for p in parts]
    if not tensors:
        raise ShapeMismatch("stack: no inputs")
    if len({t.data.shape for t in tensors}) != 1:
        raise ShapeMismatch(f"stack: shapes {[t.data.shape for t in tensors]} differ")
    out = _result(np.stack([t.data for t in tensors]), tuple(tensors))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            for t, gi in zip(tensors, g):
                _accumulate(t, gi)
        out._backward_fn = backward
    return out


def concat_channels(parts: Sequence) -> Tensor:
    """Concatenate along the last (channel) axis; leading axes must agree."""
    tensors = [_as_tensor(p) for p in parts]
    if not tensors:
        raise ShapeMismatch("concat_channels: no inputs")
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.ndim == 0 or t.data.shape[:-1] != lead:
            raise ShapeMismatch(
                f"concat_channels: shapes {[t.data.shape for t in tensors]} incompatible"
            )
    out = _result(np.concatenate([t.data for t in tensors], axis=-1), tuple(tensors))
    if out._parents:
        sizes = [t.data.shape[-1] for t in tensors]
        def backward(g: np.ndarray) -> None:
            start = 0
            for t, c in zip(tensors, sizes):
                _accumulate(t, g[..., start : start + c])
                start += c
        out._backward_fn = backward
    return out


def add_bias(x, b) -> Tensor:
    """x: [..., C] plus per-channel bias b: [C]."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.data.ndim == 0 or b.data.ndim != 1 or x.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatch(f"add_bias: shapes {x.data.shape} and {b.data.shape} incompatible")
    out = _result(x.data + b.data, (x, b))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            _accumulate(x, g)
            _accumulate(b, g.reshape(-1, b.data.shape[0]).sum(axis=0))
        out._backward_fn = backward
    return out


def backward(root: Tensor) -> None:
    """Reverse topological sweep from a scalar root; fills .grad on every
    trainable ancestor."""
    if root.data.shape != ():
        raise NonScalarRoot(f"backward root must be scalar, got shape {root.data.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
    # Ancestors whose every path to the root crossed an inactive hinge get an
    # explicit zero gradient rather than None.
    for node in topo:
        if node.grad is None:
            node.grad = np.zeros_like(node.data)


@dataclass(frozen=True)
class Param:
    """A named trainable tensor; names are unique within a model."""

    name: str
    tensor: Tensor


def _hinge_crossed(trace_plus: list[np.ndarray], trace_minus: list[np.ndarray], eps: float) -> bool:
    # A coordinate is unusable when some hinge pre-activation it influences
    # either changed sign between the two perturbed evaluations or sits
    # within 10*eps of the kink.
    for zp, zm in zip(trace_plus, trace_minus):
        moved = zp != zm
        if not moved.any():
            continue
        flipped = (zp > 0.0) != (zm > 0.0)
        near = np.minimum(np.abs(zp), np.abs(zm)) < 10.0 * eps
        if (moved & (flipped | near)).any():
            return True
    return False


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Param],
    eps: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
    worst_out: dict | None = None,
) -> float:
    """Compare reverse-mode gradients of a scalar function against central
    finite differences.

    Subsamples coordinates (at least ``max_coords`` checked when available)
    with a fixed seed, skips coordinates whose perturbation straddles a hinge
    boundary, and returns max |analytic - numeric| / max(1, |numeric|).
    """
    for p in params:
        if not p.tensor.requires_grad:
            raise ValueError(f"param {p.name} is not trainable")
        p.tensor.zero_grad()
    loss = f()
    if not np.isfinite(loss.data):
        raise NonFiniteValue("loss is not finite")
    backward(loss)
    analytic = []
    for p in params:
        g = p.tensor.grad
        if g is None:
            g = np.zeros_like(p.tensor.data)
        if not np.isfinite(g).all():
            raise NonFiniteValue(f"gradient of {p.name} is not finite")
        analytic.append(g.copy())
        p.tensor.zero_grad()

    coords = [(pi, fi) for pi, p in enumerate(params) for fi in range(p.tensor.data.size)]
    if len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[k] for k in sorted(picked)]

    worst = 0.0
    for pi, fi in coords:
        data = params[pi].tensor.data
        orig = data.flat[fi]
        data.flat[fi] = orig + eps
        with no_grad(), trace_hinges() as trace_plus:
            f_plus = f().item()
        data.flat[fi] = orig - eps
        with no_grad(), trace_hinges() as trace_minus:
            f_minus = f().item()
        data.flat[fi] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteValue(f"perturbed loss not finite at {params[pi].name}[{fi}]")
        if _hinge_crossed(trace_plus, trace_minus, eps):
            continue
        numeric = (f_plus - f_minus) / (2.0 * eps)
        err = abs(analytic[pi].flat[fi] - numeric) / max(1.0, abs(numeric))
        if err > worst:
            worst = err
            if worst_out is not None:
                worst_out.update(
                    param=params[pi].name,
                    index=fi,
                    analytic=float(analytic[pi].flat[fi]),
                    numeric=float(numeric),
                )
    return worst


def adam_step(
    params: Sequence[Param],
    grads: Sequence[np.ndarray],
    state: dict | None,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict:
    """One bias-corrected Adam update, applied to params in place."""
    if state is None or not state:
        state = {
            "step": 0,
            "m": {p.name: np.zeros_like(p.tensor.data) for p in params},
            "v": {p.name: np.zeros_like(p.tensor.data) for p in params},
        }
    state["step"] += 1
    t = state["step"]
    for p, g in zip(params, grads):
        m = state["m"][p.name]
        v = state["v"][p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.tensor.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state
