"""Dense float64 tensors with reverse-mode differentiation.

Minimal by design: exactly the operations the mesh network needs.  Each
op is its forward value plus a gradient function that returns its parents'
gradients; one constructor, ``_op``, records both on a freshly built graph.
A caller with a closed-form gradient of its own, such as the R-C loss,
records itself through ``_op`` as one node.  ``backward`` alone adds those
gradients into the parents, additively across fan-out, so diamond-shaped
graphs come out right without any extra bookkeeping.  Once a node has
passed its gradient on, the sweep releases that gradient and drops the
node's gradient function and parents, so each value the graph holds is freed
as soon as its last consumer has run, and only leaves hold gradients
afterwards.  A model's parameters live in a
``ParamArena``: their data and gradients are views of two flat vectors,
which ``adam_step`` updates in place.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp


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
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Zero the gradient in place, so a parameter's stays its arena's view."""
        if self.grad is not None:
            self.grad.fill(0.0)

    # The two reductions have no caller in the package; the benchmark
    # harness (perfbench) reduces a conv's output with .sum() and traces both.
    def sum(self) -> "Tensor":
        return _op(self.data.sum(), (self,), lambda g: (np.broadcast_to(g, self.data.shape),))

    def mean(self) -> "Tensor":
        return _op(
            self.data.mean(), (self,), lambda g: (np.broadcast_to(g / self.data.size, self.data.shape),)
        )

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _op(
    data,
    parents: tuple[Tensor, ...],
    grads: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """The value of an op on ``parents``.  It is recorded, with ``grads`` as
    its gradient function, only when gradients are on and some parent needs
    one.  ``grads(g)`` maps the gradient of the value to one gradient per
    parent, in parent order, or None for a parent that needs none."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = grads
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t._parents:
        # Interior node: its own backward reads the sum once, then releases
        # it, so g is kept as given (it may be a view) and never written to.
        t.grad = g if t.grad is None else t.grad + g
    elif t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # a leaf owns its buffer
    else:
        t.grad += g  # a parameter's view of its arena's flat gradient


def _along_axis0(matrix: sp.spmatrix, a: np.ndarray) -> np.ndarray:
    # A C-contiguous a is viewed as [rows, rest] and back: no copy either way.
    out = matrix @ a.reshape(a.shape[0], -1)
    return out.reshape((matrix.shape[0],) + a.shape[1:])


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Apply a constant sparse operator along axis 0 (the vertex axis) of x,
    whatever its trailing shape."""
    if x.data.ndim == 0 or x.data.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"sparse_matmul: operator {matrix.shape} against data {x.data.shape}"
        )
    return _op(_along_axis0(matrix, x.data), (x,), lambda g: (_along_axis0(matrix.T, g),))


def _record_hinge(pre: np.ndarray) -> None:
    if _hinge_trace is not None:
        _hinge_trace.append(pre.copy())


def transpose(x: Tensor, axes: Sequence[int], shape: tuple[int, ...] | None = None) -> Tensor:
    """Permute the axes of x into a fresh C-contiguous array, then view it in
    ``shape`` when given (a view: the permuted buffer is not copied again)."""
    permuted = np.ascontiguousarray(x.data.transpose(axes))
    return _op(
        permuted if shape is None else permuted.reshape(shape),
        (x,),
        lambda g: (g.reshape(permuted.shape).transpose(np.argsort(axes)),),
    )


def backward(root: Tensor) -> None:
    """Reverse topological sweep from a scalar root.  Each node's gradient
    function returns its parents' gradients, and this sweep alone adds them
    up: an interior node keeps the array it is given, a leaf owns a copy, and
    a parameter adds into its arena's view.  Afterwards every trainable leaf
    the root reaches holds its gradient, and every interior node's .grad is
    None again: it is released as soon as the node has passed it on, together
    with the node's gradient function and parents: a swept graph holds no
    value, and a second sweep from its root reaches nothing."""
    if root.data.shape != ():
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")

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

    _accumulate(root, np.ones_like(root.data))
    while topo:
        node = topo.pop()
        if not node._parents:
            # Every consumer has run: a leaf that none of them reached gets an
            # explicit zero gradient rather than None.
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            continue
        if node.grad is not None:
            grads = node._backward_fn(node.grad)
            node.grad = None
            for parent, g in zip(node._parents, grads):
                if g is not None:
                    _accumulate(parent, g)
        # Its consumers have all run, so no gradient reaches it again: drop
        # its closure and its parents, and with them every value only they
        # still hold.
        node._backward_fn, node._parents = None, ()


@dataclass(frozen=True)
class Param:
    """A named trainable tensor; names are unique within a model."""

    name: str
    tensor: Tensor


class ParamArena:
    """Parameters whose data are views of one contiguous float64 vector and
    whose gradients are views of one flat gradient buffer, both laid out in
    the order given.  Parameter data must be written in place from then on."""

    def __init__(self, params: Sequence[Param]):
        self.params = list(params)
        sizes = [p.tensor.data.size for p in self.params]
        self.data = np.empty(sum(sizes))
        self.grad = np.zeros(sum(sizes))
        offset = 0
        for p, n in zip(self.params, sizes):
            shape = p.tensor.data.shape
            view = self.data[offset : offset + n].reshape(shape)
            view[...] = p.tensor.data
            p.tensor.data = view
            p.tensor.grad = self.grad[offset : offset + n].reshape(shape)
            offset += n

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


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
        raise ValueError("loss is not finite")
    backward(loss)
    analytic = []
    for p in params:
        g = p.tensor.grad
        if g is None:
            g = np.zeros_like(p.tensor.data)
        if not np.isfinite(g).all():
            raise ValueError(f"gradient of {p.name} is not finite")
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
            raise ValueError(f"perturbed loss not finite at {params[pi].name}[{fi}]")
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


# Elements per block of an Adam step: its working set (six vectors' blocks)
# stays in cache, and its two scratch vectors are one block long.
_ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """Flat first and second moments, two scratch vectors of one block's
    length, and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    step: int = 0


def adam_step(
    data: np.ndarray,
    grad: np.ndarray,
    state: AdamState | None,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One bias-corrected Adam update of the flat parameter vector ``data``,
    in place, from the flat gradient ``grad``, one block of the scratch
    vectors' length at a time.  Every elementwise result is the per-element
    formula's, in its order:
    m = b1 m + (1-b1) g;  v = b2 v + ((1-b2) g) g;
    data -= (lr (m / (1-b1^t))) / (sqrt(v / (1-b2^t)) + eps)."""
    if state is None:
        n = data.size
        state = AdamState(np.zeros(n), np.zeros(n), (np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)))
    if data.ndim != 1 or grad.shape != data.shape or state.m.shape != data.shape:
        raise ValueError(
            f"adam_step: flat data {data.shape}, grad {grad.shape}, state {state.m.shape}"
        )
    state.step += 1
    bias1, bias2 = 1.0 - beta1**state.step, 1.0 - beta2**state.step
    block = state.scratch[0].size
    for start in range(0, data.size, block):
        part = slice(start, start + block)
        d, g, m, v = data[part], grad[part], state.m[part], state.v[part]
        a, b = (s[: d.size] for s in state.scratch)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, bias1, out=a)
        a *= lr
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        d -= a
    return state
