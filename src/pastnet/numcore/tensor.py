"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps an ndarray and records, for every derived value, the
parent tensors and a vector-Jacobian callback.  Calling ``backward()`` on a
scalar walks the tape in reverse topological order and accumulates adjoints
into ``.grad`` buffers.  Everything is double precision and every operation
is a plain numpy expression, so a forward pass repeated on identical inputs
is bitwise reproducible.

Adjoint ownership: a VJP may return views of its input adjoint (a reshape,
a transpose, a read-only broadcast, one piece of a concat split), and one
such view may reach several parents.  ``backward()`` therefore never writes
into an interior node's adjoint: the first contribution is kept as is and a
later one is added out of place.  Only leaf accumulators are written in
place; a leaf without one gets a writable copy of its first contribution.

Layer kernels with hand-written VJPs live next to their models in gim and
cgm (temporal aggregation, spatial mixing, cross gate), each one or two
tape nodes built with ``Tensor._make``.  They follow the same rule: a VJP
writes only into arrays it allocated itself in that call, never into its
incoming adjoint (possibly a read-only broadcast view) and never into the
arrays its forward pass saved, so ``backward()`` can run more than once.

Only the operations the models run are implemented: broadcasting ``+``,
``-`` and ``*`` with a tensor on the left, batched matmul, sums, shape
moves, indexing, gather and concat.  The activations exist only inside the
fused kernels; the composite references the tests compare them with build
their own on ``Tensor._make``.  Gradients flow only into tensors created
with ``requires_grad=True`` or derived from one.

Inside ``with no_grad():`` nothing is recorded: ``Tensor._make`` returns a
plain tensor with no parents and no VJP, so the arrays a kernel saves for
its VJP are freed as soon as the kernel returns, and ``backward()`` cannot
reach anything computed there.  Values
are the same bits as with recording on.  Inference runs this way.  The
switch is a context variable, so it holds for the current thread only, and
the previous state comes back when the block exits, also by an exception.

The outermost ``no_grad()`` block also owns a scratch pool, in a second
context variable, freed when that block exits; nested blocks share it.  A
kernel asks ``scratch(key, shape)`` for a temporary: inside the block it
gets the pool's buffer for ``key``, allocated again only when the shape
changes, so a loop of identical kernel calls (one window after another)
reuses the same pages instead of mapping, faulting and unmapping fresh
ones each call.  Outside it, ``scratch`` is ``np.empty(shape)``, because a
recorded kernel's VJP may read its temporaries long after a later call.
The rule that makes reuse safe: a pool buffer lives only inside the call
that asked for it.  A kernel never returns one, never hands one to another
kernel and never keeps one past its return, so no value a caller holds can
be overwritten by a later call.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

Array = np.ndarray

_recording: ContextVar[bool] = ContextVar("recording", default=True)
_pool: ContextVar[dict | None] = ContextVar("scratch_pool", default=None)


@contextmanager
def no_grad():
    """Build no tape inside the block; restores the previous state on exit.

    The outermost block creates the scratch pool and drops it on exit.
    """
    token = _recording.set(False)
    pool_token = _pool.set({}) if _pool.get() is None else None
    try:
        yield
    finally:
        if pool_token is not None:
            _pool.reset(pool_token)
        _recording.reset(token)


def scratch(key, shape: tuple[int, ...]) -> Array:
    """An uninitialized float64 temporary of ``shape`` for one kernel call.

    Inside ``no_grad()`` the block's buffer for ``key`` (one per key, new
    only when the shape changes); outside, a fresh array.  The caller must
    not return it or keep it past the call (see the module docstring).
    """
    pool = _pool.get()
    if pool is None:
        return np.empty(shape)
    buf = pool.get(key)
    if buf is None or buf.shape != shape:
        buf = pool[key] = np.empty(shape)
    return buf


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """One node of the computation tape.

    ``data`` is always a float64 ndarray.  ``grad`` is lazily allocated for
    interior nodes; leaf parameters keep a persistent accumulator managed by
    their store.  ``_vjp`` maps the node's adjoint to a tuple of parent
    adjoints (``None`` for parents that do not need one).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")
    # keep numpy from intercepting ndarray <op> Tensor expressions
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    # ---- introspection ----

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def detach(self) -> "Tensor":
        """Same values, no history.  Shares the underlying buffer."""
        return Tensor(self.data)

    # ---- graph construction ----

    @staticmethod
    def _make(data: Array, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        if not (_recording.get() and any(p.requires_grad for p in parents)):
            return Tensor(data)
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._vjp = vjp
        return out

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``.grad``.

        ``self`` must hold a single element.  Existing leaf accumulators are
        added to in place, so they keep their identity; a leaf without one
        receives a fresh writable array.  Interior adjoints may be views
        shared with other nodes and are only ever replaced, never written.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        else:
            self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            parent_grads = node._vjp(node.grad)
            for parent, g in zip(node._parents, parent_grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent._vjp is not None:
                    # interior: g may be a read-only or shared view, never write into it
                    parent.grad = g if parent.grad is None else parent.grad + g
                elif parent.grad is None:
                    parent.grad = np.array(g)  # the leaf's own writable accumulator
                else:
                    np.add(parent.grad, g, out=parent.grad)
            if node is not self:
                node.grad = None  # free interior adjoints as soon as consumed

    # ---- arithmetic ----

    def __add__(self, other):
        a, b = self, _wrap(other)
        data = a.data + b.data

        def vjp(g):
            return (
                _unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None,
            )

        return Tensor._make(data, (a, b), vjp)

    def __sub__(self, other):
        a, b = self, _wrap(other)
        data = a.data - b.data

        def vjp(g):
            return (
                _unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
            )

        return Tensor._make(data, (a, b), vjp)

    def __mul__(self, other):
        a, b = self, _wrap(other)
        data = a.data * b.data

        def vjp(g):
            return (
                _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
            )

        return Tensor._make(data, (a, b), vjp)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    # ---- reductions ----

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, a.data.shape),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, a.data.shape),)

        return Tensor._make(data, (a,), vjp)

    # ---- shape moves ----

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        data = a.data.reshape(shape)

        def vjp(g):
            return (g.reshape(a.data.shape),)

        return Tensor._make(data, (a,), vjp)

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        a = self
        inverse = tuple(int(i) for i in np.argsort(axes))
        data = np.transpose(a.data, axes)

        def vjp(g):
            return (np.transpose(g, inverse),)

        return Tensor._make(data, (a,), vjp)

    def __getitem__(self, index) -> "Tensor":
        a = self
        data = a.data[index]
        basic = all(
            isinstance(i, (int, np.integer, slice)) or i is None or i is Ellipsis
            for i in (index if isinstance(index, tuple) else (index,))
        )

        def vjp(g):
            full = np.zeros_like(a.data)
            if basic:
                full[index] = g  # a basic index selects each element at most once
            else:
                np.add.at(full, index, g)  # integer arrays may repeat an element
            return (full,)

        return Tensor._make(data, (a,), vjp)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(x) -> Tensor:
    """Wrap an array-like as a gradient-free tensor (no copy for ndarrays)."""
    return _wrap(x)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-d.

    A 2-d ``b`` is shared by every leading index of ``a``, so its adjoint
    folds ``a``'s leading axes into rows: one GEMM instead of one per batch
    entry plus a sum.  The forward pass and ``a``'s adjoint stay batched,
    which OpenBLAS runs faster than one tall GEMM at the models' widths.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.requires_grad and b.ndim == 2:
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        return ga, gb

    return Tensor._make(data, (a, b), vjp)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    parts = [_wrap(t) for t in tensors]
    datas = [p.data for p in parts]
    data = np.concatenate(datas, axis=axis)
    sizes = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def vjp(g):
        pieces = np.split(g, sizes, axis=axis)
        return tuple(
            pieces[i] if parts[i].requires_grad else None for i in range(len(parts))
        )

    return Tensor._make(data, tuple(parts), vjp)


def embedding(table: Tensor, indices) -> Tensor:
    """Gather rows of ``table`` (V, d) at integer ``indices`` (any shape)."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("embedding indices must be integers")
    data = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (gt,)

    return Tensor._make(data, (table,), vjp)
