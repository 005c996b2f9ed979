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
cgm (vertex embedding, temporal aggregation, spatial mixing, cross gate),
each one or two tape nodes built with ``Tensor._make``.  They follow the
same rule: a VJP writes only into arrays it allocated or took as scratch
in that call, never into its incoming adjoint (possibly a read-only
broadcast view) and never into the arrays its forward pass saved, so
``backward()`` can run more than once.

Only the operations the models run are implemented: broadcasting ``+``,
``-`` and ``*`` with a tensor on the left, batched matmul, sums, shape
moves, indexing, gather and concat.  The activations exist only inside the
fused kernels; the composite references the tests compare them with build
their own on ``Tensor._make``.  Gradients flow only into tensors created
with ``requires_grad=True`` or derived from one.

Inside ``with no_grad():`` nothing is recorded: ``Tensor._make`` returns a
plain tensor with no parents and no VJP, so no VJP reads what a kernel
saved once the kernel returns, and ``backward()`` cannot reach anything
computed there.  Values are the same bits as with recording on.  Inference runs this way.  The
switch is a context variable, so it holds for the current thread only, and
the previous state comes back when the block exits, also by an exception.

Buffer pools: one pool per thread, in a second context variable, lets a
kernel reuse buffers instead of mapping, faulting and unmapping fresh
pages every call.  A pool serves two lifetimes:

- ``scratch(key, shape)`` is a call-local temporary: one buffer per key,
  which the kernel uses only until it returns (a random draw, a relu mask,
  a VJP's intermediate adjoints).  Outside any pool it is ``np.empty``.
- ``step_buffer(key, shape)`` is what a kernel returns or saves for its
  VJP.  Inside a training pool it is one buffer per (key, occurrence since
  the last rewind), valid until the pool's next ``rewind()``: the k-th
  temporal kernel of a step gets the same buffer in every step.  Anywhere
  else it is a fresh array.  An array saved only for the VJP
  (``vjp_only=True``) is a call-local temporary when nothing is recorded,
  since no VJP will read it.

``training_pool()`` opens a pool that ``train()`` holds for a whole run and
rewinds at the start of every optimizer step, so a step's arrays are valid
only until the next step.  It keeps each buffer at the largest size
requested and hands out views, so an epoch's smaller last batch reuses the
full batch's pages.  The outermost ``no_grad()`` block opens an inference
pool (also inside a training pool, so imputing mid-run leaves the step's
buffers alone) and drops it on exit, also by an exception; nested blocks
share it.  An inference pool never serves step buffers, so every kernel
output there is a fresh array, and it replaces a slot whose shape changes.

The rules that make reuse safe: a call-local buffer never leaves the call
that asked for it, and nothing holds a step buffer past the step.  A VJP
returns fresh adjoints, never a pool buffer or a view of one, because
``backward()`` keeps them as interior adjoints and leaf gradients.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

Array = np.ndarray

_recording: ContextVar[bool] = ContextVar("recording", default=True)
_pool: ContextVar[ScratchPool | None] = ContextVar("scratch_pool", default=None)


class ScratchPool:
    """One thread's reusable kernel buffers (see the module docstring).

    ``training`` pools also serve step buffers and keep every buffer at its
    largest size; inference pools serve only call-local temporaries.
    """

    def __init__(self, training: bool):
        self.training = training
        self._temps: dict = {}  # key -> [flat buffer, last view]
        self._steps: dict = {}  # key -> one [flat buffer, last view] per occurrence
        self._taken: dict = {}  # key -> step buffers handed out since the last rewind

    def rewind(self) -> None:
        """Start a new step: step buffers are handed out again from the first."""
        self._taken.clear()

    def values(self) -> list[Array]:
        """Every buffer the pool holds."""
        slots = [*self._temps.values(), *(s for per_key in self._steps.values() for s in per_key)]
        return [flat for flat, _ in slots]

    def temp(self, key, shape: tuple[int, ...], dtype) -> Array:
        return self._fit(self._temps.setdefault(key, [None, None]), shape, dtype)

    def step(self, key, shape: tuple[int, ...], dtype) -> Array:
        n = self._taken.get(key, 0)
        self._taken[key] = n + 1
        per_key = self._steps.setdefault(key, [])
        if n == len(per_key):
            per_key.append([None, None])
        return self._fit(per_key[n], shape, dtype)

    def _fit(self, slot: list, shape: tuple[int, ...], dtype) -> Array:
        """The slot's view of ``shape``, reallocating the slot only when needed."""
        flat, view = slot
        dtype = np.dtype(dtype)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        size = math.prod(shape)
        fits = self.training and flat is not None and flat.dtype == dtype and flat.size >= size
        if not fits:
            flat = slot[0] = np.empty(size, dtype)
        view = slot[1] = flat[:size].reshape(shape)
        return view


@contextmanager
def no_grad():
    """Build no tape inside the block; restores the previous state on exit.

    The outermost block opens an inference pool and drops it on exit.
    """
    token = _recording.set(False)
    current = _pool.get()
    opens = current is None or current.training
    pool_token = _pool.set(ScratchPool(training=False)) if opens else None
    try:
        yield
    finally:
        if pool_token is not None:
            _pool.reset(pool_token)
        _recording.reset(token)


@contextmanager
def training_pool():
    """Open a training pool for this thread and yield it; dropped on exit.

    The caller rewinds it at the start of every step (see ``train``).
    """
    pool = ScratchPool(training=True)
    token = _pool.set(pool)
    try:
        yield pool
    finally:
        _pool.reset(token)


def scratch(key, shape: tuple[int, ...], dtype=np.float64) -> Array:
    """An uninitialized temporary of ``shape`` for one kernel call.

    Inside a pool, the pool's buffer for ``key``; outside, a fresh array.
    The caller must not return it or keep it past the call.
    """
    pool = _pool.get()
    return np.empty(shape, dtype) if pool is None else pool.temp(key, shape, dtype)


def step_buffer(key, shape: tuple[int, ...], dtype=np.float64, vjp_only: bool = False) -> Array:
    """An uninitialized array a kernel returns or saves for its VJP.

    Inside a training pool, the buffer of (``key``, occurrence) since the
    last rewind; elsewhere a fresh array.  ``vjp_only`` arrays are never
    returned: without recording they are ``scratch`` temporaries.
    """
    if vjp_only and not _recording.get():
        return scratch(key, shape, dtype)
    pool = _pool.get()
    if pool is None or not pool.training:
        return np.empty(shape, dtype)
    return pool.step(key, shape, dtype)


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
