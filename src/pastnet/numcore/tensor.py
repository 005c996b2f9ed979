"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps an ndarray and records, for every derived value, the
parent tensors and a vector-Jacobian callback.  Calling ``backward()`` on a
scalar walks the tape in reverse topological order and accumulates adjoints
into ``.grad`` buffers.  Everything is double precision and every operation
is a plain numpy expression, so a forward pass repeated on identical inputs
is bitwise reproducible.

Adjoint ownership: a VJP may return views of its input adjoint (a reshape,
a transpose, a read-only broadcast, one piece of a concat split), and one
such view may reach several parents.  ``backward()`` therefore writes into
an interior node's adjoint only where it knows that no other adjoint views
the same memory: a pool adjoint buffer (below) that this node's adjoint
alone still views.  Any other second contribution is added out of place,
into a new adjoint buffer.  Leaf accumulators are written in place; a leaf
without one gets a writable copy of its first contribution.

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
fused kernels, which take the logistic function from ``sigmoid`` below; the
composite references the tests compare them with build their own on
``Tensor._make``.  Gradients flow only into tensors created with
``requires_grad=True`` or derived from one.

Inside ``with no_grad():`` nothing is recorded: ``Tensor._make`` returns a
plain tensor with no parents and no VJP, so no VJP reads what a kernel
saved once the kernel returns, and ``backward()`` cannot reach anything
computed there.  Values are the same bits as with recording on.  Inference
runs this way.  The switch is a context variable, so it holds for the
current thread only, and the previous state comes back when the block
exits, also by an exception.

Buffer pool: ``buffer_pool()`` opens one pool for the current thread, in a
second context variable, so that kernels reuse buffers instead of mapping,
faulting and unmapping fresh pages every call.  ``train()`` holds one for a
run and rewinds it at every optimizer step; ``impute_span()`` holds one for
a call and rewinds it per slot chunk and per window.  Outside any pool
every buffer below is a fresh array.  A pool serves three lifetimes:

- ``step_buffer(key, shape)`` is what a kernel or a generic ``matmul`` or
  ``concat`` returns, or what a kernel saves for its VJP: one buffer per
  (key, occurrence since the last rewind), valid until the pool's next
  ``rewind()``, so the k-th temporal kernel of a step gets the same buffer
  in every step.  Each keeps the largest size asked for and hands out
  views, so an epoch's smaller last batch reuses the full batch's pages.
  An array saved only for the VJP (``vjp_only=True``) is scratch when
  nothing is recorded, since no VJP will read it.
- ``scratch(shape)`` is a call-local temporary (a random draw, a relu mask,
  a VJP's intermediate adjoints).  One of ``HEAP_ADJOINT_BYTES`` or more is
  a view of one of the pool's arena buffers, handed back when the next tape
  node is made (``Tensor._make``, the kernel's own node) or, inside
  ``backward()``, when the VJP returns.  A smaller one is a plain array.
- ``adjoint_buffer(shape)`` is an adjoint a VJP returns: arena memory like
  scratch, except that ``backward()`` keeps the buffer while an interior
  adjoint views it.  It counts the interior adjoints that view each buffer
  (a reshape, transpose, split piece or broadcast of an adjoint views the
  same buffer) and hands the buffer back when the last of them is consumed.

An idle arena buffer serves the next request it fits, as a view; when none
fits, the idle buffers are dropped and a new one is mapped, so the arena
never holds more than it once had in use at the same time.
``ScratchPool.stats()`` reports the step-buffer and arena bytes.

The rules that make reuse safe: a scratch buffer never leaves the call
that asked for it, and that call makes no tape node while it still reads
the buffer; nothing holds a step buffer past the pool's next rewind.  Who
may write an adjoint: the VJP that took it from ``adjoint_buffer``, until
it returns it, and then only ``backward()``, which adds into it in place
only while the node it accumulates for is its only holder.  A VJP never
writes into its incoming adjoint and returns no scratch or step buffer
(nor a view of one), because ``backward()`` keeps what it returns as
interior adjoints and leaf gradients.
"""
from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

Array = np.ndarray

_recording: ContextVar[bool] = ContextVar("recording", default=True)
_pool: ContextVar[ScratchPool | None] = ContextVar("scratch_pool", default=None)

HEAP_ADJOINT_BYTES = 128 << 10  # smaller temporaries and adjoints stay plain (heap) arrays


class Arena:
    """A pool's buffers for call-local memory: scratch and the adjoints VJPs return.

    ``idle`` holds the flat float64 buffers nothing uses, smallest first.
    ``viewed`` maps each handed-out buffer to the number of interior
    adjoints the tape holds that view it.  A buffer goes idle at the next
    ``settle()`` after it was taken, unless the tape keeps a view of it, and
    then when the last such view is consumed.  ``live`` counts the bytes
    handed out and not yet idle, ``peak`` its largest value since the pool's
    last rewind.
    """

    def __init__(self):
        self.idle: list[Array] = []
        self.viewed: dict[int, list] = {}  # id(flat) -> [flat, interior adjoints viewing it]
        self._handed: list[Array] = []  # handed out since the last settle()
        self.live = self.peak = 0

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> Array:
        """A view of ``shape`` on the smallest idle buffer it fits, or a new one."""
        count = math.prod(shape)
        size = -(-count * np.dtype(dtype).itemsize // 8)  # in float64 elements
        i = bisect.bisect_left(self.idle, size, key=len)
        if i < len(self.idle):
            flat = self.idle.pop(i)
        else:
            self.idle.clear()  # each is too small for this request: drop, do not keep beside
            flat = np.empty(size)
        self.viewed[id(flat)] = [flat, 0]
        self._handed.append(flat)
        self.live += flat.nbytes
        self.peak = max(self.peak, self.live)
        return flat[:size].view(dtype)[:count].reshape(shape)

    def buffers(self) -> list[Array]:
        """Every buffer the arena holds, idle or handed out."""
        return self.idle + [flat for flat, _ in self.viewed.values()]

    def _entry(self, adjoint: Array) -> list | None:
        base = adjoint.base  # numpy points every view at the array that owns the memory
        return None if base is None else self.viewed.get(id(base))

    def hold(self, adjoint: Array) -> None:
        """The tape keeps ``adjoint`` as an interior node's adjoint."""
        entry = self._entry(adjoint)
        if entry is not None:
            entry[1] += 1

    def release(self, adjoint: Array) -> None:
        """The tape drops ``adjoint``; its buffer is idle once no view is left."""
        entry = self._entry(adjoint)
        if entry is not None:
            entry[1] -= 1
            if entry[1] == 0:
                self._idle(entry[0])

    def alone(self, adjoint: Array) -> bool:
        """Whether ``adjoint`` is writable and the only adjoint viewing its buffer."""
        entry = self._entry(adjoint)
        return entry is not None and entry[1] == 1 and adjoint.flags.writeable

    def settle(self) -> None:
        """Take back what was handed out since the last settle and the tape did not keep."""
        for flat in self._handed:
            entry = self.viewed.get(id(flat))
            if entry is not None and entry[1] == 0:
                self._idle(flat)
        self._handed.clear()

    def finish(self) -> None:
        """End a ``backward()``.  Buffers still viewed (it raised) leave the arena."""
        self.viewed.clear()
        self._handed.clear()
        self.live = 0

    def _idle(self, flat: Array) -> None:
        del self.viewed[id(flat)]
        self.live -= flat.nbytes
        bisect.insort(self.idle, flat, key=len)


class ScratchPool:
    """One thread's reusable kernel buffers (see the module docstring)."""

    def __init__(self):
        self._steps: dict = {}  # key -> one [flat buffer, last view] per occurrence
        self._taken: dict = {}  # key -> step buffers handed out since the last rewind
        self.arena = Arena()

    def rewind(self) -> None:
        """Start a new step: step buffers are handed out again from the first."""
        self._taken.clear()
        self.arena.peak = self.arena.live

    def values(self) -> list[Array]:
        """Every buffer the pool holds."""
        return [flat for per_key in self._steps.values() for flat, _ in per_key] + self.arena.buffers()

    def stats(self) -> dict[str, int]:
        """Bytes held as step buffers and in the arena, and the most the
        arena had handed out at once since the last rewind."""
        steps = sum(flat.nbytes for per_key in self._steps.values() for flat, _ in per_key)
        arena = sum(flat.nbytes for flat in self.arena.buffers())
        return {"step_bytes": steps, "arena_bytes": arena, "arena_peak_bytes": self.arena.peak}

    def step(self, key, shape: tuple[int, ...], dtype) -> Array:
        """The (``key``, occurrence) buffer's view of ``shape``; it grows only when too small."""
        n = self._taken.get(key, 0)
        self._taken[key] = n + 1
        per_key = self._steps.setdefault(key, [])
        if n == len(per_key):
            per_key.append([np.empty(0, dtype), None])
        slot = per_key[n]
        flat, view = slot
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        size = math.prod(shape)
        if flat.dtype != dtype or flat.size < size:
            flat = slot[0] = np.empty(size, dtype)
        view = slot[1] = flat[:size].reshape(shape)
        return view


@contextmanager
def no_grad():
    """Build no tape inside the block; restores the previous state on exit."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


@contextmanager
def buffer_pool():
    """Open a pool for this thread and yield it; dropped on exit, also by an exception.

    The holder rewinds it once a step's arrays are no longer read (see
    ``train`` and ``impute_span``).  A pool opened inside another leaves
    the outer pool's buffers alone.
    """
    pool = ScratchPool()
    token = _pool.set(pool)
    try:
        yield pool
    finally:
        _pool.reset(token)


def scratch(shape: tuple[int, ...], dtype=np.float64) -> Array:
    """An uninitialized temporary of ``shape`` for one kernel call.

    Inside a pool, one of ``HEAP_ADJOINT_BYTES`` or more is arena memory,
    handed back at the next ``Tensor._make`` or, in ``backward()``, when the
    VJP returns; else a fresh array.  The caller must not return it, keep it
    past the call or make a tape node while it still reads it.
    """
    pool = _pool.get()
    if pool is None or math.prod(shape) * np.dtype(dtype).itemsize < HEAP_ADJOINT_BYTES:
        return np.empty(shape, dtype)
    return pool.arena.take(shape, dtype)


def step_buffer(key, shape: tuple[int, ...], dtype=np.float64, vjp_only: bool = False) -> Array:
    """An uninitialized array a kernel returns or saves for its VJP.

    Inside a pool, the buffer of (``key``, occurrence) since the last
    rewind; elsewhere a fresh array.  ``vjp_only`` arrays are never
    returned: without recording they are ``scratch``.
    """
    if vjp_only and not _recording.get():
        return scratch(shape, dtype)
    pool = _pool.get()
    if pool is None:
        return np.empty(shape, dtype)
    return pool.step(key, shape, dtype)


def adjoint_buffer(shape: tuple[int, ...]) -> Array:
    """An uninitialized float64 array a VJP returns as an adjoint.

    ``scratch`` memory that ``backward()`` keeps, inside a pool, until no
    interior adjoint views it.
    """
    return scratch(shape)


def _adjoint_of(op, operands: tuple, full: tuple[int, ...], shape: tuple[int, ...]) -> Array:
    """``op(*operands)``, of shape ``full``, summed down to a parent's ``shape``.

    A product of the parent's own shape is the adjoint and goes into an
    adjoint buffer; a larger one is scratch that ``_unbroadcast`` sums into
    a fresh array.
    """
    if full == shape:
        return op(*operands, out=adjoint_buffer(shape))
    return _unbroadcast(op(*operands, out=scratch(full)), shape)


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


def sigmoid(x: Array, out: Array | None = None) -> Array:
    """The logistic function ``1 / (1 + exp(-x))``, elementwise.

    Saturates to exactly 0 below about -709.8, where exp(-x) overflows, and
    to exactly 1 above about 37, without a warning; NaN stays NaN.  ``out``
    may be ``x`` itself.
    """
    with np.errstate(over="ignore", under="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


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
        pool = _pool.get()
        if pool is not None:
            pool.arena.settle()  # the kernel that made ``data`` is done with its scratch
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
        shared with other nodes: a second contribution is added in place
        only into a pool adjoint buffer that the node alone views, else out
        of place.  Inside a pool, every adjoint buffer goes back to the
        arena once the last interior adjoint viewing it is consumed.
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
        pool = _pool.get()
        # outside a pool nothing is pooled, so an unshared arena counts nothing
        arena = Arena() if pool is None else pool.arena
        try:
            for node in reversed(topo):
                if node._vjp is None or node.grad is None:
                    continue
                for parent, g in zip(node._parents, node._vjp(node.grad)):
                    if g is None or not parent.requires_grad:
                        continue
                    if parent._vjp is None:  # a leaf
                        if parent.grad is None:
                            parent.grad = np.array(g)  # the leaf's own writable accumulator
                        else:
                            np.add(parent.grad, g, out=parent.grad)
                    elif parent.grad is None:
                        parent.grad = g
                        arena.hold(g)
                    elif arena.alone(parent.grad):
                        np.add(parent.grad, g, out=parent.grad)
                    else:  # g or the adjoint so far may be shared: never write into either
                        total = np.add(parent.grad, g, out=adjoint_buffer(parent.grad.shape))
                        arena.release(parent.grad)
                        parent.grad = total
                        arena.hold(total)
                arena.settle()
                if node is not self:
                    arena.release(node.grad)
                    node.grad = None  # free interior adjoints as soon as consumed
        finally:
            arena.finish()

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
    The output is a step buffer and the adjoints are adjoint buffers.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    shape = batch + (a.shape[-2], b.shape[-1])
    data = np.matmul(a.data, b.data, out=step_buffer("numcore.matmul", shape))

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            full = g.shape[:-1] + (b.shape[-2],)
            operands = (g, np.swapaxes(b.data, -1, -2))
            ga = _adjoint_of(np.matmul, operands, full, a.shape)
        if b.requires_grad and b.ndim == 2:
            operands = (a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))
            gb = np.matmul(*operands, out=adjoint_buffer(b.shape))
        elif b.requires_grad:
            full = g.shape[:-2] + (a.shape[-1], g.shape[-1])
            operands = (np.swapaxes(a.data, -1, -2), g)
            gb = _adjoint_of(np.matmul, operands, full, b.shape)
        return ga, gb

    return Tensor._make(data, (a, b), vjp)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Join along ``axis``; the output is a step buffer, the adjoints views of g."""
    parts = [_wrap(t) for t in tensors]
    datas = [p.data for p in parts]
    shape = list(datas[0].shape)
    shape[axis] = sum(d.shape[axis] for d in datas)
    data = np.concatenate(datas, axis=axis, out=step_buffer("numcore.concat", tuple(shape)))
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
