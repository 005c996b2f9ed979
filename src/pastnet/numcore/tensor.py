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
into an interior node's adjoint: a second contribution is added out of
place, into new scratch, and the sum replaces the adjoint so far.  Leaf
accumulators are written in place; a leaf without one gets a writable copy
of its first contribution.

Layer kernels with hand-written VJPs live next to their models in gim and
cgm (vertex embedding, temporal aggregation, spatial mixing, cross gate),
each one tape node built with ``Tensor._make``.  A kernel with two outputs
(the cross gate's two streams) hands ``_make`` a tuple of arrays and gets
one tensor per output, whose only parent is the kernel's node.
``backward()`` calls no VJP for such an output: it hands the output's
complete adjoint on to the kernel node, which runs its one VJP after all
of its outputs, with one adjoint per output and ``None`` for an output no
consumer reached.  The tape still owns the adjoints it hands on: the VJP
only reads them, and ``backward()`` releases them all when the VJP
returns, as it releases a one-output node's adjoint.  A VJP reads only
its inputs, what its forward pass saved and its own scratch, and writes
only into arrays it allocated or took as scratch in that call, so
``backward()`` can run more than once.

Only the operations the models run are implemented: broadcasting ``+``,
``-`` and ``*`` with a tensor on the left, batched matmul, sums, reshape,
transpose, the row gather ``embedding`` and ``concat``.  There is no
indexing: a reference that needs some rows of a tensor takes them with a
constant selector matmul, such as ``constant(np.eye(L, L + 1)) @ t``.  The
activations exist only inside the fused kernels, which take the logistic
function from ``sigmoid`` below; the composite references the tests
compare them with build their own on ``Tensor._make``.  Gradients flow
only into tensors created with ``requires_grad=True`` or derived from one.

Inside ``with no_grad():`` nothing is recorded: ``Tensor._make`` returns a
plain tensor with no parents and no VJP, so ``backward()`` cannot reach
anything computed there.  A kernel makes the same buffer requests as with
recording on, so what it saves is a step buffer (below) either way, and
its values are the same bits.  A kernel may save nothing but its output
and recompute the rest in its VJP, as cgm's cross gate does; then
``no_grad`` holds no more than its output either.  Inference runs this
way.  The switch is a context variable, so it holds for the current
thread only, and the previous state comes back when the block exits,
also by an exception.

Buffer pool: ``buffer_pool()`` opens one ``ScratchPool`` for the current
thread, in a second context variable, so that kernels reuse buffers instead
of mapping, faulting and unmapping fresh pages every call.  ``train()``
holds one for a run and rewinds it at every optimizer step;
``impute_span()`` holds one for a call and rewinds it before each branch
pass of a window.  Outside any pool every buffer below is a fresh array.  Every buffer
a pool holds is a flat float64 array, handed out as a view of the shape and
dtype asked for, and it serves one of two lifetimes:

- ``step_buffer(shape)`` is what a kernel or a generic ``matmul`` or
  ``concat`` returns, or what a kernel saves for its VJP, valid until the
  pool's next ``rewind()``.  Step buffers go by position: the k-th request
  since the last rewind gets the pool's k-th buffer, which grows only when
  a request is too small for it.  ``train()`` makes the same requests in
  the same order every step, so each request gets the same pages every
  step, and an epoch's smaller last batch views the full batch's.
- ``scratch(shape)`` is call-local: a temporary (a random draw, a relu
  mask, a VJP's intermediates) or an adjoint a VJP returns.  One of
  ``HEAP_ADJOINT_BYTES`` or more is a view of one of the pool's arena
  buffers, a smaller one a plain array.  An arena buffer goes back when the
  next tape node is made (``Tensor._make``, the kernel's own node) or,
  inside ``backward()``, when the VJP returns, unless ``backward()`` keeps
  it as an interior adjoint.  It counts the interior adjoints that view
  each buffer (a reshape, transpose, split piece or broadcast of an adjoint
  views the same buffer) and hands the buffer back when the last of them
  is consumed.

An idle arena buffer serves the next request it fits, as a view; when none
fits, the idle buffers are dropped and a new one is mapped, so the arena
never holds more than it once had in use at the same time.
``ScratchPool.stats()`` reports the step-buffer and arena bytes.

The rules that make reuse safe: a scratch buffer leaves the call that asked
for it only as an adjoint its VJP returns, and that call makes no tape node
while it still reads the buffer; nothing holds a step buffer past the
pool's next rewind.  Who may write an adjoint: the VJP that took it from
``scratch``, until it returns it, and no one after that; ``backward()``
writes only into leaf accumulators.  A VJP never writes into its incoming
adjoint and returns no step buffer (nor a view of one), because
``backward()`` keeps what it returns as interior adjoints and leaf
gradients.
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


def _view(flat: Array, shape: tuple[int, ...], dtype) -> Array:
    """``flat``'s first bytes viewed as an array of ``shape`` and ``dtype``."""
    return flat.view(dtype)[: math.prod(shape)].reshape(shape)


def _float64s(shape: tuple[int, ...], dtype) -> int:
    """How many float64 elements hold an array of ``shape`` and ``dtype``."""
    return -(-math.prod(shape) * np.dtype(dtype).itemsize // 8)


class ScratchPool:
    """One thread's reusable buffers (see the module docstring).

    Every buffer is a flat float64 array, handed out as a view of any shape
    and dtype.  ``steps`` holds the step buffers by position: the k-th
    ``step()`` since the last ``rewind()`` gets ``steps[k]``.  The rest is
    the arena, scratch's memory.  ``idle`` holds the arena buffers nothing
    uses, smallest first.  ``viewed`` maps each handed-out arena buffer to
    the number of interior adjoints the tape holds that view it.  An arena
    buffer goes idle at the next ``settle()`` after it was taken, unless the
    tape keeps a view of it, and then when the last such view is consumed.
    The count decides only when a buffer goes idle: nothing writes into an
    adjoint the tape holds.  ``live`` counts the arena bytes handed out and
    not yet idle, ``peak`` its largest value since the last rewind.
    """

    def __init__(self):
        self.steps: list[Array] = []
        self._next = 0  # position of the next step buffer
        self.idle: list[Array] = []
        self.viewed: dict[int, list] = {}  # id(flat) -> [flat, interior adjoints viewing it]
        self._handed: list[Array] = []  # taken from the arena since the last settle()
        self.live = self.peak = 0

    def rewind(self) -> None:
        """Start a new step: step buffers are handed out again from the first."""
        self._next = 0
        self.peak = self.live

    def arena_buffers(self) -> list[Array]:
        """Every arena buffer, idle or handed out."""
        return self.idle + [flat for flat, _ in self.viewed.values()]

    def stats(self) -> dict[str, int]:
        """Bytes held as step buffers and in the arena, and the most the
        arena had handed out at once since the last rewind."""
        return {
            "step_bytes": sum(flat.nbytes for flat in self.steps),
            "arena_bytes": sum(flat.nbytes for flat in self.arena_buffers()),
            "arena_peak_bytes": self.peak,
        }

    def step(self, shape: tuple[int, ...], dtype=np.float64) -> Array:
        """A view of ``shape`` on the next step buffer; it grows only when too small."""
        size, k = _float64s(shape, dtype), self._next
        self._next += 1
        if k == len(self.steps):
            self.steps.append(np.empty(size))
        elif self.steps[k].size < size:
            self.steps[k] = np.empty(size)
        return _view(self.steps[k], shape, dtype)

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> Array:
        """A view of ``shape`` on the smallest idle arena buffer it fits, or a new one."""
        size = _float64s(shape, dtype)
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
        return _view(flat, shape, dtype)

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
    """An uninitialized array for one kernel call: a temporary or an adjoint its VJP returns.

    Inside a pool, one of ``HEAP_ADJOINT_BYTES`` or more is arena memory,
    handed back at the next ``Tensor._make`` or, in ``backward()``, when the
    VJP returns, unless the tape keeps it as an adjoint; else a fresh array.
    The caller must not keep it past the call or make a tape node while it
    still reads it, and returns it only as a VJP's adjoint.
    """
    pool = _pool.get()
    if pool is None or math.prod(shape) * np.dtype(dtype).itemsize < HEAP_ADJOINT_BYTES:
        return np.empty(shape, dtype)
    return pool.take(shape, dtype)


def step_buffer(shape: tuple[int, ...], dtype=np.float64) -> Array:
    """An uninitialized array a kernel returns or saves for its VJP.

    Inside a pool, a view of the pool's k-th step buffer for the k-th
    request since the last rewind; elsewhere a fresh array.
    """
    pool = _pool.get()
    return np.empty(shape, dtype) if pool is None else pool.step(shape, dtype)


def _adjoint_of(op, operands: tuple, full: tuple[int, ...], shape: tuple[int, ...]) -> Array:
    """``op(*operands)``, of shape ``full``, summed down to a parent's ``shape``.

    A product of the parent's own shape is the adjoint and goes into
    scratch; a larger one is scratch that ``_unbroadcast`` sums into a fresh
    array.
    """
    if full == shape:
        return op(*operands, out=scratch(shape))
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
    adjoints (``None`` for parents that do not need one).  A kernel node
    with several outputs holds no value, and while ``backward()`` runs its
    ``grad`` is the list of its outputs' adjoints; each output's ``_vjp``
    is an ``_Output``.
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
    def _make(data, parents: tuple["Tensor", ...], vjp):
        """The tape node of ``data``, computed from ``parents``.

        ``vjp(g)`` maps the node's adjoint to one adjoint (or ``None``) per
        parent.  ``data`` may instead be a tuple of arrays, a kernel's
        outputs: then one tensor comes back per output, and ``backward()``
        calls ``vjp(g_0, g_1, ...)`` once, with every output's complete
        adjoint, ``None`` for one that no consumer reached.
        """
        pool = _pool.get()
        if pool is not None:
            pool.settle()  # the kernel that made ``data`` is done with its scratch
        several = isinstance(data, tuple)
        if not (_recording.get() and any(p.requires_grad for p in parents)):
            return tuple(Tensor(d) for d in data) if several else Tensor(data)
        node = Tensor(np.empty(0) if several else data, requires_grad=True)
        node._parents = parents
        node._vjp = vjp
        if not several:
            return node
        outs = tuple(Tensor(d, requires_grad=True) for d in data)
        for k, out in enumerate(outs):
            out._parents = (node,)
            out._vjp = _Output(k, len(outs))
        return outs

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``.grad``.

        ``self`` must hold a single element.  Existing leaf accumulators are
        added to in place, so they keep their identity; a leaf without one
        receives a fresh writable array.  Interior adjoints may be views
        shared with other nodes, so none is written: a second contribution
        is added out of place into scratch.  An output of a kernel node
        hands its adjoint on, and the kernel's VJP runs once with every
        output's adjoint.  Inside a pool, every arena buffer goes back once
        the last interior adjoint viewing it is consumed.
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
        # outside a pool nothing is pooled, so an unshared pool counts nothing
        pool = _pool.get() or ScratchPool()
        try:
            for node in reversed(topo):
                if node._vjp is None or node.grad is None:
                    continue
                if type(node._vjp) is _Output:  # hand the adjoint on to the kernel node
                    kernel, k = node._parents[0], node._vjp.index
                    if kernel.grad is None:
                        kernel.grad = [None] * node._vjp.count
                    kernel.grad[k] = node.grad  # the kernel node releases it
                    if node is not self:
                        node.grad = None
                    continue
                adjoints = node.grad if type(node.grad) is list else (node.grad,)
                for parent, g in zip(node._parents, node._vjp(*adjoints)):
                    if g is None or not parent.requires_grad:
                        continue
                    if parent._vjp is None:  # a leaf
                        if parent.grad is None:
                            parent.grad = np.array(g)  # the leaf's own writable accumulator
                        else:
                            np.add(parent.grad, g, out=parent.grad)
                    elif parent.grad is None:
                        parent.grad = g
                        pool.hold(g)
                    else:  # g or the adjoint so far may be shared: never write into either
                        total = np.add(parent.grad, g, out=scratch(parent.grad.shape))
                        pool.release(parent.grad)
                        parent.grad = total
                        pool.hold(total)
                pool.settle()
                if node is not self:
                    for g in adjoints:
                        if g is not None:
                            pool.release(g)
                    node.grad = None  # free interior adjoints as soon as consumed
        finally:
            pool.finish()

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


class _Output:
    """The ``_vjp`` of output ``index`` of a kernel node with ``count`` outputs.

    The output's only parent is the kernel node.  ``backward()`` calls no VJP
    for it: it hands the output's complete adjoint to the kernel node.
    """

    __slots__ = ("index", "count")

    def __init__(self, index: int, count: int):
        self.index, self.count = index, count


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
    The output is a step buffer and the adjoints are scratch.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    shape = batch + (a.shape[-2], b.shape[-1])
    data = np.matmul(a.data, b.data, out=step_buffer(shape))

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            full = g.shape[:-1] + (b.shape[-2],)
            operands = (g, np.swapaxes(b.data, -1, -2))
            ga = _adjoint_of(np.matmul, operands, full, a.shape)
        if b.requires_grad and b.ndim == 2:
            operands = (a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))
            gb = np.matmul(*operands, out=scratch(b.shape))
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
    data = np.concatenate(datas, axis=axis, out=step_buffer(tuple(shape)))
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
