"""Shared checks for the fused layer kernels of gim and cgm.

A kernel is one tape node, with one or two outputs, and a hand-written
VJP.  ``check_kernel`` compares it with a composite reference built from
numcore primitives: the forward values and every parent adjoint must agree
to 1e-12.  It also runs a finite-difference check through the kernel,
hands it the read-only broadcast adjoint that ``sum()`` produces, and
backpropagates twice through one graph, which must give the same gradients
both times.

The composite references use operations the library does not run: the four
activations, division, ``mean`` and ``broadcast_to``.  They are defined here
as plain tape nodes on ``Tensor._make``, each with its own numpy VJP.

``build_temporal_adjacency`` (one graph) and ``_batch_temporal_adjacency``
(a stack) build the dense (L+1, L+1) adjacency of gim's per-node graphs,
and ``_batch_interval_dropout`` removes from it the edges gim's dropout
draws: the dense references of the temporal kernel.

``poison_returned_buffers`` makes a read of a pool buffer after it was
handed back change the result.  ``param_arrays`` and ``pool_buffers`` read
a parameter store's values and a pool's buffers.
"""
import numpy as np

from pastnet.gim import interval_dropout_mask
from pastnet.numcore import ParamStore, Tensor, constant, grad_check
from pastnet.numcore.tensor import ScratchPool, _unbroadcast

TOL = 1e-12


def divide(a: Tensor, b) -> Tensor:
    """a / b with numpy broadcasting."""
    b = constant(b)
    data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = _unbroadcast(-g * data / b.data, b.data.shape)
        return ga, gb

    return Tensor._make(data, (a, b), vjp)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return a.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = np.broadcast_to(a.data, shape)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape),)

    return Tensor._make(data, (a,), vjp)


def relu(x: Tensor) -> Tensor:
    x = constant(x)
    data = np.maximum(x.data, 0.0)
    positive = x.data > 0

    def vjp(g):
        return (g * positive,)

    return Tensor._make(data, (x,), vjp)


def logistic(x):
    """1 / (1 + e^-x) as (1 + tanh(x/2)) / 2: the library computes it from
    exp, so the reference takes another formula; finite for every x."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x)))


def sigmoid(x: Tensor) -> Tensor:
    x = constant(x)
    s = logistic(x.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return Tensor._make(s, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    x = constant(x)
    y = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return Tensor._make(y, (x,), vjp)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x) computed as logaddexp(0, x); stays finite and positive
    across the whole float64 range instead of overflowing past x ~ 700."""
    x = constant(x)
    data = np.logaddexp(0.0, x.data)
    s = logistic(x.data)

    def vjp(g):
        return (g * s,)

    return Tensor._make(data, (x,), vjp)


def vertex_embedding_reference(xz, m, w, b, mask_token) -> Tensor:
    """gim's vertex embedding as the five numcore products and sums it was."""
    return constant(m) * (constant(xz) * w + b) + constant(1.0 - m) * mask_token


def build_temporal_adjacency(mask_column: np.ndarray, include_injection: bool = True) -> np.ndarray:
    """Adjacency mask of one node-window graph; entry (i, j) = edge j -> i.

    Row/column L is the injection vertex: no incoming edges, outgoing to
    every data vertex when enabled.  Data vertex j emits edges only while
    observed, so column j of the data block equals mask[j] off-diagonal.
    The model never builds this matrix (gim's ``temporal_forward`` applies
    the rule directly); it is the rule's dense reference.
    """
    col = np.asarray(mask_column, dtype=np.float64)
    if col.ndim != 1:
        raise ValueError("mask_column must be 1-d")
    if not np.all((col == 0.0) | (col == 1.0)):
        raise ValueError("mask_column entries must be 0 or 1")
    return _batch_temporal_adjacency(col[None, :], include_injection)[0]


def _batch_temporal_adjacency(columns: np.ndarray, include_injection: bool) -> np.ndarray:
    """Stacked dense adjacency masks for (G, L) mask columns -> (G, L+1, L+1)."""
    G, L = columns.shape
    adj = np.zeros((G, L + 1, L + 1))
    adj[:, :L, :L] = columns[:, None, :]
    idx = np.arange(L)
    adj[:, idx, idx] = 0.0
    if include_injection:
        adj[:, :L, L] = 1.0
    return adj


def _batch_interval_dropout(
    adj: np.ndarray, columns: np.ndarray, alpha: float, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Dense reference: a copy of ``adj`` without the edges sampled for (G, L) columns."""
    out = adj.copy()
    L = columns.shape[1]
    out[:, :L, :L][interval_dropout_mask(columns.T, alpha, beta, rng)] = 0.0
    return out


def _outputs(fn, tensors) -> tuple:
    out = fn(*tensors)
    return out if isinstance(out, tuple) else (out,)


def _weighted_sum(outs, cotangents=None) -> Tensor:
    """sum(out_i * c_i), or sum(out_i) when no cotangents are given."""
    terms = [o.sum() for o in outs] if cotangents is None else [
        (o * c).sum() for o, c in zip(outs, cotangents)
    ]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _values_and_grads(fn, arrays, cotangents=None):
    """Forward values of fn and the adjoints of its weighted sum for its inputs."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    outs = _outputs(fn, tensors)
    _weighted_sum(outs, cotangents).backward()
    return [o.data for o in outs], [t.grad for t in tensors]


def _assert_close(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=TOL, atol=TOL), np.max(np.abs(a - b))


def check_kernel(kernel, reference, arrays, seed=0, fd_tol=1e-6):
    """Run every check on ``kernel`` against ``reference``.

    Both take one tensor per entry of ``arrays`` (every one differentiable)
    and return a tensor or a tuple of tensors.
    """
    rng = np.random.default_rng(seed)
    ref_outs = _outputs(reference, [Tensor(a) for a in arrays])
    cotangents = [rng.normal(size=o.shape) for o in ref_outs]

    # forward values and parent adjoints against the composite reference
    got_vals, got_grads = _values_and_grads(kernel, arrays, cotangents)
    ref_vals, ref_grads = _values_and_grads(reference, arrays, cotangents)
    _assert_close(got_vals, ref_vals)
    _assert_close(got_grads, ref_grads)

    # out.sum() hands each kernel node a read-only np.broadcast_to adjoint
    _assert_close(_values_and_grads(kernel, arrays)[1], _values_and_grads(reference, arrays)[1])

    # two backward passes through one graph: the VJPs must leave saved arrays intact
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    outs = _outputs(kernel, tensors)
    _weighted_sum(outs, cotangents).backward()
    first = [t.grad for t in tensors]
    for t in tensors:
        t.grad = None
    _weighted_sum(outs, cotangents).backward()
    for t, g in zip(tensors, first):
        assert np.array_equal(g + t.grad, 2.0 * g)

    # central differences through the kernel
    store = ParamStore(seed=0)
    names = [f"in{i}" for i in range(len(arrays))]
    for name, a in zip(names, arrays):
        store.add(name, a.shape).data[...] = a

    def loss_fn(params):
        return _weighted_sum(_outputs(kernel, [params[n] for n in names]), cotangents)

    assert grad_check(loss_fn, store, n_samples=64) < fd_tol


def param_arrays(params: ParamStore) -> dict[str, np.ndarray]:
    """Each parameter's values by path: the store's own arrays, not copies."""
    return {p: t.data for p, t in params.items()}


def pool_buffers(pool: ScratchPool) -> list[np.ndarray]:
    """Every buffer the pool holds: its step buffers, then its arena."""
    return pool.steps + pool.arena_buffers()


def _poison(view: np.ndarray, flat: np.ndarray) -> None:
    if view.dtype == bool:
        np.logical_not(view, out=view)
    else:
        flat.fill(np.nan)


def poison_returned_buffers(monkeypatch) -> None:
    """From now on, overwrite every arena buffer as it is handed back and
    every step buffer as its pool rewinds: NaN, or for a bool view its
    negation, so that any later read of one changes what it computes."""
    real_take, real_idle, real_rewind = ScratchPool.take, ScratchPool._idle, ScratchPool.rewind
    views = {}  # id(flat) -> the view last handed out on it

    def take(pool, shape, dtype=np.float64):
        view = real_take(pool, shape, dtype)
        views[id(view.base)] = view
        return view

    def idle(pool, flat):
        _poison(views.pop(id(flat)), flat)
        real_idle(pool, flat)

    def rewind(pool):
        for flat in pool_buffers(pool):  # nothing is read across a rewind
            _poison(flat, flat)
        real_rewind(pool)

    monkeypatch.setattr(ScratchPool, "take", take)
    monkeypatch.setattr(ScratchPool, "_idle", idle)
    monkeypatch.setattr(ScratchPool, "rewind", rewind)
