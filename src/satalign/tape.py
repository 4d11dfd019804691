"""Reverse-mode automatic differentiation over dense float64 arrays.

Every computation is recorded on an explicit :class:`Tape`: an ordered list
of nodes, each holding an op kind, the ids of its input nodes, and the value
computed for it. Ops evaluate eagerly as the graph is built (so shape errors
surface at the call site), and a finished tape is differentiated with
:func:`backward`. A node's value is written once, when it is recorded; a
replay (:func:`_evaluate`, which the gradient check runs with perturbed
leaves) returns new values and leaves the tape as it was. Input shapes are
checked once, at recording; a replay, whose leaf overrides keep the recorded
shapes, runs each op's arithmetic alone.

A batched replay runs P replays at once. Each override stacks P copies of its
leaf on a new leading axis, and the nodes that depend on it carry that axis
through the same forward kernels that record the tape: matmul runs stacked
per-matrix GEMMs, conv_block per-tile GEMMs broadcast over the leading axes,
add and mul line a batched operand of lower rank up with its own row, and the
reductions run over trailing axes. Row p of every value has the bits an
unbatched replay of row p computes.

:func:`backward` computes only the gradients some trainable leaf needs: a
node whose inputs reach no trainable leaf gets no vector-Jacobian product,
and a conv_block or matmul skips the input gradients nothing upstream uses
(the conv kernel gradient under a frozen kernel, the gradient into the pixel
leaves). The tape records only what a gradient step differentiates; the
frozen encoder records none.

The op set is the model's and no more: dense matmul, broadcasting add/mul,
relu, the conv stage (conv_block), global average pooling, row
L2-normalization, log-sum-exp and sum. Everything runs in float64.

A conv_block is one conv stage as one node: a strided 2-D convolution
(:func:`conv_gemm`, which the frozen encoder runs too), per-channel scale-shift
normalization with the batch's mean and variance, then relu. Its value is
the relu output; it also keeps the batch (mean, var), which the
running-statistics update reads, and the normalized activation `xhat`, which
its backward reads. Its per-tile work, the padding, patch columns, GEMMs,
col2im and the norm's and relu's elementwise passes, runs on the sub-slices of
:func:`run_sub_slices`, the one split of every conv stage, recorded, replayed
or frozen. The caller sums the sub-slices' per-tile sums over tiles into the
batch statistics and the scale and shift gradients, and runs the one
kernel-gradient GEMM over the (c*kh*kw, n*oh*ow) patch columns.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

NORM_EPS = 1e-12

# Tiles per sub-slice of every conv stage, frozen or training, so a worker's
# conv buffers (116 and 132 KB per tile for the default model on 32 px tiles)
# fit in its core's 2 MB L2 cache. On 1,024 such tiles (2 vCPUs, two workers,
# one BLAS thread, medians of 30 calls in 6 processes) frozen-encoder
# sub-slices of 4, 8 and 16 tiles took 94, 72 and 68 ms per call; 16 would
# double the buffers for a gain inside the noise. On one CPU, 8 and 16 took
# 76.8 and 76.2 ms (12 alternating calls). The bits do not depend on it.
SUB_SLICE_TILES = 8
ENCODE_WORKERS = 2  # most threads one call runs on, the caller's included


class RowNormError(ValueError):
    """A row whose norm cannot scale it to unit length: `row` is its index in
    the matrix given, and `problem` says why ("non-finite" or "degenerate")."""

    def __init__(self, message: str, row: int, problem: str):
        super().__init__(message)
        self.row = row
        self.problem = problem


def row_norms(m: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """The Euclidean norm of each row of a 2-D float64 matrix, as
    l2_normalize_rows divides by it. `squares`, if given, is a buffer of m's
    shape that takes m * m in place of a fresh temporary.

    A norm that is not finite or is <= NORM_EPS raises a RowNormError naming
    the row.
    """
    norms = np.sqrt(np.add.reduce(np.multiply(m, m, out=squares), axis=1))
    # a NaN fails both comparisons, so one min/max test clears every row
    if norms.size and not (np.minimum.reduce(norms) > NORM_EPS
                           and np.maximum.reduce(norms) < np.inf):
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            row = int(bad[0])
            raise RowNormError(f"embedding row {row} has a non-finite norm", row, "non-finite")
        row = int(np.flatnonzero(norms <= NORM_EPS)[0])
        raise RowNormError(f"degenerate embedding row {row}", row, "degenerate")
    return norms


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row of a 2-D matrix to unit Euclidean norm.

    Rows whose norm is not finite or is <= NORM_EPS cannot be normalized and
    raise a RowNormError, identifying the offending row.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"l2_normalize_rows expects a 2-D matrix, got shape {m.shape}")
    return m / row_norms(m)[:, None]


class Node:
    """One recorded operation: op kind, input node ids, and its value.

    A conv_block also keeps `batch_stats`, the (mean, var) pair its value was
    normalized with, and `xhat`, the normalized conv output before the scale,
    shift and relu. All three are set once, by :meth:`Tape._op`, when the
    node is recorded.
    """

    __slots__ = ("idx", "op", "inputs", "value", "name", "trainable", "attrs", "batch_stats",
                 "xhat")

    def __init__(self, idx, op, inputs, value, name=None, trainable=False, attrs=None):
        self.idx = idx
        self.op = op
        self.inputs = inputs
        self.value = value
        self.name = name
        self.trainable = trainable
        self.attrs = attrs or {}
        self.batch_stats = None
        self.xhat = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Node({self.idx}, {self.op}{tag}, shape={tuple(self.value.shape)})"


class Tape:
    """Ordered, replayable record of a computation.

    Nodes are appended in construction order, so inputs always precede their
    consumers. Named leaves are the only override points for replay; consts
    are frozen.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.outputs: dict[str, int] = {}
        self._leaf_ids: dict[str, int] = {}

    # -- graph construction ------------------------------------------------

    def leaf(self, name: str, value, trainable: bool = False) -> Node:
        if name in self._leaf_ids:
            raise ValueError(f"duplicate leaf name {name!r}")
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite values in leaf {name!r}")
        node = self._append("leaf", [], value, name=name, trainable=trainable)
        self._leaf_ids[name] = node.idx
        return node

    def const(self, value) -> Node:
        return self._append("const", [], np.asarray(value, dtype=np.float64))

    def add(self, a: Node, b: Node) -> Node:
        return self._op("add", [a, b])

    def mul(self, a: Node, b: Node) -> Node:
        return self._op("mul", [a, b])

    def matmul(self, a: Node, b: Node, trans_b: bool = False) -> Node:
        return self._op("matmul", [a, b], trans_b=trans_b)

    def relu(self, a: Node) -> Node:
        return self._op("relu", [a])

    def conv_block(self, x: Node, kernel: Node, gamma: Node, beta: Node, stride: int = 1,
                   padding: int = 0, eps: float = 1e-5) -> Node:
        """relu(gamma * xhat + beta), where xhat is the strided convolution of
        x with kernel, normalized with the batch's per-channel mean and
        variance."""
        if stride < 1 or padding < 0:
            raise ValueError(f"invalid conv_block stride={stride} padding={padding}")
        return self._op("conv_block", [x, kernel, gamma, beta], stride=stride, padding=padding,
                        eps=eps)

    def global_avg_pool(self, x: Node) -> Node:
        return self._op("global_avg_pool", [x])

    def l2norm_rows(self, a: Node) -> Node:
        return self._op("l2norm_rows", [a])

    def logsumexp(self, a: Node, axis: int) -> Node:
        return self._op("logsumexp", [a], axis=axis)

    def sum(self, a: Node, axis: int | None = None) -> Node:
        return self._op("sum", [a], axis=axis)

    def mark_output(self, name: str, node: Node) -> None:
        self.outputs[name] = node.idx

    # -- access ------------------------------------------------------------

    def leaf_value(self, name: str) -> np.ndarray:
        return self.nodes[self._leaf_ids[name]].value

    def leaf_names(self, trainable_only: bool = False) -> list[str]:
        names = []
        for name, idx in self._leaf_ids.items():
            if not trainable_only or self.nodes[idx].trainable:
                names.append(name)
        return names

    def output_value(self, name: str) -> np.ndarray:
        return self.nodes[self.outputs[name]].value

    # -- internals ---------------------------------------------------------

    def _append(self, op, inputs, value, name=None, trainable=False, attrs=None):
        node = Node(len(self.nodes), op, inputs, value, name, trainable, attrs)
        self.nodes.append(node)
        return node

    def _op(self, op, input_nodes, **attrs):
        ids = []
        for n in input_nodes:
            if not isinstance(n, Node) or self.nodes[n.idx] is not n:
                raise ValueError(f"op {op!r} received an input that is not on this tape")
            ids.append(n.idx)
        node = Node(len(self.nodes), op, ids, None, attrs=attrs)
        vals = [self.nodes[i].value for i in ids]
        _check_shapes(node, vals)
        node.value = _compute(node, vals, record=True)
        self.nodes.append(node)
        return node


# -- forward kernels -------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def conv_size(size: int, kernel: int, stride: int, padding: int = 0) -> int:
    """Output length of a convolution along one axis of `size` pixels."""
    return (size + 2 * padding - kernel) // stride + 1


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int,
            cols: np.ndarray) -> None:
    """Patch columns of a padded (..., c, H, W) batch, written into `cols`: a
    (..., c, kh, kw, oh, ow) array or view.

    One copy from a strided view of `xp` whose entry (..., ch, i, j, y, x) is
    xp[..., ch, i + stride*y, j + stride*x]. The view is built by the ndarray
    constructor, which checks that it stays inside `xp`'s buffer and, unlike
    `as_strided`, makes no Python-level wrapper objects per call.
    """
    xp = np.ascontiguousarray(xp)  # the constructor views a contiguous buffer
    patches = np.ndarray((*xp.shape[:-2], kh, kw, oh, ow), xp.dtype, xp, 0,
                         (*xp.strides, stride * xp.strides[-2], stride * xp.strides[-1]))
    np.copyto(cols, patches)


def conv_gemm(xp: np.ndarray, kernel: np.ndarray, stride: int, cols: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """The strided convolution of a zero-padded (..., c, H, W) batch with an
    (f, c, kh, kw) kernel, or with (P, f, c, kh, kw) stacked kernels that
    broadcast over the batch's leading axes but the last, written into and
    returned as `out`, (..., f, oh, ow).

    One GEMM per tile, the kernel matrix times the tile's patch columns, so no
    tile's bits depend on another tile. `cols`, (..., c, kh, kw, oh, ow), and
    `out` are C-ordered buffers that take the columns and the product.
    """
    (*lead, _, _, _), (f, c, kh, kw), (oh, ow) = xp.shape, kernel.shape[-4:], out.shape[-2:]
    _im2col(xp, kh, kw, stride, oh, ow, cols)
    np.matmul(kernel.reshape(*kernel.shape[:-4], 1, f, c * kh * kw),
              cols.reshape(*lead, c * kh * kw, oh * ow), out=out.reshape(*out.shape[:-2], oh * ow))
    return out


def _serve(inbox: queue.SimpleQueue) -> None:
    """A pool worker: runs each (run, j, done) handed to it, then reports on done."""
    while True:
        run, j, done = inbox.get()
        try:
            run(j)
        finally:
            run = None  # so the call's buffers go with the call
            done.put(j)


def _new_pool() -> None:  # also in a forked child, which has none of the workers
    global _pool, _pool_busy
    _pool, _pool_busy = [], threading.Lock()  # worker j's inbox is _pool[j - 1]


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def run_sub_slices(n: int, buffers, work, step: int = SUB_SLICE_TILES) -> None:
    """Call work(bufs, start, stop) for each sub-slice [start, stop) of
    range(n), `step` long but the last: SUB_SLICE_TILES tiles for every conv
    stage, INDEX_SLAB_ROWS rows for a file-backed index's cosines. More than
    one sub-slice runs on min(ENCODE_WORKERS, usable CPUs, sub-slices)
    workers, the caller one of them: worker j gets bufs = buffers(m) (None
    without `buffers`), allocated on the caller before any work starts, for
    its first sub-slice, j, of m rows, then claims each next unclaimed one.
    When work writes only through its buffers and into its own rows of the
    caller's outputs, the bits depend on neither the split nor the worker
    count. Once all workers have stopped, the caller raises the error of the
    first sub-slice in range order that raised one: sub-slices are claimed in
    that order, none is claimed after an error, and every claimed one runs.
    The other workers are daemon threads kept across calls, each started when
    a call first needs it; while one call holds them, a call from another
    thread runs alone."""
    if n <= step:  # one sub-slice, or none, runs on the caller
        if n:
            work(buffers and buffers(n), 0, n)
        return
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    busy = _pool_busy.acquire(blocking=False)  # else another thread's call holds the pool
    workers = min(ENCODE_WORKERS, cpus or 1, -(-n // step)) if busy else 1
    lock, unclaimed, errors, done, handed = (threading.Lock(), iter(range(workers * step, n, step)),
                                             [], queue.SimpleQueue(), 0)

    def run(j):
        start = j * step
        while start is not None:
            try:
                work(per_worker[j], start, min(start + step, n))
            except Exception as e:  # raised on the caller
                errors.append((start, e))
            with lock:
                start = None if errors else next(unclaimed, None)

    try:
        per_worker = [buffers and buffers(min(step, n - j * step)) for j in range(workers)]
        for j in range(1, workers):
            if len(_pool) < j:
                inbox = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(inbox,), daemon=True).start()
                _pool.append(inbox)
            _pool[j - 1].put((run, j, done))
            handed += 1
        run(0)
    finally:
        for _ in range(handed):
            done.get()
        if busy:
            _pool_busy.release()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def _check_shapes(node: Node, vals: list[np.ndarray]) -> None:
    """Reject input shapes that do not fit the node's op, naming the node.

    Runs once, when the node is recorded. A replay overrides leaves only with
    arrays of their recorded shapes, or rows of them (see :func:`_evaluate`),
    so every node is recomputed from inputs of the shapes checked here. add
    and mul are checked by numpy's broadcasting inside :func:`_compute`.
    """
    op = node.op
    if op == "matmul":
        a, b = vals
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul at node {node.idx}: expects 2-D operands, "
                             f"got {a.shape} and {b.shape}")
        bt = b.T if node.attrs["trans_b"] else b
        if a.shape[1] != bt.shape[0]:
            raise ValueError(f"matmul shape mismatch at node {node.idx}: "
                             f"{a.shape} @ {bt.shape}")
    elif op == "conv_block":
        x, k, gamma, beta = vals
        if x.ndim != 4 or k.ndim != 4:
            raise ValueError(f"conv_block at node {node.idx} needs 4-D input and kernel, "
                             f"got {x.shape} and {k.shape}")
        if k.shape[1] != x.shape[1]:
            raise ValueError(f"conv_block at node {node.idx}: kernel expects {k.shape[1]} "
                             f"channels, input has {x.shape[1]}")
        s, p = node.attrs["stride"], node.attrs["padding"]
        if min(conv_size(x.shape[i], k.shape[i], s, p) for i in (2, 3)) < 1:
            raise ValueError(f"conv_block at node {node.idx}: kernel {k.shape[2]}x{k.shape[3]} "
                             f"too large for input {x.shape[2]}x{x.shape[3]} with padding {p}")
        if gamma.shape != (k.shape[0],) or beta.shape != (k.shape[0],):
            raise ValueError(f"conv_block at node {node.idx}: scale/shift must have "
                             f"shape ({k.shape[0]},)")
    elif op == "global_avg_pool":
        if vals[0].ndim != 4:
            raise ValueError(f"global_avg_pool at node {node.idx}: expects 4-D input, "
                             f"got {vals[0].shape}")


def _broadcast_batched(vals: list[np.ndarray], batched: list[bool]) -> list[np.ndarray]:
    """Operands of add or mul with a singleton axis inserted after the
    perturbation axis of each batched operand of lower rank than the op's
    recorded result, so broadcasting pairs it with its own row."""
    rank = max(v.ndim - b for v, b in zip(vals, batched))
    return [v.reshape(v.shape[:1] + (1,) * (rank + 1 - v.ndim) + v.shape[1:]) if b else v
            for v, b in zip(vals, batched)]


def _channel_vector(v: np.ndarray, batched: bool) -> np.ndarray:
    """A (C,) vector, or (P, C) rows of them, shaped to broadcast over
    (N, C, H, W), or over (P, N, C, H, W) row by row."""
    return v.reshape(v.shape[0], 1, -1, 1, 1) if batched else v[:, None, None]


def _conv_block_conv(x: np.ndarray, k: np.ndarray, s: int,
                     p: int) -> tuple[np.ndarray, np.ndarray]:
    """A conv_block's convolution h, conv_gemm on each sub-slice of tiles into
    its rows of h, and each tile's per-channel spatial sums into its rows of
    `sums`, (..., n, f). A batched replay's P rows ride along in each."""
    (*lead, n, c, height, width), (f, _, kh, kw) = x.shape, k.shape[-4:]
    oh, ow = conv_size(height, kh, s, p), conv_size(width, kw, s, p)
    rows = (slice(None),) * len(lead)  # a batched x's P rows, whole

    def buffers(m):  # conv_gemm's padded input and patch columns for m tiles
        return (np.zeros((*lead, m, c, height + 2 * p, width + 2 * p)),
                np.empty((*lead, m, c, kh, kw, oh, ow)))

    def conv(bufs, start, stop):
        xp, cols = (buf[(*rows, slice(stop - start))] for buf in bufs)
        xp[..., p:p + height, p:p + width] = x[..., start:stop, :, :, :]
        out = conv_gemm(xp, k, s, cols, h[..., start:stop, :, :, :])
        np.add.reduce(out, axis=(-2, -1), out=sums[..., start:stop, :])

    h = np.empty((*(tuple(lead) or k.shape[:-4]), n, f, oh, ow))
    sums = np.empty(h.shape[:-2])
    run_sub_slices(n, buffers, conv)
    return h, sums


def _conv_block_conv_grads(x: np.ndarray, k: np.ndarray, g: np.ndarray, xhat: np.ndarray,
                           norm: list[np.ndarray], s: int, p: int,
                           wanted: list[bool]) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The wanted gradients (dx, dk) of a conv_block's convolution. Each
    sub-slice writes its columns of g_t, the conv output gradient laid out
    (f, n*oh*ow) like the patch columns, from its rows of g, the relu-masked
    output gradient: scale * (g - mean(g) - xhat * mean(g * xhat)), `norm`
    holding (mean(g), mean(g * xhat), scale) as (f, 1) columns. Its padding,
    patch columns, input-column GEMM and col2im then run in its worker's
    buffers; the kernel gradient is one GEMM over the whole batch's columns."""
    (n, c, height, width), (f, _, kh, kw) = x.shape, k.shape
    oh, ow = conv_size(height, kh, s, p), conv_size(width, kw, s, p)
    ckk, o = c * kh * kw, oh * ow
    cols = np.empty((c, kh, kw, n, oh, ow)) if wanted[1] else None
    dx = np.empty(x.shape) if wanted[0] else None
    g_t = np.empty((f, n * o))

    def buffers(m):  # padded input, input-column gradient, padded input gradient
        return (np.zeros((m, c, height + 2 * p, width + 2 * p)), np.empty((ckk, m * o)),
                np.empty((m, c, height + 2 * p, width + 2 * p)))

    def conv_grads(bufs, start, stop):
        b = stop - start
        xp, dxp, gr = bufs[0][:b], bufs[2][:b], g[start:stop].reshape(b, f, o)
        g_cols = g_t.reshape(f, n, o)[:, start:stop].swapaxes(0, 1)  # (b, f, o)
        gr -= norm[0]
        np.multiply(xhat[start:stop].reshape(b, f, o), norm[1], out=g_cols)
        np.subtract(gr, g_cols, out=g_cols)
        g_cols *= norm[2]
        if wanted[1]:
            xp[:, :, p:p + height, p:p + width] = x[start:stop]
            _im2col(xp, kh, kw, s, oh, ow, cols.transpose(3, 0, 1, 2, 4, 5)[start:stop])
        if wanted[0]:
            d = np.matmul(k.reshape(f, ckk).T, g_t[:, start * o:stop * o],
                          out=bufs[1][:, :b * o]).reshape(c, kh, kw, b, oh, ow)
            dxp.fill(0.0)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += d[:, i, j].swapaxes(0, 1)
            dx[start:stop] = dxp[:, :, p:p + height, p:p + width]

    run_sub_slices(n, buffers, conv_grads)
    dk = (g_t @ cols.reshape(ckk, n * o).T).reshape(k.shape) if wanted[1] else None
    return dx, dk


def _compute(node: Node, vals: list[np.ndarray], record: bool = False,
             batched: list[bool] | None = None) -> np.ndarray:
    """Value of `node` from its input values, whose shapes
    :func:`_check_shapes` accepted when the node was recorded. When recording
    (`record`), a conv_block also sets the node's `batch_stats` and `xhat`.

    In a batched replay, `batched[i]` says that input i carries a leading
    perturbation axis of P rows, each of its recorded shape. The value then
    carries that axis too, and row p holds, bit for bit, the value computed
    from row p of every batched input: matmul and conv_block run the same
    per-matrix GEMMs, elementwise ops the same IEEE operations, and
    reductions run over the trailing axes in the same order.

    Reductions call their ufunc's `reduce` directly and divide by the count
    for a mean: the summation order, and so every bit, of `np.sum`,
    `np.mean` and `np.max`, without their Python wrappers.
    """
    op = node.op
    if op == "add" or op == "mul":
        a, b = vals if batched is None else _broadcast_batched(vals, batched)
        try:
            return a + b if op == "add" else a * b
        except ValueError:
            raise ValueError(f"{op} shape mismatch at node {node.idx}: {a.shape} vs {b.shape}")
    if op == "matmul":
        a, b = vals
        return a @ (b.swapaxes(-1, -2) if node.attrs["trans_b"] else b)
    if op == "relu":
        return np.maximum(vals[0], 0.0)
    if op == "conv_block":
        x, k, gamma, beta = vals
        gamma_rows, beta_rows = (batched or (False,) * 4)[2:]
        h, sums = _conv_block_conv(x, k, node.attrs["stride"], node.attrs["padding"])
        # per-channel batch statistics over (n, H, W), each a tile-axis sum of
        # per-tile sums: the bits of one whole-batch reduce. h's buffer holds
        # the square, then the value
        n, count = h.shape[-4], h.shape[-4] * h.shape[-2] * h.shape[-1]
        mean = np.add.reduce(sums, axis=-2)[..., None, :, None, None] / count
        xhat = np.empty(h.shape)

        def center(_, start, stop):  # xhat's rows, and their squares' per-tile sums
            rows, xhat_rows = h[..., start:stop, :, :, :], xhat[..., start:stop, :, :, :]
            np.subtract(rows, mean, out=xhat_rows)
            np.add.reduce(np.multiply(xhat_rows, xhat_rows, out=rows), axis=(-2, -1),
                          out=sums[..., start:stop, :])

        run_sub_slices(n, None, center)
        var = np.add.reduce(sums, axis=-2)[..., None, :, None, None] / count
        inv = 1.0 / np.sqrt(var + node.attrs["eps"])
        if record:
            node.batch_stats = (mean.reshape(-1), var.reshape(-1))
            node.xhat = xhat
        if h.ndim == 4 and (gamma_rows or beta_rows):  # only the scale or shift has rows
            h = np.empty(((gamma if gamma_rows else beta).shape[0], *h.shape))
        scale, shift = _channel_vector(gamma, gamma_rows), _channel_vector(beta, beta_rows)

        def affine(_, start, stop):  # xhat's rows scaled, then the value's rows
            rows, xhat_rows = h[..., start:stop, :, :, :], xhat[..., start:stop, :, :, :]
            xhat_rows *= inv
            np.multiply(xhat_rows, scale, out=rows)
            rows += shift
            np.maximum(rows, 0.0, out=rows)

        run_sub_slices(n, None, affine)
        return h
    if op == "global_avg_pool":
        x = vals[0]
        out = np.add.reduce(x, axis=(-2, -1))
        out /= x.shape[-2] * x.shape[-1]
        return out
    if op == "l2norm_rows":
        x = vals[0]
        return l2_normalize_rows(x.reshape(-1, x.shape[-1])).reshape(x.shape)
    if op == "logsumexp":
        x, axis = vals[0], node.attrs["axis"]
        if batched and axis >= 0:
            axis += 1  # past the perturbation axis
        m = np.maximum.reduce(x, axis=axis, keepdims=True)
        e = x - m
        np.exp(e, out=e)
        out = np.add.reduce(e, axis=axis, keepdims=True)
        np.log(out, out=out)
        out += m
        return out.squeeze(axis)
    if op == "sum":
        x, axis = vals[0], node.attrs["axis"]
        if batched and axis is None:
            axis = tuple(range(1, x.ndim))  # all but the perturbation axis
        elif batched and axis >= 0:
            axis += 1
        return np.asarray(np.add.reduce(x, axis=axis))
    raise ValueError(f"unsupported op kind {op!r} at node {node.idx}")


# -- replay and differentiation ---------------------------------------------


def replay_schedule(tape: Tape, leaf: str, output: int) -> list[Node]:
    """Nodes a replay must recompute when only `leaf` changes.

    One forward scan in tape order collects the leaf and every node that
    depends on it, stopping at node `output`. The schedule is empty when
    `output` does not depend on the leaf. Every node left out sees the inputs
    it was recorded with, so its recorded value is what a full replay would
    recompute.
    """
    start = tape._leaf_ids[leaf]
    if start > output:
        return []
    dirty = [False] * (output + 1)
    dirty[start] = True
    schedule = [tape.nodes[start]]
    for node in tape.nodes[start + 1:output + 1]:
        if any(dirty[i] for i in node.inputs):
            dirty[node.idx] = True
            schedule.append(node)
    return schedule if dirty[output] else []


def _evaluate(tape: Tape, overrides: dict[str, np.ndarray] | None,
              nodes: list[Node] | None = None, batched: bool = False) -> list[np.ndarray]:
    """Values of every node with the named leaves overridden: a replay.

    By default every node is recomputed. Given `nodes`, a schedule in tape
    order such as :func:`replay_schedule` returns, only those nodes are
    recomputed and all others keep their recorded values. No node is
    written, so the tape still differentiates what it recorded.

    A batched replay (`batched=True`) runs P replays at once: each override
    holds P rows of its leaf's recorded shape, stacked on a new leading axis,
    and every node that depends on an override carries that axis too. Row p
    of each value is, bit for bit, what an unbatched replay of row p of each
    override computes; nodes that depend on no override keep one unbatched
    value.
    """
    values = [node.value for node in tape.nodes]
    carries = [False] * len(values)  # which values have the perturbation axis
    rows = None
    for name, v in (overrides or {}).items():
        idx = tape._leaf_ids.get(name)
        if idx is None:
            unknown = sorted(n for n in overrides if n not in tape._leaf_ids)
            raise ValueError(f"unknown leaf names in replay: {unknown}")
        v = np.asarray(v, dtype=np.float64)
        shape = values[idx].shape
        if batched:
            if v.ndim == 0 or v.shape[1:] != shape:
                raise ValueError(f"leaf {name!r} expects rows of shape {shape}, got {v.shape}")
            rows = v.shape[0] if rows is None else rows
            if v.shape[0] != rows:
                raise ValueError(f"leaf {name!r} has {v.shape[0]} rows, another override {rows}")
        elif v.shape != shape:
            raise ValueError(f"leaf {name!r} expects shape {shape}, got {v.shape}")
        values[idx] = v
        carries[idx] = batched
    for node in tape.nodes if nodes is None else nodes:
        if node.op in ("leaf", "const"):
            continue
        flags = [carries[i] for i in node.inputs]
        if any(flags):
            values[node.idx] = _compute(node, [values[i] for i in node.inputs], batched=flags)
            carries[node.idx] = True
        else:
            values[node.idx] = _compute(node, [values[i] for i in node.inputs])
    return values


def _resolve_output(tape: Tape, output: str | None) -> int:
    if output is not None:
        if output not in tape.outputs:
            raise ValueError(f"unknown output {output!r}")
        return tape.outputs[output]
    if len(tape.outputs) == 1:
        return next(iter(tape.outputs.values()))
    raise ValueError("backward needs an explicit output name when the tape marks "
                     f"{len(tape.outputs)} outputs")


def backward(tape: Tape, output: str | None = None) -> dict[str, np.ndarray]:
    """Gradients of a scalar output with respect to every trainable leaf.

    Trainable leaves that do not reach the output get a zero gradient entry;
    non-trainable leaves get none. One forward scan marks the nodes that
    depend on a trainable leaf; only those receive gradients, so a subgraph
    of frozen parameters and batch inputs costs nothing.
    """
    out_idx = _resolve_output(tape, output)
    out = tape.nodes[out_idx]
    if out.value.ndim != 0:
        raise ValueError(f"backward requires a scalar output, got shape {out.value.shape}")

    needs = [False] * (out_idx + 1)
    for node in tape.nodes[:out_idx + 1]:
        needs[node.idx] = node.trainable or any(needs[i] for i in node.inputs)

    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[out_idx] = np.ones(())
    for node in reversed(tape.nodes[:out_idx + 1]):
        g = grads[node.idx]
        if g is None or not needs[node.idx] or node.op in ("leaf", "const"):
            continue
        wanted = [needs[i] for i in node.inputs]
        for inp_idx, want, dg in zip(node.inputs, wanted, _vjp(node, g, tape, wanted)):
            if not want:
                continue
            if grads[inp_idx] is None:
                grads[inp_idx] = dg
            else:
                grads[inp_idx] = grads[inp_idx] + dg

    result = {}
    for name, idx in tape._leaf_ids.items():
        node = tape.nodes[idx]
        if node.trainable:
            g = grads[idx]
            result[name] = np.zeros_like(node.value) if g is None else np.asarray(g)
    return result


def _vjp(node: Node, g: np.ndarray, tape: Tape,
         wanted: list[bool]) -> list[np.ndarray | None]:
    """Gradients into the node's inputs. The costly ops return None for an
    input whose `wanted` flag is False; callers ignore those entries."""
    op = node.op
    vals = [tape.nodes[i].value for i in node.inputs]
    if op == "add":
        a, b = vals
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]
    if op == "mul":
        a, b = vals
        return [_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)]
    if op == "matmul":
        a, b = vals
        tb = node.attrs["trans_b"]
        da = db = None
        if wanted[0]:
            da = g @ (b if tb else b.T)
        if wanted[1]:
            db = a.T @ g
            db = db.T if tb else db
        return [da, db]
    if op == "relu":
        return [g * (vals[0] > 0)]
    if op == "conv_block":
        x, k, gamma, _ = vals
        xhat, (n, f, oh, ow) = node.xhat, node.xhat.shape
        masked, sums = np.empty(xhat.shape), np.empty((2, n, f))

        def relu(_, start, stop):  # g's relu-masked rows, per-tile sums of g * xhat and g
            rows = np.multiply(g[start:stop], node.value[start:stop] > 0, out=masked[start:stop])
            np.add.reduce(rows * xhat[start:stop], axis=(2, 3), out=sums[0, start:stop])
            np.add.reduce(rows, axis=(2, 3), out=sums[1, start:stop])

        run_sub_slices(n, None, relu)
        dgamma, dbeta = (np.add.reduce(s, axis=0) for s in sums)  # the tile-axis sums
        if not (wanted[0] or wanted[1]):
            return [None, None, dgamma, dbeta]
        m = n * oh * ow  # mean(g) is dbeta / m, mean(g * xhat) dgamma / m
        inv = 1.0 / np.sqrt(node.batch_stats[1] + node.attrs["eps"])
        norm = [v[:, None] for v in (dbeta / m, dgamma / m, gamma * inv)]
        dx, dk = _conv_block_conv_grads(x, k, masked, xhat, norm, node.attrs["stride"],
                                        node.attrs["padding"], wanted)
        return [dx, dk, dgamma, dbeta]
    if op == "global_avg_pool":
        x = vals[0]
        scale = 1.0 / (x.shape[2] * x.shape[3])
        return [np.broadcast_to((g * scale)[:, :, None, None], x.shape)]
    if op == "l2norm_rows":
        x = vals[0]
        y = node.value
        norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
        return [(g - np.sum(g * y, axis=1, keepdims=True) * y) / norms]
    if op == "logsumexp":
        x = vals[0]
        axis = node.attrs["axis"]
        soft = np.exp(x - np.expand_dims(node.value, axis))
        return [soft * np.expand_dims(g, axis)]
    if op == "sum":
        x = vals[0]
        axis = node.attrs["axis"]
        if axis is None:
            return [np.broadcast_to(g, x.shape)]
        return [np.broadcast_to(np.expand_dims(g, axis), x.shape)]
    raise ValueError(f"unsupported op kind {op!r} at node {node.idx}")
