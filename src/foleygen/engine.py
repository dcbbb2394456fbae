"""Minimal reverse-mode autodiff engine on numpy arrays.

The engine provides exactly the operations the audio/video generator
architectures need: dense layers, 2-D and stacked (h, m, k) @ (h, k, n)
matmuls, causal/strided/volumetric convolutions, the fused causal residual
layer ``h + relu(conv1d_causal(h))``, head-batched multi-head attention
(optionally from the last n positions only), the usual pointwise
nonlinearities, and a built-in central-finite-difference gradient checker.

Design constraints:
  * no precision state: an op's result has its operands' dtype, and a
    tensor made from numpy is float64 unless another dtype is asked for
  * no implicit broadcasting except bias addition inside ``linear``
  * bit-deterministic: same inputs, same outputs
  * recording is scoped per thread: inside ``with no_grad():`` an op's
    result records no parents and no backward closure, so inference
    (generation, evaluation) builds no tape; the computed values are the
    same with and without the scope
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, ShapeError


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no tape in this thread for the duration of the block.

    Results computed inside have ``requires_grad=False`` and no parents.
    Leaf tensors keep their flag, so training after the block is unchanged.
    The previous mode is restored on exit, also when the block raises.
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """An n-dimensional array that optionally participates in the tape.

    ``grad`` is populated by :func:`backward` and is overwritten (not
    accumulated) across separate backward calls.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward_fn):
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data)
        out.requires_grad = (_grad_mode.enabled
                             and any(p.requires_grad for p in parents))
        out.grad = None
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward_fn
        else:
            out._parents = ()
            out._backward = None
        return out

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other, opname):
        if self.shape != other.shape:
            raise ShapeError(
                f"{opname}: shapes {self.shape} and {other.shape} differ "
                "(no implicit broadcasting)"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out = Tensor._result(self.data + other, (self,), None)
            if out.requires_grad:
                def bw(g, a=self):
                    a.grad += g
                out._backward = bw
            return out
        self._check_same_shape(other, "add")
        out = Tensor._result(self.data + other.data, (self, other), None)
        if out.requires_grad:
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a.grad += g
                if b.requires_grad:
                    b.grad += g
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor._result(-self.data, (self,), None)
        if out.requires_grad:
            def bw(g, a=self):
                a.grad -= g
            out._backward = bw
        return out

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        # other is a scalar
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            out = Tensor._result(self.data * other, (self,), None)
            if out.requires_grad:
                def bw(g, a=self, c=other):
                    a.grad += g * c
                out._backward = bw
            return out
        self._check_same_shape(other, "mul")
        out = Tensor._result(self.data * other.data, (self, other), None)
        if out.requires_grad:
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a.grad += g * b.data
                if b.requires_grad:
                    b.grad += g * a.data
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ParameterError("power exponent must be a python scalar")
        out = Tensor._result(self.data ** p, (self,), None)
        if out.requires_grad:
            def bw(g, a=self, p=p):
                a.grad += g * p * a.data ** (p - 1)
            out._backward = bw
        return out

    def __matmul__(self, other):
        """(m, k) @ (k, n), or a stack of them: (h, m, k) @ (h, k, n)."""
        sa, sb = self.data.shape, other.data.shape
        if len(sa) != len(sb) or len(sa) not in (2, 3):
            raise ShapeError(
                f"matmul expects two 2-D or two 3-D operands, got {sa} @ {sb}"
            )
        if sa[-1] != sb[-2] or sa[:-2] != sb[:-2]:
            raise ShapeError(f"matmul inner dimensions disagree: {sa} @ {sb}")
        out = Tensor._result(self.data @ other.data, (self, other), None)
        if out.requires_grad:
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a.grad += g @ b.data.swapaxes(-1, -2)
                if b.requires_grad:
                    b.grad += a.data.swapaxes(-1, -2) @ g
            out._backward = bw
        return out

    # -- reductions and reshapes -------------------------------------------

    def sum(self):
        out = Tensor._result(self.data.sum(), (self,), None)
        if out.requires_grad:
            def bw(g, a=self):
                a.grad += g
            out._backward = bw
        return out

    def mean(self):
        n = self.data.size
        out = Tensor._result(self.data.mean(), (self,), None)
        if out.requires_grad:
            def bw(g, a=self, n=n):
                a.grad += g / n
            out._backward = bw
        return out

    def mean_axis(self, axis: int):
        """Mean along one axis (used for time pooling)."""
        n = self.data.shape[axis]
        out = Tensor._result(self.data.mean(axis=axis), (self,), None)
        if out.requires_grad:
            def bw(g, a=self, axis=axis, n=n):
                a.grad += np.expand_dims(g, axis) / n
            out._backward = bw
        return out

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        out = Tensor._result(self.data.reshape(shape), (self,), None)
        if out.requires_grad:
            def bw(g, a=self, old=old):
                a.grad += g.reshape(old)
            out._backward = bw
        return out

    def transpose(self, axes=None):
        out = Tensor._result(self.data.transpose(axes), (self,), None)
        if out.requires_grad:
            inv = None if axes is None else np.argsort(axes)
            def bw(g, a=self, inv=inv):
                a.grad += g.transpose(inv)
            out._backward = bw
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        out = Tensor._result(self.data[key], (self,), None)
        if out.requires_grad:
            def bw(g, a=self, key=key):
                a.grad[key] += g
            out._backward = bw
        return out

    # -- nonlinearities ------------------------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor._result(y, (self,), None)
        if out.requires_grad:
            def bw(g, a=self, y=y):
                a.grad += g * (1.0 - y * y)
            out._backward = bw
        return out

    def relu(self):
        # -0.0 maps to +0.0, NaN propagates; gradient at exactly 0 is 0
        out = Tensor._result(np.maximum(self.data, 0.0), (self,), None)
        if out.requires_grad:
            def bw(g, a=self, mask=self.data > 0):
                a.grad += g * mask
            out._backward = bw
        return out

    def log(self):
        out = Tensor._result(np.log(self.data), (self,), None)
        if out.requires_grad:
            def bw(g, a=self):
                a.grad += g / a.data
            out._backward = bw
        return out

    def abs(self):
        out = Tensor._result(np.abs(self.data), (self,), None)
        if out.requires_grad:
            def bw(g, a=self):
                a.grad += g * np.sign(a.data)
            out._backward = bw
        return out

    def clamp(self, lo: float, hi: float):
        inside = (self.data >= lo) & (self.data <= hi)
        out = Tensor._result(np.clip(self.data, lo, hi), (self,), None)
        if out.requires_grad:
            def bw(g, a=self, inside=inside):
                a.grad += g * inside
            out._backward = bw
        return out

    def softmax_lastdim(self):
        z = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        out = Tensor._result(y, (self,), None)
        if out.requires_grad:
            def bw(g, a=self, y=y):
                dot = (g * y).sum(axis=-1, keepdims=True)
                a.grad += y * (g - dot)
            out._backward = bw
        return out

    def logsumexp_lastdim(self):
        m = self.data.max(axis=-1, keepdims=True)
        s = np.exp(self.data - m).sum(axis=-1, keepdims=True)
        val = (m + np.log(s)).squeeze(-1)
        out = Tensor._result(val, (self,), None)
        if out.requires_grad:
            soft = np.exp(self.data - m) / s
            def bw(g, a=self, soft=soft):
                a.grad += np.expand_dims(g, -1) * soft
            out._backward = bw
        return out


def concat(tensors, axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    out = Tensor._result(np.concatenate(datas, axis=axis), tuple(tensors), None)
    if out.requires_grad:
        def bw(g, tensors=tuple(tensors), sizes=sizes, axis=axis):
            start = 0
            for t, n in zip(tensors, sizes):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, start + n)
                if t.requires_grad:
                    t.grad += g[tuple(sl)]
                start += n
        out._backward = bw
    return out


def scalar_scale(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a size-1 tensor (learned gate)."""
    if s.data.size != 1:
        raise ShapeError(f"scalar_scale: gate must be size 1, got {s.shape}")
    out = Tensor._result(x.data * s.data, (x, s), None)
    if out.requires_grad:
        def bw(g, x=x, s=s):
            if x.requires_grad:
                x.grad += g * s.data
            if s.requires_grad:
                s.grad += np.sum(g * x.data).reshape(s.data.shape)
        out._backward = bw
    return out


def expand_axis(x: Tensor, axis: int, n: int) -> Tensor:
    """Insert a new axis of length n by repetition; backward sums over it."""
    data = np.repeat(np.expand_dims(x.data, axis), n, axis=axis)
    out = Tensor._result(data, (x,), None)
    if out.requires_grad:
        def bw(g, a=x, axis=axis):
            a.grad += g.sum(axis=axis)
        out._backward = bw
    return out


# -- backward pass -----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad tensor reachable from loss.

    Gradients of the touched subgraph are overwritten per call; calling
    backward twice does not accumulate.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward needs a scalar loss, got shape {loss.shape}"
        )
    # iterative topological sort
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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

    for node in topo:
        if node.grad is not None and node._backward is None:
            node.grad.fill(0)       # a leaf; a model's grad is a view
        else:
            node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# -- layers ------------------------------------------------------------------


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """y = x W + b for x (n, d_in), W (d_in, d_out), b (d_out,): one tape node."""
    if x.data.ndim != 2 or x.shape[1] != W.shape[0]:
        raise ShapeError(
            f"linear: input shape {x.shape} does not match weight {W.shape}"
        )
    if b.shape != (W.shape[1],):
        raise ShapeError(
            f"linear: bias shape {b.shape} does not match weight {W.shape}"
        )
    out = Tensor._result(x.data @ W.data + b.data, (x, W, b), None)
    if out.requires_grad:
        def bw(g, x=x, W=W, b=b):
            if x.requires_grad:
                x.grad += g @ W.data.T
            if W.requires_grad:
                W.grad += x.data.T @ g
            if b.requires_grad:
                b.grad += g.sum(0)
        out._backward = bw
    return out


def _check_causal(x: Tensor, kernel: Tensor, dilation, opname: str) -> range:
    """Validate a causal conv's operands; return the shifts of taps 1.. that
    fall inside the input (a tap with k*d >= T sees only zero padding)."""
    if not isinstance(dilation, int) or dilation < 1:
        raise ParameterError(f"dilation must be a positive int, got {dilation}")
    xs, ks = x.data.shape, kernel.data.shape
    if len(xs) != 2 or len(ks) != 3:
        raise ShapeError(
            f"{opname}: x {xs} must be (ch_in,T), "
            f"kernel {ks} must be (ch_out,ch_in,K)"
        )
    if xs[0] != ks[1]:
        raise ShapeError(f"{opname}: x channels {xs} vs kernel {ks}")
    if ks[2] < 1:
        raise ParameterError("kernel size must be >= 1")
    return range(dilation, min(ks[2] * dilation, xs[1]), dilation)


def _causal_taps(w, xd, shifts) -> np.ndarray:
    """Shift-and-GEMM: ``W[:, :, 0] @ x``, plus ``W[:, :, k] @ x[:, :T-s]``
    added into ``y[:, s:]`` for tap k at shift s."""
    T = xd.shape[1]
    y = w[:, :, 0] @ xd
    for k, s in enumerate(shifts, 1):
        y[:, s:] += w[:, :, k] @ xd[:, :T - s]
    return y


def _causal_taps_backward(g, x: Tensor, xd, kernel: Tensor, shifts) -> None:
    """Add the kernel and input gradients of ``_causal_taps`` for output
    gradient g, over the same tap slices; xd is x's data at forward time."""
    T = xd.shape[1]
    if kernel.requires_grad:
        kernel.grad[:, :, 0] += g @ xd.T
        for k, s in enumerate(shifts, 1):
            kernel.grad[:, :, k] += g[:, s:] @ xd[:, :T - s].T
    if x.requires_grad:
        w = kernel.data
        gx = w[:, :, 0].T @ g
        for k, s in enumerate(shifts, 1):
            gx[:, :T - s] += w[:, :, k].T @ g[:, s:]
        x.grad += gx


def conv1d_causal(x: Tensor, kernel: Tensor, dilation: int = 1) -> Tensor:
    """Left-padded dilated convolution: output t sees x[.., t - d*k] only.

    x: (ch_in, T), kernel: (ch_out, ch_in, K) -> (ch_out, T)

    Shift-and-GEMM, with no padded copy of x: tap 0 is ``W[:, :, 0] @ x``
    and tap k adds ``W[:, :, k] @ x[:, :T-k*d]`` into ``y[:, k*d:]``; the
    backward pass uses the same slices. A tap with k*d >= T sees only the
    zero padding and is skipped.
    """
    shifts = _check_causal(x, kernel, dilation, "conv1d_causal")
    xd = x.data
    out = Tensor._result(_causal_taps(kernel.data, xd, shifts), (x, kernel), None)
    if out.requires_grad:
        def bw(g, x=x, xd=xd, kernel=kernel):
            _causal_taps_backward(g, x, xd, kernel, shifts)
        out._backward = bw
    return out


def causal_residual(h: Tensor, kernel: Tensor, dilation: int) -> Tensor:
    """``h + relu(conv1d_causal(h, kernel, dilation))`` as one tape node.

    h: (ch, T), kernel: (ch, ch, K) -> (ch, T). The values and every
    gradient are bit for bit those of the op-by-op graph: the backward adds
    g to h's gradient first, then the conv's input gradient of ``g * mask``.
    """
    shifts = _check_causal(h, kernel, dilation, "causal_residual")
    ch_out, ch_in, _ = kernel.data.shape
    if ch_out != ch_in:
        raise ShapeError(
            f"causal_residual: kernel {kernel.shape} must map ch_in to ch_in"
        )
    hd = h.data
    y = _causal_taps(kernel.data, hd, shifts)
    np.maximum(y, 0.0, out=y)
    out = Tensor._result(y, (h, kernel), None)
    if out.requires_grad:
        # read before h is added into y in place below
        def bw(g, h=h, hd=hd, kernel=kernel, mask=y > 0):
            if h.requires_grad:
                h.grad += g
            _causal_taps_backward(g * mask, h, hd, kernel, shifts)
        out._backward = bw
    y += hd
    return out


def conv1d_strided(x: Tensor, kernel: Tensor, stride: int) -> Tensor:
    """Valid (unpadded) strided convolution used for audio token downsampling.

    x: (ch_in, T), kernel: (ch_out, ch_in, K) -> (ch_out, (T-K)//stride + 1)
    """
    if not isinstance(stride, int) or stride < 1:
        raise ParameterError(f"stride must be a positive int, got {stride}")
    ch_out, ch_in, K = kernel.shape
    if x.shape[0] != ch_in:
        raise ShapeError(
            f"conv1d_strided: x channels {x.shape} vs kernel {kernel.shape}"
        )
    T = x.shape[1]
    if T < K:
        raise ShapeError(f"conv1d_strided: input length {T} < kernel {K}")
    To = (T - K) // stride + 1
    y = np.zeros((ch_out, To), dtype=x.data.dtype)
    for k in range(K):
        y += kernel.data[:, :, k] @ x.data[:, k: k + stride * To: stride]
    out = Tensor._result(y, (x, kernel), None)
    if out.requires_grad:
        def bw(g, x=x, kernel=kernel, s=stride, K=K, To=To):
            for k in range(K):
                sl = slice(k, k + s * To, s)
                if kernel.requires_grad:
                    kernel.grad[:, :, k] += g @ x.data[:, sl].T
                if x.requires_grad:
                    x.grad[:, sl] += kernel.data[:, :, k].T @ g
        out._backward = bw
    return out


# Byte budget of one im2col column buffer (see conv3d for why it is capped).
_COL_BUDGET_BYTES = 4 << 20

_workspace = threading.local()


def _col_buffer(n: int, dt) -> np.ndarray:
    """A reusable n-element scratch array for im2col columns.

    A fresh 4-MB array per chunk has its pages faulted in by the kernel
    every time: ~7k page faults and ~15 ms of system time per paper-size
    embedder forward+backward on a 2-vCPU Xeon VM. One buffer per thread,
    refilled chunk after chunk, avoids that. Buffers over the budget are
    not kept.
    """
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < n or buf.dtype != dt:
        buf = np.empty(n, dtype=dt)
        if buf.nbytes <= _COL_BUDGET_BYTES:
            _workspace.buf = buf
    return buf[:n]


def _im2col_chunks(xp, ks, stride, out_shape):
    """Yield (t0, t1, cols) covering output times [0, To) of a valid conv.

    ``cols`` is (ci*kt*kh*kw, (t1-t0)*Ho*Wo): row (c, a, b, d) holds
    xp[c, a + st*t, b + sh*i, d + sw*j] for every output (t, i, j) of the
    chunk, so ``kernel.reshape(co, -1) @ cols`` is the conv over the chunk.
    Each chunk's column buffer stays within ``_COL_BUDGET_BYTES`` unless a
    single output time step needs more.
    """
    st, sh, sw = stride
    To, Ho, Wo = out_shape
    win = np.lib.stride_tricks.sliding_window_view(xp, ks, axis=(1, 2, 3))
    # (ci, To, Ho, Wo, kt, kh, kw) -> (ci, kt, kh, kw, To, Ho, Wo)
    win = win[:, ::st, ::sh, ::sw].transpose(0, 4, 5, 6, 1, 2, 3)
    rows = xp.shape[0] * ks[0] * ks[1] * ks[2]
    step = max(1, min(To, _COL_BUDGET_BYTES // (rows * Ho * Wo * xp.itemsize)))
    buf = _col_buffer(rows * step * Ho * Wo, xp.dtype)
    buf = buf.reshape(win.shape[:4] + (step, Ho, Wo))
    for t0 in range(0, To, step):
        t1 = min(To, t0 + step)
        part = buf[:, :, :, :, : t1 - t0]
        np.copyto(part, win[:, :, :, :, t0:t1])
        yield t0, t1, part.reshape(rows, -1)


def _conv3d_valid(xp, w2, ks, stride, out_shape):
    """Unpadded cross-correlation of xp with w2 = kernel.reshape(co, -1)."""
    To, Ho, Wo = out_shape
    y = np.empty((w2.shape[0], To, Ho * Wo), dtype=w2.dtype)
    for t0, t1, cols in _im2col_chunks(xp, ks, stride, out_shape):
        np.matmul(w2, cols, out=y[:, t0:t1].reshape(w2.shape[0], -1))
    return y.reshape(w2.shape[0], To, Ho, Wo)


def conv3d(x: Tensor, kernel: Tensor, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Volumetric cross-correlation.

    x: (ch_in, T, H, W), kernel: (ch_out, ch_in, kT, kH, kW).
    Output extent per dim: (dim + 2*pad - k)//stride + 1, which must be >= 1.

    Computed as im2col GEMMs (Chellapilla et al., 2006). With xp the
    zero-padded input and cols(xp) its (ci*kT*kH*kW, To*Ho*Wo) column
    matrix (rows ordered channel, then tap; columns ordered t, h, w):

      * forward:         y  = kernel.reshape(co, -1) @ cols(xp)
      * kernel gradient: gk = g.reshape(co, -1) @ cols(xp).T, with the
        columns rebuilt in backward rather than kept on the tape
      * input gradient:  the full correlation of g, dilated by the stride
        (stride-1 zeros between entries) and padded by k-1, with the
        kernel flipped in all three taps and transposed to (ci, co, ...),
        evaluated over the unpadded input range through the same columns.

    The column buffer is bounded: it is built in one piece when the whole
    output volume fits ``_COL_BUDGET_BYTES`` (4 MiB) and is split along
    output time otherwise. A full-volume buffer at paper size (16 MB per
    call at 8 ch x 4 x 36 x 64) raised the peak RSS of the paper-size
    wavenet and deep-fusion benchmark workloads by 11-12%; split per output
    time step, it costs them 1.5-1.7%.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 5:
        raise ShapeError(
            f"conv3d: x {x.shape} must be 4-D, kernel {kernel.shape} must be 5-D"
        )
    co, ci, kt, kh, kw = kernel.shape
    if x.shape[0] != ci:
        raise ShapeError(f"conv3d: x channels {x.shape} vs kernel {kernel.shape}")
    st, sh, sw = stride
    pt, ph, pw = padding
    T, H, W = x.shape[1:]
    ks = (kt, kh, kw)
    outs = []
    for dim, k, s, p in zip((T, H, W), ks, stride, padding):
        o = (dim + 2 * p - k) // s + 1
        if dim + 2 * p < k:
            raise ShapeError(
                f"conv3d: kernel {kernel.shape} larger than padded input {x.shape} "
                f"with padding {padding}"
            )
        outs.append(o)
    To, Ho, Wo = outs
    xp = np.pad(x.data, ((0, 0), (pt, pt), (ph, ph), (pw, pw)))
    y = _conv3d_valid(xp, kernel.data.reshape(co, -1), ks, stride, outs)
    out = Tensor._result(y, (x, kernel), None)
    if out.requires_grad:
        def bw(g, x=x, kernel=kernel, xp=xp):
            if kernel.requires_grad:
                g3 = g.reshape(co, To, Ho * Wo)
                gk = np.zeros((co, ci * kt * kh * kw), dtype=g.dtype)
                for t0, t1, cols in _im2col_chunks(xp, ks, stride, outs):
                    gk += g3[:, t0:t1].reshape(co, -1) @ cols.T
                kernel.grad += gk.reshape(kernel.shape)
            if x.requires_grad:
                # g dilated by the stride and padded by k-1: output i sits at
                # k-1 + s*i. Its window from the padding offset on lines up
                # with x, so a valid correlation over it yields x's gradient.
                gd = np.zeros((co, T + 2 * pt + kt - 1, H + 2 * ph + kh - 1,
                               W + 2 * pw + kw - 1), dtype=g.dtype)
                gd[:, kt - 1: kt - 1 + st * To: st,
                   kh - 1: kh - 1 + sh * Ho: sh,
                   kw - 1: kw - 1 + sw * Wo: sw] = g
                gd = gd[:, pt: pt + T + kt - 1, ph: ph + H + kh - 1,
                        pw: pw + W + kw - 1]
                wf = kernel.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
                x.grad += _conv3d_valid(gd, wf.reshape(ci, -1), ks,
                                        (1, 1, 1), (T, H, W))
        out._backward = bw
    return out


def conv1x1_channels(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-position channel mixing: (ch_in, ...) x (ch_out, ch_in) -> (ch_out, ...)."""
    if kernel.data.ndim != 2:
        raise ShapeError(f"conv1x1: kernel {kernel.shape} must be (ch_out, ch_in)")
    if x.shape[0] != kernel.shape[1]:
        raise ShapeError(
            f"conv1x1: x channels {x.shape} vs kernel {kernel.shape}"
        )
    rest = x.shape[1:]
    x2 = x.reshape(x.shape[0], -1)
    y2 = kernel @ x2
    return y2.reshape(kernel.shape[0], *rest)


@dataclass
class AttentionParams:
    """Projection weights for one multi-head attention layer.

    The key projection has no bias: it would add the same ``q . bk`` to
    every score of a softmax row, which leaves attention's output as it is.
    """
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bv: Tensor
    bo: Tensor
    heads: int


def multi_head_attention(x: Tensor, params: AttentionParams,
                         causal_mask: bool = False,
                         last_n: int | None = None) -> Tensor:
    """Scaled dot-product attention over (T, d_model) with optional causal mask.

    All heads at once: q, k and v are viewed as (heads, T, d_head) stacks,
    so each product is one stacked matmul and the softmax runs once.

    With ``last_n``, only the last ``last_n`` positions attend (to every
    key up to their own position under the causal mask) and the result is
    (last_n, d_model): the last rows of the full result. Keys and values
    still come from all T positions.
    """
    T, d_model = x.shape
    h = params.heads
    if d_model % h != 0:
        raise ParameterError(
            f"d_model {d_model} not divisible by head count {h}"
        )
    n = T if last_n is None else last_n
    if not 1 <= n <= T:
        raise ParameterError(f"last_n must be in [1, {T}], got {last_n}")
    dh = d_model // h
    xq = x if n == T else x[T - n:]
    q = linear(xq, params.wq, params.bq).reshape(n, h, dh).transpose((1, 0, 2))
    k = (x @ params.wk).reshape(T, h, dh).transpose((1, 2, 0))
    v = linear(x, params.wv, params.bv).reshape(T, h, dh).transpose((1, 0, 2))
    scores = (q @ k) * (1.0 / math.sqrt(dh))                # (h, n, T)
    # query i sits at position T-n+i; with n == 1 nothing lies ahead of it
    if causal_mask and n > 1:
        mask = np.triu(np.full((n, T), -1e30, dtype=x.data.dtype), k=T - n + 1)
        scores = scores + Tensor(np.broadcast_to(mask, scores.shape),
                                 dtype=mask.dtype)
    att = scores.softmax_lastdim()
    merged = (att @ v).transpose((1, 0, 2)).reshape(n, d_model)
    return linear(merged, params.wo, params.bo)


# -- verification -------------------------------------------------------------


def grad_check(op_closure, inputs, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``op_closure(*inputs)`` must return a scalar Tensor built from the given
    input tensors. Returns the max over all coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    out = op_closure(*inputs)
    backward(out)
    analytic = [np.array(t.grad, copy=True) for t in inputs if t.requires_grad]
    max_err = 0.0
    ai = 0
    for t in inputs:
        if not t.requires_grad:
            continue
        a = analytic[ai]
        ai += 1
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = float(op_closure(*inputs).data)
            flat[j] = orig - eps
            fm = float(op_closure(*inputs).data)
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * eps)
            an = a.reshape(-1)[j]
            err = abs(an - numeric) / max(abs(an), abs(numeric), 1e-8)
            max_err = max(max_err, err)
    return max_err
