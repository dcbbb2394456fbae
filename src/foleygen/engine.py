"""Minimal reverse-mode autodiff engine on numpy arrays.

The engine provides exactly the operations the audio/video generator
architectures need: dense layers, 2-D matmuls and stacks of them of any
depth, causal/strided/volumetric convolutions, the fused causal residual
layer ``h + relu(conv1d_causal(h))``, head-batched multi-head attention
(optionally from the last n positions only), the usual pointwise
nonlinearities, and a built-in central-finite-difference gradient checker.

Design constraints:
  * no precision state: an op's result has its operands' dtype, and a
    tensor made from numpy is float64 unless another dtype is asked for
  * an optional leading batch axis: every op the models use also takes
    its activation operands with one extra leading axis of B items, and
    reads them by their trailing axes, so an unbatched call runs through
    the same code. A weight is shared by the B items and its gradient is
    the sum over them, as one GEMM over items x positions where the op
    has one (``conv3d`` sums one GEMM per item and time tap): a kernel,
    ``linear``'s ``W`` and ``b``, attention's projections, a 2-D left
    operand of ``@`` with a stacked right one, or a right operand of ``+``
    that lacks the left one's batch axis. There is no other implicit
    broadcasting
  * bit-deterministic: same inputs, same outputs
  * recording is scoped per thread: inside ``with no_grad():`` an op's
    result records no parents and no backward closure, so inference
    (generation, evaluation) builds no tape; the computed values are the
    same with and without the scope
  * one owner of gradients: an op's backward closure returns its parents'
    gradients and writes none; ``backward`` alone stores and sums them,
    and only leaves keep a ``grad`` array
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

    A leaf (made with ``requires_grad=True``) has a ``grad`` array of its
    shape, which :func:`backward` overwrites in place (it does not
    accumulate across calls). An op's result keeps ``grad = None``; its
    ``_backward(g)`` maps the result's gradient to one gradient per parent.
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
                out._backward = lambda g: (g,)
            return out
        # other may lack self's leading batch axis: it is added to each item
        shared = False
        if self.data.shape != other.data.shape:
            shared = other.data.shape == self.data.shape[1:]
            if not shared:
                self._check_same_shape(other, "add")
        out = Tensor._result(self.data + other.data, (self, other), None)
        if out.requires_grad:
            out._backward = lambda g, shared=shared: (
                g, g.sum(0) if shared else g)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor._result(-self.data, (self,), None)
        if out.requires_grad:
            out._backward = lambda g: (-g,)
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
                out._backward = lambda g, c=other: (g * c,)
            return out
        self._check_same_shape(other, "mul")
        out = Tensor._result(self.data * other.data, (self, other), None)
        if out.requires_grad:
            out._backward = lambda g, a=self, b=other: (g * b.data, g * a.data)
        return out

    __rmul__ = __mul__

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ParameterError("power exponent must be a python scalar")
        out = Tensor._result(self.data ** p, (self,), None)
        if out.requires_grad:
            out._backward = lambda g, a=self, p=p: (g * p * a.data ** (p - 1),)
        return out

    def __matmul__(self, other):
        """(m, k) @ (k, n), or a stack of them of any depth:
        (..., m, k) @ (..., k, n) with the same leading axes. A 2-D left
        operand (a weight) may also multiply every matrix of a stacked
        right operand; its gradient is then the sum over the stack."""
        sa, sb = self.data.shape, other.data.shape
        shared = len(sa) == 2 and len(sb) > 2
        if len(sb) < 2 or (len(sa) != len(sb) and not shared):
            raise ShapeError(
                f"matmul expects two operands of one rank >= 2, or a 2-D "
                f"left operand, got {sa} @ {sb}"
            )
        if sa[-1] != sb[-2] or (not shared and sa[:-2] != sb[:-2]):
            raise ShapeError(f"matmul inner dimensions disagree: {sa} @ {sb}")
        out = Tensor._result(self.data @ other.data, (self, other), None)
        if out.requires_grad:
            def bw(g, a=self, b=other):
                ga = gb = None
                if a.requires_grad:
                    ga = (_sum_outer(g, b.data) if shared
                          else g @ b.data.swapaxes(-1, -2))
                if b.requires_grad:
                    gb = a.data.swapaxes(-1, -2) @ g
                return ga, gb
            out._backward = bw
        return out

    # -- reductions and reshapes -------------------------------------------

    def sum(self):
        out = Tensor._result(self.data.sum(), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, s=self.shape: (np.broadcast_to(g, s),)
        return out

    def mean(self):
        n = self.data.size
        out = Tensor._result(self.data.mean(), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, s=self.shape, n=n: (
                np.broadcast_to(g / n, s),)
        return out

    def mean_axis(self, axis: int):
        """Mean along one axis (used for time pooling)."""
        n = self.data.shape[axis]
        out = Tensor._result(self.data.mean(axis=axis), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, s=self.shape, axis=axis, n=n: (
                np.broadcast_to(np.expand_dims(g, axis) / n, s),)
        return out

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        out = Tensor._result(self.data.reshape(shape), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, old=old: (g.reshape(old),)
        return out

    def transpose(self, axes=None):
        out = Tensor._result(self.data.transpose(axes), (self,), None)
        if out.requires_grad:
            inv = None if axes is None else np.argsort(axes)
            out._backward = lambda g, inv=inv: (g.transpose(inv),)
        return out

    @property
    def T(self):
        return self.transpose()

    @property
    def mT(self):
        """The last two axes swapped, as numpy's ``ndarray.mT``."""
        n = self.data.ndim
        return self.transpose(tuple(range(n - 2)) + (n - 1, n - 2))

    def __getitem__(self, key):
        out = Tensor._result(self.data[key], (self,), None)
        if out.requires_grad:
            def bw(g, a=self, key=key):
                # np.add.at sums repeated indices, which ga[key] += g drops
                ga = np.zeros_like(a.data)
                np.add.at(ga, key, g)
                return (ga,)
            out._backward = bw
        return out

    # -- nonlinearities ------------------------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor._result(y, (self,), None)
        if out.requires_grad:
            out._backward = lambda g, y=y: (g * (1.0 - y * y),)
        return out

    def relu(self):
        # -0.0 maps to +0.0, NaN propagates; gradient at exactly 0 is 0
        out = Tensor._result(np.maximum(self.data, 0.0), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, mask=self.data > 0: (g * mask,)
        return out

    def log(self):
        out = Tensor._result(np.log(self.data), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, a=self: (g / a.data,)
        return out

    def abs(self):
        out = Tensor._result(np.abs(self.data), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, a=self: (g * np.sign(a.data),)
        return out

    def clamp(self, lo: float, hi: float):
        inside = (self.data >= lo) & (self.data <= hi)
        out = Tensor._result(np.clip(self.data, lo, hi), (self,), None)
        if out.requires_grad:
            out._backward = lambda g, inside=inside: (g * inside,)
        return out

    def softmax_lastdim(self):
        z = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        out = Tensor._result(y, (self,), None)
        if out.requires_grad:
            def bw(g, y=y):
                dot = (g * y).sum(axis=-1, keepdims=True)
                return (y * (g - dot),)
            out._backward = bw
        return out

    def logsumexp_lastdim(self):
        m = self.data.max(axis=-1, keepdims=True)
        s = np.exp(self.data - m).sum(axis=-1, keepdims=True)
        val = (m + np.log(s)).squeeze(-1)
        out = Tensor._result(val, (self,), None)
        if out.requires_grad:
            soft = np.exp(self.data - m) / s
            out._backward = lambda g, soft=soft: (
                np.expand_dims(g, -1) * soft,)
        return out


def concat(tensors, axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    out = Tensor._result(np.concatenate(datas, axis=axis), tuple(tensors), None)
    if out.requires_grad:
        def bw(g, cuts=np.cumsum(sizes[:-1]), axis=axis):
            return tuple(np.split(g, cuts, axis=axis))
        out._backward = bw
    return out


def scalar_scale(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a size-1 tensor (learned gate)."""
    if s.data.size != 1:
        raise ShapeError(f"scalar_scale: gate must be size 1, got {s.shape}")
    out = Tensor._result(x.data * s.data, (x, s), None)
    if out.requires_grad:
        out._backward = lambda g, x=x, s=s: (
            g * s.data, np.sum(g * x.data).reshape(s.data.shape))
    return out


def expand_axis(x: Tensor, axis: int, n: int) -> Tensor:
    """Insert a new axis of length n by repetition; backward sums over it."""
    data = np.repeat(np.expand_dims(x.data, axis), n, axis=axis)
    out = Tensor._result(data, (x,), None)
    if out.requires_grad:
        out._backward = lambda g, axis=axis: (g.sum(axis=axis),)
    return out


# -- backward pass -----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Set ``grad`` on every requires-grad leaf reachable from loss.

    A leaf's gradient is zeroed in place, then every contribution is added
    into it, so gradients are overwritten per call, not accumulated, and a
    model's gradient stays a view of its flat buffer. Results keep
    ``grad = None``: their gradients live in a table local to the call. A
    result's first contribution is kept, later ones are summed in the
    order their consumers run, and the entry is dropped once the result's
    own backward has run.

    Each result's ``_backward(g)`` returns one gradient per parent, of the
    parent's shape, or None for a parent that needs none. It writes into
    no ``.grad``, into no g and into no array it has returned; the only
    in-place sum here is into an array this function allocated. A result's
    gradient is kept C-contiguous, a copy when a contribution is a view
    such as a transpose or a broadcast: numpy and BLAS may round a product
    differently for another operand layout, so every closure gets one.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward needs a scalar loss, got shape {loss.shape}"
        )
    if not loss.requires_grad:
        return
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
        if node._backward is None:          # a leaf
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            else:
                node.grad.fill(0)           # a model's grad is a view
    seed = np.ones_like(loss.data)
    if loss._backward is None:
        loss.grad += seed
        return
    grads = {loss: seed}
    owned: set[Tensor] = set()              # sums allocated here
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:                       # a leaf, or no contribution
            continue
        parents = node._parents
        contributions = node._backward(g)
        if len(contributions) != len(parents):
            raise ContractError(
                f"backward: {len(contributions)} gradients for "
                f"{len(parents)} parents")
        for p, c in zip(parents, contributions):
            if c is None or not p.requires_grad:
                continue
            if c.shape != p.data.shape:
                raise ContractError(
                    f"backward: gradient of shape {c.shape} for a tensor "
                    f"of shape {p.data.shape}")
            if p._backward is None:
                p.grad += c
                continue
            c = np.asarray(c, dtype=p.data.dtype, order="C")
            total = grads.get(p)
            if total is None:
                grads[p] = c
            elif p in owned:
                total += c
            else:
                grads[p] = total + c
                owned.add(p)


# -- layers ------------------------------------------------------------------


def linear(x: Tensor, W: Tensor, b: Tensor | None) -> Tensor:
    """y = x W + b for x (n, d_in) or (B, n, d_in), W (d_in, d_out) and b
    (d_out,) or None (no bias): one tape node. W's gradient is one GEMM
    over the rows of every item."""
    xd, wd = x.data, W.data
    if xd.ndim not in (2, 3) or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(
            f"linear: input shape {x.shape} does not match weight {W.shape}"
        )
    if b is None:
        y, parents = xd @ wd, (x, W)
    elif b.data.shape != (wd.shape[1],):
        raise ShapeError(
            f"linear: bias shape {b.shape} does not match weight {W.shape}"
        )
    else:
        y, parents = xd @ wd + b.data, (x, W, b)
    out = Tensor._result(y, parents, None)
    if out.requires_grad:
        def bw(g, x=x, W=W, b=b):
            g2 = g.reshape(-1, g.shape[-1])
            gx = g @ W.data.T if x.requires_grad else None
            gw = (x.data.reshape(-1, W.data.shape[0]).T @ g2
                  if W.requires_grad else None)
            return (gx, gw) if b is None else (gx, gw, g2.sum(0))
        out._backward = bw
    return out


def _sum_outer(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum over items and positions of ``g x^T``: g (..., m, L) with x
    (..., k, L) -> (m, k), as one GEMM with K = items * L."""
    m, k = g.shape[-2], x.shape[-2]
    return g.swapaxes(0, -2).reshape(m, -1) @ x.swapaxes(0, -2).reshape(k, -1).T


def _check_causal(x: Tensor, kernel: Tensor, dilation, opname: str) -> range:
    """Validate a causal conv's operands; return the shifts of taps 1.. that
    fall inside the input (a tap with k*d >= T sees only zero padding)."""
    if not isinstance(dilation, int) or dilation < 1:
        raise ParameterError(f"dilation must be a positive int, got {dilation}")
    xs, ks = x.data.shape, kernel.data.shape
    if len(xs) not in (2, 3) or len(ks) != 3:
        raise ShapeError(
            f"{opname}: x {xs} must be (ch_in,T) or (B,ch_in,T), "
            f"kernel {ks} must be (ch_out,ch_in,K)"
        )
    if xs[-2] != ks[1]:
        raise ShapeError(f"{opname}: x channels {xs} vs kernel {ks}")
    if ks[2] < 1:
        raise ParameterError("kernel size must be >= 1")
    return range(dilation, min(ks[2] * dilation, xs[-1]), dilation)


def _causal_taps(w, xd, shifts) -> np.ndarray:
    """Shift-and-GEMM: ``W[:, :, 0] @ x``, plus ``W[:, :, k] @ x[..., :T-s]``
    added into ``y[..., s:]`` for tap k at shift s, per item."""
    T = xd.shape[-1]
    y = w[:, :, 0] @ xd
    for k, s in enumerate(shifts, 1):
        y[..., s:] += w[:, :, k] @ xd[..., :T - s]
    return y


def _causal_taps_backward(g, x: Tensor, xd, kernel: Tensor, shifts):
    """The input and kernel gradients of ``_causal_taps`` for output
    gradient g, over the same tap slices; xd is x's data at forward time.
    Each is None when its tensor needs no gradient."""
    T = xd.shape[-1]
    gx = gk = None
    if kernel.requires_grad:
        # a tap that sees only zero padding has a zero gradient
        gk = np.zeros_like(kernel.data)
        gk[:, :, 0] = _sum_outer(g, xd)
        for k, s in enumerate(shifts, 1):
            gk[:, :, k] = _sum_outer(g[..., s:], xd[..., :T - s])
    if x.requires_grad:
        w = kernel.data
        gx = w[:, :, 0].T @ g
        for k, s in enumerate(shifts, 1):
            gx[..., :T - s] += w[:, :, k].T @ g[..., s:]
    return gx, gk


def conv1d_causal(x: Tensor, kernel: Tensor, dilation: int = 1) -> Tensor:
    """Left-padded dilated convolution: output t sees x[.., t - d*k] only.

    x: (ch_in, T) or (B, ch_in, T), kernel: (ch_out, ch_in, K)
    -> (ch_out, T) or (B, ch_out, T)

    Shift-and-GEMM, with no padded copy of x: tap 0 is ``W[:, :, 0] @ x``
    and tap k adds ``W[:, :, k] @ x[..., :T-k*d]`` into ``y[..., k*d:]``;
    the backward pass uses the same slices. A tap with k*d >= T sees only
    the zero padding and is skipped.
    """
    shifts = _check_causal(x, kernel, dilation, "conv1d_causal")
    xd = x.data
    out = Tensor._result(_causal_taps(kernel.data, xd, shifts), (x, kernel), None)
    if out.requires_grad:
        def bw(g, x=x, xd=xd, kernel=kernel):
            return _causal_taps_backward(g, x, xd, kernel, shifts)
        out._backward = bw
    return out


def causal_residual(h: Tensor, kernel: Tensor, dilation: int) -> Tensor:
    """``h + relu(conv1d_causal(h, kernel, dilation))`` as one tape node.

    h: (ch, T) or (B, ch, T), kernel: (ch, ch, K) -> h's shape. The values
    and every gradient are bit for bit those of the op-by-op graph when h
    has no other consumer: h's gradient is g plus the conv's input gradient
    of ``g * mask``.
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
            gh, gk = _causal_taps_backward(g * mask, h, hd, kernel, shifts)
            if gh is not None:
                gh += g
            return gh, gk
        out._backward = bw
    y += hd
    return out


def conv1d_strided(x: Tensor, kernel: Tensor, stride: int) -> Tensor:
    """Valid (unpadded) strided convolution used for audio token downsampling.

    x: (ch_in, T) or (B, ch_in, T), kernel: (ch_out, ch_in, K)
    -> (ch_out, (T-K)//stride + 1), with B leading if x has it
    """
    if not isinstance(stride, int) or stride < 1:
        raise ParameterError(f"stride must be a positive int, got {stride}")
    ch_out, ch_in, K = kernel.shape
    if x.data.ndim not in (2, 3) or x.shape[-2] != ch_in:
        raise ShapeError(
            f"conv1d_strided: x channels {x.shape} vs kernel {kernel.shape}"
        )
    T = x.shape[-1]
    if T < K:
        raise ShapeError(f"conv1d_strided: input length {T} < kernel {K}")
    To = (T - K) // stride + 1
    y = np.zeros(x.shape[:-2] + (ch_out, To), dtype=x.data.dtype)
    for k in range(K):
        y += kernel.data[:, :, k] @ x.data[..., k: k + stride * To: stride]
    out = Tensor._result(y, (x, kernel), None)
    if out.requires_grad:
        def bw(g, x=x, kernel=kernel, s=stride, K=K, To=To):
            gx = np.zeros_like(x.data) if x.requires_grad else None
            gk = np.empty_like(kernel.data) if kernel.requires_grad else None
            for k in range(K):
                sl = slice(k, k + s * To, s)
                if gk is not None:
                    gk[:, :, k] = _sum_outer(g, x.data[..., sl])
                if gx is not None:
                    gx[..., sl] += kernel.data[:, :, k].T @ g
            return gx, gk
        out._backward = bw
    return out


# Byte budget of one column buffer (see conv3d for why it is capped).
_COL_BUDGET_BYTES = 8 << 20

_workspace = threading.local()


def _col_buffer(n: int, dt, slot: str = "cols") -> np.ndarray:
    """A reusable n-element scratch array for conv3d: its columns or the
    kernel gradient's padded output gradient, or its per-tap GEMM outputs
    (slot "gemm").

    A fresh 4-MB array per chunk has its pages faulted in by the kernel
    every time: ~7k page faults and ~15 ms of system time per paper-size
    embedder forward+backward on a 2-vCPU Xeon VM. The GEMM outputs, 0.9 MB
    per chunk, faulted in 430 more pages per paper-size forward. One buffer
    per slot and thread, refilled chunk after chunk, avoids that. Buffers
    over the budget are not kept.
    """
    buf = getattr(_workspace, slot, None)
    if buf is None or buf.size < n or buf.dtype != dt:
        buf = np.empty(n, dtype=dt)
        if buf.nbytes <= _COL_BUDGET_BYTES:
            setattr(_workspace, slot, buf)
    return buf[:n]


def _spatial_col_chunks(xp, ks, stride, out_shape):
    """Yield (b0, b1, i0, i1, cols) covering items [0, N) x output rows
    [0, Ho) of a valid conv over the C-contiguous xp (N, ci, Tp, Hp, Wp).

    ``cols`` is (b1-b0, ci*kh*kw, Tu, (i1-i0)*Wo), where Tu = kt + st*(To-1)
    is the number of padded time steps the conv reads: row (c, b, d) at time
    t holds xp[n, c, t, b + sh*i, d + sw*j] for every output row i and
    column j of the chunk. Only the spatial taps are lowered; the time taps
    are slices of the time axis (``_time_taps``). A chunk holds whole items
    when one item's columns fit ``_COL_BUDGET_BYTES``, and a run of one
    item's output rows otherwise; its column buffer stays within the budget
    unless a single output row needs more. Time is never split: each split
    would copy the kt-1 halo steps again.
    """
    kt, kh, kw = ks
    st, sh, sw = stride
    To, Ho, Wo = out_shape
    N, ci = xp.shape[:2]
    Tu = kt + st * (To - 1)
    sn, sc, s_t, s_h, s_w = xp.strides
    # (N, ci, kh, kw, Tu, Ho, Wo): spatial tap (b, d) of output (i, j) at t
    win = np.ndarray((N, ci, kh, kw, Tu, Ho, Wo), xp.dtype, xp, 0,
                     (sn, sc, s_h, s_w, s_t, sh * s_h, sw * s_w))
    fit = max(1, _COL_BUDGET_BYTES // (ci * kh * kw * Tu * Wo * xp.itemsize))
    if fit >= Ho:
        nb, rows = max(1, min(N, fit // Ho)), Ho
        spans = [(b, min(N, b + nb), 0, Ho) for b in range(0, N, nb)]
    else:
        nb, rows = 1, fit
        spans = [(b, b + 1, i, min(Ho, i + fit))
                 for b in range(N) for i in range(0, Ho, fit)]
    buf = _col_buffer(nb * ci * kh * kw * Tu * rows * Wo, xp.dtype)
    for b0, b1, i0, i1 in spans:
        shape = (b1 - b0, ci, kh, kw, Tu, i1 - i0, Wo)
        part = buf[: math.prod(shape)].reshape(shape)
        np.copyto(part, win[b0:b1, :, :, :, :, i0:i1])
        yield b0, b1, i0, i1, part.reshape(b1 - b0, ci * kh * kw, Tu, -1)


def _time_taps(cols, kt, st, To):
    """A chunk's time taps as one (items, kt, rows, To*columns) array: tap
    a holds the time steps a, a + st, ..., a + st*(To-1) of cols (items,
    rows, Tu, columns). A view of cols at time stride 1, where each tap is
    a contiguous slice; a copy otherwise."""
    nb, K, _, R = cols.shape
    sn, sk, s_t, sr = cols.strides
    taps = np.ndarray((nb, kt, K, To, R), cols.dtype, cols, 0,
                      (sn, s_t, sk, st * s_t, sr))
    return taps.reshape(nb, kt, K, To * R)


def _conv3d_valid(xp, kernel, stride, out_shape):
    """Unpadded cross-correlation of the C-contiguous xp (N, ci, ...) with
    the kernel array (co, ci, kt, kh, kw): (N, co, To, Ho, Wo)."""
    co, ci, kt, kh, kw = kernel.shape
    To, Ho, Wo = out_shape
    # w[a] is time tap a as (co, ci*kh*kw), rows ordered as the columns
    w = kernel.transpose(2, 0, 1, 3, 4).reshape(kt, co, -1)
    y = np.empty((xp.shape[0], co, To, Ho, Wo), dtype=kernel.dtype)
    for b0, b1, i0, i1, cols in _spatial_col_chunks(xp, (kt, kh, kw), stride,
                                                    out_shape):
        # one GEMM per (item, time tap) in one matmul; the sum over the taps
        # is written into the chunk's part of y
        taps = _time_taps(cols, kt, stride[0], To)
        nb, rows = b1 - b0, i1 - i0
        z = _col_buffer(nb * kt * co * To * rows * Wo, y.dtype, "gemm")
        np.matmul(w, taps, out=z.reshape(nb, kt, co, -1))
        z.reshape(nb, kt, co, To, rows, Wo).sum(1, out=y[b0:b1, :, :, i0:i1])
    return y


def _conv3d_kernel_grad(xp, g, ks, stride):
    """Gradient (co, ci, kt, kh, kw) of a valid conv over the C-contiguous
    xp (N, ci, Tp, Hp, Wp) for the output gradient g (N, co, To, Ho, Wo),
    summed over the items.

    g is laid out on xp's flat padded grid, zeros elsewhere: gp[n, o, p]
    holds g[n, o, t, i, j] at p = st*t*Hp*Wp + sh*i*Wp + sw*j, p < L. Tap
    (a, b, d) then reads xp at p + off, off = a*Hp*Wp + b*Wp + d, so its
    gradient is gp[n] @ xp[n, :, off:off + L].T, one shifted dot product
    per (o, c) and no lowered columns. off + L never passes the end of xp.
    """
    N, ci = xp.shape[:2]
    co, To, Ho, Wo = g.shape[1:]
    kt, kh, kw = ks
    st, sh, sw = stride
    Hp, Wp = xp.shape[3:]
    L = st * (To - 1) * Hp * Wp + sh * (Ho - 1) * Wp + sw * (Wo - 1) + 1
    gp = _col_buffer(N * co * L, g.dtype)
    gp.fill(0)
    e = gp.itemsize
    np.ndarray((N, co, To, Ho, Wo), gp.dtype, gp, 0,
               (co * L * e, L * e, st * Hp * Wp * e, sh * Wp * e,
                sw * e))[...] = g
    # (N, kt, kh, kw, L, ci): tap (a, b, d) of item n as an (L, ci) matrix
    sn, sc, s_t, s_h, s_w = xp.strides
    taps = np.ndarray((N, kt, kh, kw, L, ci), xp.dtype, xp, 0,
                      (sn, s_t, s_h, s_w, s_w, sc))
    gk = np.matmul(gp.reshape(N, 1, 1, 1, co, L), taps).sum(0)
    return gk.transpose(3, 4, 0, 1, 2)


def _triple(v, name: str, lo: int) -> tuple:
    """v if it is a tuple of 3 ints >= lo; a ParameterError otherwise."""
    if (not isinstance(v, tuple) or len(v) != 3
            or not all(isinstance(n, int) and n >= lo for n in v)):
        raise ParameterError(
            f"conv3d: {name} must be a tuple of 3 ints >= {lo}, got {v!r}")
    return v


def conv3d(x: Tensor, kernel: Tensor, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Volumetric cross-correlation.

    x: (ch_in, T, H, W) or (B, ch_in, T, H, W), kernel: (ch_out, ch_in, kT,
    kH, kW); stride and padding are tuples of 3 ints, stride >= 1 and
    padding >= 0. Output extent per dim: (dim + 2*pad - k)//stride + 1,
    which must be >= 1.

    Computed on spatial-only im2col columns with one GEMM per time tap
    (MEC, Cho & Brand, 2017, arXiv:1706.06873). With xp the zero-padded
    input, S(xp) lowers only the kH*kW spatial taps, once per padded time
    step the conv reads: a (ci*kH*kW, Tp, Ho*Wo) array per item (fewer
    than Tp steps when sT > 1 leaves some unread), rows ordered channel,
    then tap. S_a is its time slice a, a + sT, ..., a + sT*(To-1), a
    contiguous view at time stride 1, and W_a is the kernel's time tap a
    as (co, ci*kH*kW). Then:

      * forward:         y    = sum_a W_a @ S_a(xp)
      * kernel gradient: no columns (kn2row, Vasudevan et al., 2017,
        arXiv:1704.04428, applied to the weight gradient). g is placed on
        xp's flat padded grid, zeros between its entries, and each of the
        kT*kH*kW taps is one GEMM of it with xp shifted by the tap's flat
        offset: co*ci dot products of length ~Tp*Hp*Wp per tap and item
        (``_conv3d_kernel_grad``)
      * input gradient:  the full correlation of g, dilated by the stride
        (stride-1 zeros between entries) and padded by k-1, with the
        kernel flipped in all three taps and transposed to (ci, co, ...),
        evaluated over the unpadded input range by the same valid conv.

    The 27-tap im2col layout copies ci*kT*kH*kW*To*Ho*Wo elements per item;
    this one copies ci*kH*kW*Tp*Ho*Wo, half as many for the models' 3x3x3
    kernel over 4 frames (To = 4, Tp = 6). A forward plus backward lowers
    columns twice: once for y and once for the input gradient.

    The column buffer is bounded by ``_COL_BUDGET_BYTES`` (8 MiB): it holds
    the whole batch when it fits, runs of whole items when one item fits,
    and runs of one item's output rows otherwise. At paper size (8 ch x 4 x
    36 x 64) one item's columns are 7.6 MiB, so each item is one chunk and
    runs kT GEMMs; at 4 MiB it took two half-height chunks and twice the
    GEMMs. Time is not split, as a split would copy the kT-1 halo steps
    again. The bound keeps peak RSS down: a full-volume buffer at paper
    size raised the peak RSS of the paper-size wavenet and deep-fusion
    benchmark workloads by 11-12%. Besides the buffer, each chunk's GEMMs
    return kT outputs before their sum (1.8 MB per chunk at paper size).
    The kernel gradient's padded g (N*co*L elements, 2.5 MB at batch 4)
    reuses the column buffer, which it no longer needs for columns.
    """
    if x.data.ndim not in (4, 5) or kernel.data.ndim != 5:
        raise ShapeError(
            f"conv3d: x {x.shape} must be 4-D or 5-D, kernel {kernel.shape} "
            "must be 5-D"
        )
    stride = _triple(stride, "stride", 1)
    pt, ph, pw = padding = _triple(padding, "padding", 0)
    co, ci, kt, kh, kw = kernel.shape
    if x.shape[-4] != ci:
        raise ShapeError(f"conv3d: x channels {x.shape} vs kernel {kernel.shape}")
    T, H, W = x.shape[-3:]
    ks = (kt, kh, kw)
    outs = []
    for dim, k, s, p in zip((T, H, W), ks, stride, padding):
        if dim + 2 * p < k:
            raise ShapeError(
                f"conv3d: kernel {kernel.shape} larger than padded input {x.shape} "
                f"with padding {padding}"
            )
        outs.append((dim + 2 * p - k) // s + 1)
    To, Ho, Wo = outs
    x5 = x.data.reshape((-1,) + x.shape[-4:])
    N = x5.shape[0]
    xp = np.zeros((N, ci, T + 2 * pt, H + 2 * ph, W + 2 * pw), dtype=x5.dtype)
    xp[:, :, pt: pt + T, ph: ph + H, pw: pw + W] = x5
    y = _conv3d_valid(xp, kernel.data, stride, outs)
    out = Tensor._result(y.reshape(x.shape[:-4] + y.shape[1:]), (x, kernel),
                         None)
    if out.requires_grad:
        def bw(g, x=x, kernel=kernel, xp=xp):
            g5 = g.reshape(N, co, To, Ho, Wo)
            gx = gk = None
            if kernel.requires_grad:
                gk = _conv3d_kernel_grad(xp, g5, ks, stride)
            if x.requires_grad:
                # g dilated by the stride and padded by k-1-p, cut to the
                # extent k-1+n that lines up with x: output i sits at
                # k-1-p + s*i, and the outputs that fall outside it read only
                # padding. A valid correlation over it yields x's gradient.
                gd = np.zeros((N, co, T + kt - 1, H + kh - 1, W + kw - 1),
                              dtype=g.dtype)
                src, dst = [slice(None)] * 2, [slice(None)] * 2
                for n, k, s, p, o in zip((T, H, W), ks, stride, padding, outs):
                    i0 = max(0, -((k - 1 - p) // s))
                    i1 = min(o, (n + p - 1) // s + 1)
                    q = k - 1 - p + s * i0
                    src.append(slice(i0, i1))
                    dst.append(slice(q, q + s * (i1 - i0), s))
                gd[tuple(dst)] = g5[tuple(src)]
                wf = kernel.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
                gx = _conv3d_valid(gd, wf, (1, 1, 1), (T, H, W)).reshape(
                    x.shape)
            return gx, gk
        out._backward = bw
    return out


def conv1x1_channels(x: Tensor, kernel: Tensor, axis: int = 0) -> Tensor:
    """Per-position channel mixing:
    (..., ch_in, ...) x (ch_out, ch_in) -> (..., ch_out, ...).

    ``axis`` is x's channel axis. The axes before it are batch axes and the
    axes after it positions; a negative ``axis`` counts from the end, so
    one call takes x with or without a leading batch axis.
    """
    if kernel.data.ndim != 2:
        raise ShapeError(f"conv1x1: kernel {kernel.shape} must be (ch_out, ch_in)")
    shape = x.shape
    co, ci = kernel.shape
    if not -len(shape) <= axis < len(shape) or shape[axis] != ci:
        raise ShapeError(
            f"conv1x1: x channels {x.shape} on axis {axis} vs kernel {kernel.shape}"
        )
    axis %= len(shape)
    x3 = x.reshape(math.prod(shape[:axis]), ci, -1)
    return (kernel @ x3).reshape(shape[:axis] + (co,) + shape[axis + 1:])


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
    """Scaled dot-product attention over (T, d_model) or (B, T, d_model),
    with optional causal mask.

    All heads at once: q, k and v are viewed as (heads, T, d_head) stacks
    per item, so each product is one stacked matmul and the softmax runs
    once.

    With ``last_n``, only the last ``last_n`` positions attend (to every
    key up to their own position under the causal mask) and the result is
    (last_n, d_model) per item: the last rows of the full result. Keys and
    values still come from all T positions.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError(
            f"attention: x {x.shape} must be (T, d_model) or (B, T, d_model)")
    lead = x.shape[:-2]
    T, d_model = x.shape[-2:]
    h = params.heads
    if d_model % h != 0:
        raise ParameterError(
            f"d_model {d_model} not divisible by head count {h}"
        )
    n = T if last_n is None else last_n
    if not 1 <= n <= T:
        raise ParameterError(f"last_n must be in [1, {T}], got {last_n}")
    dh = d_model // h
    # the item axes stay in front; (T, h, dh) becomes (h, T, dh) behind them
    b = len(lead)
    heads_first = tuple(range(b)) + (b + 1, b, b + 2)
    xq = x if n == T else x[..., T - n:, :]
    q = linear(xq, params.wq, params.bq).reshape(lead + (n, h, dh))
    q = q.transpose(heads_first)
    k = linear(x, params.wk, None).reshape(lead + (T, h, dh))
    k = k.transpose(tuple(range(b)) + (b + 1, b + 2, b))
    v = linear(x, params.wv, params.bv).reshape(lead + (T, h, dh))
    v = v.transpose(heads_first)
    scores = (q @ k) * (1.0 / math.sqrt(dh))            # (..., h, n, T)
    # query i sits at position T-n+i; with n == 1 nothing lies ahead of it
    if causal_mask and n > 1:
        mask = np.triu(np.full((n, T), -1e30, dtype=x.data.dtype), k=T - n + 1)
        scores = scores + Tensor(np.broadcast_to(mask, scores.shape),
                                 dtype=mask.dtype)
    att = scores.softmax_lastdim()
    merged = (att @ v).transpose(heads_first).reshape(lead + (n, d_model))
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
