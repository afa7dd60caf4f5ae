"""Forward/backward pairs for the segmentation networks, all float64.

Every forward returns (output, cache); the matching backward consumes the
upstream gradient plus that cache and returns exact input gradients. Spatial
convolutions reflect-pad so output dims equal input dims.
"""

from __future__ import annotations

import numpy as np

from ..raster import NODATA_ID


def _reflect_fold_axis(dpadded: np.ndarray, pad: int, axis: int) -> np.ndarray:
    """Collapse a reflect-padded gradient back onto the source axis."""
    if pad == 0:
        return dpadded
    n = dpadded.shape[axis] - 2 * pad
    core = [slice(None)] * dpadded.ndim
    core[axis] = slice(pad, pad + n)
    out = dpadded[tuple(core)].copy()

    def take(i):
        sl = [slice(None)] * dpadded.ndim
        sl[axis] = i
        return dpadded[tuple(sl)]

    def add_to(i, val):
        sl = [slice(None)] * out.ndim
        sl[axis] = i
        out[tuple(sl)] += val

    for m in range(pad):
        add_to(pad - m, take(m))                # top/left mirror
        add_to(n - 2 - m, take(pad + n + m))    # bottom/right mirror
    return out


def _reflect_pad_channel_major(x: np.ndarray, pad: int) -> np.ndarray:
    """np.pad(x, reflect) by pad on both spatial axes, written straight
    into a (C, N, H + 2*pad, W + 2*pad) buffer."""
    n, c, h, w = x.shape
    xp = np.empty((c, n, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    for m in range(1, pad + 1):  # rows, then columns over every row
        xp[:, :, pad - m] = xp[:, :, pad + m]
        xp[:, :, pad + h - 1 + m] = xp[:, :, pad + h - 1 - m]
    for m in range(1, pad + 1):
        xp[..., pad - m] = xp[..., pad + m]
        xp[..., pad + w - 1 + m] = xp[..., pad + w - 1 - m]
    return xp


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int = 1):
    """Cross-correlation with reflect padding; kernel 3x3 or 1x1.

    x: (N, C, H, W); w: (O, C, k, k); b: (O,). Output spatial dims equal
    the input's for any dilation >= 1.

    A 3x3 kernel is one matrix product over channel-major im2col columns
    (Chellapilla, Puri & Simard 2006): ``cols`` is laid out
    (C, k, k, N, H, W), viewed as (C*k*k, N*H*W), and filled from the k*k
    shifted slices of the input, reflect-padded straight into (C, N, Hp, Wp)
    order. The product is taken as ``w.reshape(O, -1) @ cols`` and written,
    bias added, into (N, H, W, O) memory order, which later layers' sums
    depend on. With N*H*W a multiple of 8 (every layer of the nets on
    patches that are multiples of 16) it has the bits of ``cols.T @ w.T``,
    the orientation that sums as a row-major im2col does, in up to half
    the time; other shapes may round differently.

    The cache is ``("3x3", cols, w, (N, C, H, W), dilation)`` for 3x3 and
    ``("1x1", x, w)`` for 1x1 kernels. ``bench/tracer.py`` reads the
    weight from ``cache[2]``, so that slot must stay the weight.
    """
    n, c, h, wd = x.shape
    o, ci, k, k2 = w.shape
    if ci != c:
        raise ValueError(f"kernel expects {ci} input channels, got {c}")
    if k != k2 or k not in (1, 3):
        raise ValueError("kernels must be 1x1 or 3x3")
    if k == 1:
        y = np.tensordot(x, w[:, :, 0, 0], axes=([1], [1]))  # (N,H,W,O)
        y = y.transpose(0, 3, 1, 2)
        y += b[None, :, None, None]
        return y, ("1x1", x, w)

    pad = dilation
    if h <= pad or wd <= pad:
        raise ValueError("input too small for reflect padding")
    xp = _reflect_pad_channel_major(x, pad)
    cols = np.empty((c, k, k, n, h, wd))
    for u in range(k):
        for v in range(k):
            cols[:, u, v] = xp[:, :, u * dilation:u * dilation + h,
                               v * dilation:v * dilation + wd]
    cols = cols.reshape(c * k * k, n * h * wd)
    prod = w.reshape(o, c * k * k) @ cols                # (O, N*H*W)
    y = np.empty((n, h, wd, o))
    np.add(prod.T.reshape(n, h, wd, o), b, out=y)
    return y.transpose(0, 3, 1, 2), ("3x3", cols, w, (n, c, h, wd), dilation)


def conv2d_backward(dy: np.ndarray, cache, need_dx: bool = True):
    """Gradients (dx, dw, db) of conv2d_forward, from its cache.

    dx is None when need_dx is false (a network's first layer, whose input
    gradient nobody reads); dw and db come out the same either way.

    For 3x3 kernels dw = dY.T @ cols.T, with dY the (N*H*W, O) gradient
    matrix, made contiguous so that BLAS takes the same kernel whatever
    the memory order of dy. dx is built one kernel offset (u, v) at a
    time, in row-major order: w[:, :, u, v].T @ dY.T, the (C, N*H*W) row
    slice of the im2col gradient w.T @ dY for that offset, is added into
    a zeroed (C, N, Hp, Wp) buffer at its shifted window, and the buffer
    is folded back over the reflect padding into a contiguous
    (N, C, H, W) dx. The full (C*k*k, N*H*W) gradient is never held. dY
    is zero-bordered to (N, Hp, Wp) first, so each window's add is one
    contiguous pass: for finite w the border's entries are zeros and
    change no value where they land. With N*H*W a multiple of 8 and
    C >= 2 every element gets the bits and the add order it would get
    from the full product; other shapes may round differently.
    """
    if cache[0] == "1x1":
        _, x, w = cache
        db = dy.sum(axis=(0, 2, 3))
        dw = np.tensordot(dy, x, axes=([0, 2, 3], [0, 2, 3]))[:, :, None, None]
        dx = None
        if need_dx:
            dx = np.tensordot(dy, w[:, :, 0, 0], axes=([1], [0])).transpose(0, 3, 1, 2)
        return dx, dw, db

    _, cols, w, (n, c, h, wd), dilation = cache
    o = w.shape[0]
    k = w.shape[2]
    pad = dilation
    hp, wp = h + 2 * pad, wd + 2 * pad
    dy_nhwo = dy.transpose(0, 2, 3, 1)
    dy_mat = np.ascontiguousarray(dy_nhwo).reshape(n * h * wd, o)
    db = dy.sum(axis=(0, 2, 3))
    dw = (dy_mat.T @ cols.T).reshape(w.shape)
    if not need_dx:
        return None, dw, db
    dy_border = np.zeros((n, hp, wp, o))
    dy_border[:, :h, :wd] = dy_nhwo
    dy_border = dy_border.reshape(n * hp * wp, o)
    # (k, k, O, C): each w_uv[u, v].T is (C, O) in Fortran order, the
    # memory order its rows have in the full product's w.reshape(O, -1).T
    w_uv = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    size = c * n * hp * wp
    block = np.empty((c, n * hp * wp))
    # the last window's border zeros run up to 2 * pad * (wp + 1) past size
    dxp = np.zeros(size + 2 * pad * (wp + 1))
    for u in range(k):
        for v in range(k):
            np.matmul(w_uv[u, v].T, dy_border.T, out=block)
            at = (u * wp + v) * dilation
            dxp[at:at + size] += block.reshape(-1)
    dxp = dxp[:size].reshape(c, n, hp, wp)
    dx = _reflect_fold_axis(dxp.transpose(1, 0, 2, 3), pad, axis=2)
    dx = _reflect_fold_axis(dx, pad, axis=3)
    return dx, dw, db


def relu_forward(x: np.ndarray):
    keep = x > 0
    return x * keep, keep


def relu_backward(dy: np.ndarray, keep: np.ndarray) -> np.ndarray:
    return dy * keep


def _cells(a: np.ndarray):
    """The four stride-2 views of a grid of 2x2 windows over the last two
    axes, in window row-major order: (0, 0), (0, 1), (1, 0), (1, 1)."""
    return (a[:, :, 0::2, 0::2], a[:, :, 0::2, 1::2],
            a[:, :, 1::2, 0::2], a[:, :, 1::2, 1::2])


def maxpool_forward(x: np.ndarray):
    """2x2 max pool; returns (pooled, indices).

    indices hold the winning in-window position 0..3 in row-major order,
    chosen as np.argmax over the window would: ties go to the first cell,
    and a NaN wins over every number, the first NaN over later ones. The
    four window cells are compared as stride-2 views of x, so no copy of
    x is made; pooled is C-contiguous.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool needs even spatial dims")
    cells = _cells(x)
    pooled = cells[0].copy()
    idx = np.zeros(pooled.shape, dtype=np.int8)
    take = np.empty(pooled.shape, dtype=bool)
    is_num = np.empty(pooled.shape, dtype=bool)
    for j, cell in enumerate(cells[1:], start=1):
        # argmax's rule: move on unless cell <= best; stop at a NaN best
        np.less_equal(cell, pooled, out=take)
        np.logical_not(take, out=take)
        np.equal(pooled, pooled, out=is_num)
        take &= is_num
        np.copyto(pooled, cell, where=take)
        np.copyto(idx, j, where=take)
    return pooled, idx


def _scatter_cells(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Zeros of twice values' spatial size, each value at its window's
    recorded cell; C-contiguous (N, C, 2H, 2W)."""
    n, c, h2, w2 = values.shape
    out = np.zeros((n, c, h2 * 2, w2 * 2))
    for j, cell in enumerate(_cells(out)):
        np.copyto(cell, values, where=idx == j)
    return out


def maxpool_backward(dpooled: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return _scatter_cells(dpooled, idx)


def max_unpool(pooled: np.ndarray, idx: np.ndarray, out_hw) -> np.ndarray:
    """Restore pooled values to their recorded positions, zeros elsewhere."""
    n, c, h2, w2 = pooled.shape
    if tuple(out_hw) != (h2 * 2, w2 * 2):
        raise ValueError(
            f"unpool target {tuple(out_hw)} does not match indices "
            f"({h2 * 2}, {w2 * 2})"
        )
    if idx.min() < 0 or idx.max() > 3:
        raise ValueError("unpool index out of range")
    return _scatter_cells(pooled, idx)


def max_unpool_backward(dy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gather the gradient back from the scattered positions."""
    cells = _cells(dy)
    out = cells[0].copy()
    for j, cell in enumerate(cells[1:], start=1):
        np.copyto(out, cell, where=idx == j)
    return out


def upsample2x_forward(x: np.ndarray) -> np.ndarray:
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample2x_backward(dy: np.ndarray) -> np.ndarray:
    n, c, h, w = dy.shape
    return dy.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def concat_forward(parts):
    sizes = [p.shape[1] for p in parts]
    return np.concatenate(parts, axis=1), sizes


def concat_backward(dy: np.ndarray, sizes):
    out, at = [], 0
    for s in sizes:
        out.append(dy[:, at:at + s])
        at += s
    return out


def avgpool_to_forward(x: np.ndarray, bins: int):
    """Average-pool the spatial dims down to bins x bins."""
    n, c, h, w = x.shape
    if h % bins or w % bins:
        raise ValueError(f"spatial dims must be divisible by {bins}")
    bh, bw = h // bins, w // bins
    y = x.reshape(n, c, bins, bh, bins, bw).mean(axis=(3, 5))
    return y, (h, w)


def avgpool_to_backward(dy: np.ndarray, in_hw) -> np.ndarray:
    n, c, bins, _ = dy.shape
    h, w = in_hw
    bh, bw = h // bins, w // bins
    dx = dy[:, :, :, None, :, None] / (bh * bw)
    return np.broadcast_to(dx, (n, c, bins, bh, bins, bw)).reshape(n, c, h, w)


def upsample_to_forward(x: np.ndarray, out_hw) -> np.ndarray:
    """Nearest-neighbor upsample by integer block repetition."""
    n, c, h, w = x.shape
    oh, ow = out_hw
    if oh % h or ow % w:
        raise ValueError("upsample target must be an integer multiple")
    return x.repeat(oh // h, axis=2).repeat(ow // w, axis=3)


def upsample_to_backward(dy: np.ndarray, in_hw) -> np.ndarray:
    n, c, oh, ow = dy.shape
    h, w = in_hw
    return dy.reshape(n, c, h, oh // h, w, ow // w).sum(axis=(3, 5))


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Channel softmax of (N, K, H, W) logits; per-pixel sums are 1."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def weighted_ce_loss(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray,
                     valid: np.ndarray | None = None):
    """Class-weighted categorical cross-entropy over valid pixels.

    logits: (N, K, H, W); labels: (N, H, W) with 255 = nodata; weights: (K,).
    valid optionally masks further pixels out (e.g. raster nodata). Returns
    (scalar loss, exact gradient w.r.t. logits). The loss is normalized by
    the total weight of the counted pixels.
    """
    n, k, h, w = logits.shape
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    use = labels != NODATA_ID
    if valid is not None:
        use = use & valid
    if not use.any():
        raise ValueError("no valid pixels in the batch")

    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse

    safe = np.where(use, labels, 0).astype(np.int64)
    w_pix = np.where(use, weights[safe], 0.0)
    wsum = w_pix.sum()
    picked = np.take_along_axis(logp, safe[:, None], axis=1)[:, 0]
    loss = float(-(w_pix * picked).sum() / wsum)

    w_norm = w_pix / wsum                       # (N, H, W)
    grad = np.exp(logp) * w_norm[:, None]
    idx = safe[:, None]                         # (N, 1, H, W)
    at_label = np.take_along_axis(grad, idx, axis=1)
    np.put_along_axis(grad, idx, at_label - w_norm[:, None], axis=1)
    return loss, grad
