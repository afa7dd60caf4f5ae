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


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int = 1):
    """Cross-correlation with reflect padding; kernel 3x3 or 1x1.

    x: (N, C, H, W); w: (O, C, k, k); b: (O,). Output spatial dims equal
    the input's for any dilation >= 1.

    A 3x3 kernel is one matrix product over channel-major im2col columns
    (Chellapilla, Puri & Simard 2006): ``cols`` is laid out
    (C, k, k, N, H, W), viewed as (C*k*k, N*H*W), and filled from the k*k
    shifted slices of the reflect-padded input. The product is taken as
    ``cols.T @ w.T``: these operand orientations make BLAS sum in the same
    order as a row-major im2col does, and the output keeps its
    (N, H, W, O) memory order, which later layers' sums depend on.

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
        y = y.transpose(0, 3, 1, 2) + b[None, :, None, None]
        return y, ("1x1", x, w)

    pad = dilation
    if h <= pad or wd <= pad:
        raise ValueError("input too small for reflect padding")
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
    xp = xp.transpose(1, 0, 2, 3)                         # (C,N,Hp,Wp) view
    cols = np.empty((c, k, k, n, h, wd))
    for u in range(k):
        for v in range(k):
            cols[:, u, v] = xp[:, :, u * dilation:u * dilation + h,
                               v * dilation:v * dilation + wd]
    cols = cols.reshape(c * k * k, n * h * wd)
    wmat = w.reshape(o, c * k * k)
    y = (cols.T @ wmat.T).reshape(n, h, wd, o).transpose(0, 3, 1, 2)
    y = y + b[None, :, None, None]
    return y, ("3x3", cols, w, (n, c, h, wd), dilation)


def conv2d_backward(dy: np.ndarray, cache):
    """Gradients (dx, dw, db) of conv2d_forward, from its cache.

    For 3x3 kernels dw = dY.T @ cols.T and dcols = w.T @ dY, with dY the
    (N*H*W, O) gradient matrix, made contiguous so that BLAS takes the
    same kernel whatever the memory order of dy. The k*k column slices are
    scatter-added in (C, N, Hp, Wp) order, then folded back over the
    reflect padding into a contiguous (N, C, H, W) dx.
    """
    if cache[0] == "1x1":
        _, x, w = cache
        db = dy.sum(axis=(0, 2, 3))
        dw = np.tensordot(dy, x, axes=([0, 2, 3], [0, 2, 3]))[:, :, None, None]
        dx = np.tensordot(dy, w[:, :, 0, 0], axes=([1], [0])).transpose(0, 3, 1, 2)
        return dx, dw, db

    _, cols, w, (n, c, h, wd), dilation = cache
    o = w.shape[0]
    k = w.shape[2]
    pad = dilation
    wmat = w.reshape(o, c * k * k)
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * h * wd, o)
    db = dy.sum(axis=(0, 2, 3))
    dw = (dy_mat.T @ cols.T).reshape(w.shape)
    dcols = (wmat.T @ dy_mat.T).reshape(c, k, k, n, h, wd)
    dxp = np.zeros((c, n, h + 2 * pad, wd + 2 * pad))
    for u in range(k):
        for v in range(k):
            dxp[:, :, u * dilation:u * dilation + h,
                v * dilation:v * dilation + wd] += dcols[:, u, v]
    dx = _reflect_fold_axis(dxp.transpose(1, 0, 2, 3), pad, axis=2)
    dx = _reflect_fold_axis(dx, pad, axis=3)
    return dx, dw, db


def relu_forward(x: np.ndarray):
    keep = x > 0
    return x * keep, keep


def relu_backward(dy: np.ndarray, keep: np.ndarray) -> np.ndarray:
    return dy * keep


def maxpool_forward(x: np.ndarray):
    """2x2 max pool; returns (pooled, indices).

    indices hold the winning in-window position 0..3 in row-major order,
    so ties go to the first cell of the window.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool needs even spatial dims")
    xr = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    xr = xr.reshape(n, c, h // 2, w // 2, 4)
    idx = np.argmax(xr, axis=-1)
    pooled = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    return pooled, idx


def maxpool_backward(dpooled: np.ndarray, idx: np.ndarray) -> np.ndarray:
    n, c, h2, w2 = dpooled.shape
    dxr = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(dxr, idx[..., None], dpooled[..., None], axis=-1)
    dxr = dxr.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return dxr.reshape(n, c, h2 * 2, w2 * 2)


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
    yr = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(yr, idx[..., None], pooled[..., None], axis=-1)
    yr = yr.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return yr.reshape(n, c, h2 * 2, w2 * 2)


def max_unpool_backward(dy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gather the gradient back from the scattered positions."""
    n, c, h, w = dy.shape
    dyr = dy.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    dyr = dyr.reshape(n, c, h // 2, w // 2, 4)
    return np.take_along_axis(dyr, idx[..., None], axis=-1)[..., 0]


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
