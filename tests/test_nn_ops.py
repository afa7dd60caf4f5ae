import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landseg.nn import ops
from landseg.nn.networks import PyramidPool


def rel_err(a, n):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return (np.abs(a - n) / denom).max()


def num_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar function at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def check_with_projection(forward, backward, tensors, rng, tol=1e-6):
    """Compare analytic and numeric grads of sum(forward() * R)."""
    out = forward()
    proj = rng.standard_normal(out.shape)
    grads = backward(proj)
    for x, g in zip(tensors, grads):
        n = num_grad(lambda: float((forward() * proj).sum()), x)
        assert rel_err(g, n) < tol


# -------------------------------------------------------------------- conv

@pytest.mark.parametrize("dilation", [1, 2])
def test_conv3x3_gradients(rng, dilation):
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    cache = {}

    def forward():
        y, cache["c"] = ops.conv2d_forward(x, w, b, dilation=dilation)
        return y

    def backward(proj):
        forward()
        dx, dw, db = ops.conv2d_backward(proj, cache["c"])
        return [dx, dw, db]

    check_with_projection(forward, backward, [x, w, b], rng)


def test_conv1x1_gradients(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    w = rng.standard_normal((2, 3, 1, 1))
    b = rng.standard_normal(2)
    cache = {}

    def forward():
        y, cache["c"] = ops.conv2d_forward(x, w, b)
        return y

    def backward(proj):
        forward()
        return list(ops.conv2d_backward(proj, cache["c"]))

    check_with_projection(forward, backward, [x, w, b], rng)


def test_conv_identity_kernel(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y, _ = ops.conv2d_forward(x, w, np.zeros(1))
    assert np.allclose(y, x)


def test_conv_ones_kernel_constant_input():
    x = np.full((1, 1, 5, 5), 3.0)
    w = np.ones((1, 1, 3, 3))
    y, _ = ops.conv2d_forward(x, w, np.zeros(1))
    # reflect padding keeps the neighborhood constant: 9 * 3 everywhere
    assert np.allclose(y, 27.0)


def test_conv_channel_mismatch(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((1, 3, 3, 3))
    with pytest.raises(ValueError, match="channels"):
        ops.conv2d_forward(x, w, np.zeros(1))


def conv_reference(x, w, b, dilation):
    """3x3 conv as a direct sum of shifted slices of the padded input."""
    n, c, h, wd = x.shape
    d = dilation
    xp = np.pad(x, ((0, 0), (0, 0), (d, d), (d, d)), mode="reflect")
    y = np.broadcast_to(b[None, :, None, None], (n, w.shape[0], h, wd)).copy()
    for u in range(3):
        for v in range(3):
            win = xp[:, :, u * d:u * d + h, v * d:v * d + wd]
            y += np.einsum("oc,nchw->nohw", w[:, :, u, v], win)
    return y


def conv_reference_grads(x, w, dy, dilation):
    """(dx, dw, db) of conv_reference, with the reflect padding undone by
    scattering through the padded-to-source index map."""
    n, c, h, wd = x.shape
    d = dilation
    xp = np.pad(x, ((0, 0), (0, 0), (d, d), (d, d)), mode="reflect")
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for u in range(3):
        for v in range(3):
            rows, cols = slice(u * d, u * d + h), slice(v * d, v * d + wd)
            dw[:, :, u, v] = np.einsum("nohw,nchw->oc", dy, xp[:, :, rows, cols])
            dxp[:, :, rows, cols] += np.einsum("oc,nohw->nchw", w[:, :, u, v], dy)
    src_r = np.pad(np.arange(h), d, mode="reflect")
    src_c = np.pad(np.arange(wd), d, mode="reflect")
    dx = np.zeros_like(x)
    np.add.at(dx, (slice(None), slice(None), src_r[:, None], src_c[None, :]), dxp)
    return dx, dw, dy.sum(axis=(0, 2, 3))


def assert_close(a, ref, rtol=1e-12):
    np.testing.assert_allclose(a, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


# (N, C, O, H, W, dilation) of every 3x3 layer the net_map benchmark trains:
# segnet_mini, unet_mini and psp_mini at width 8 on 32 px tiles, batch 4.
NET_MAP_LAYERS = [
    (4, 7, 8, 32, 32, 1), (4, 8, 16, 16, 16, 1), (4, 16, 8, 16, 16, 1),
    (4, 8, 8, 32, 32, 1), (4, 16, 32, 8, 8, 1), (4, 48, 16, 16, 16, 1),
    (4, 24, 8, 32, 32, 1), (4, 8, 8, 32, 32, 2),
]


@pytest.mark.parametrize("shape", NET_MAP_LAYERS + [(3, 2, 5, 6, 9, 1),
                                                    (2, 3, 4, 7, 5, 2)])
def test_conv3x3_matches_shifted_slice_reference(rng, shape):
    n, c, o, h, wd, dilation = shape
    x = rng.standard_normal((n, c, h, wd))
    w = rng.standard_normal((o, c, 3, 3))
    b = rng.standard_normal(o)
    dy = rng.standard_normal((n, o, h, wd))
    y, cache = ops.conv2d_forward(x, w, b, dilation=dilation)
    assert_close(y, conv_reference(x, w, b, dilation))
    for got, ref in zip(ops.conv2d_backward(dy, cache),
                        conv_reference_grads(x, w, dy, dilation)):
        assert got.shape == ref.shape
        assert_close(got, ref)


def reference_conv3x3_dx(dy, cache):
    """dx as one (C*k*k, N*H*W) product, scatter-added window by window:
    the backward that the per-offset, zero-bordered one replaced."""
    _, _, w, (n, c, h, wd), d = cache
    o = w.shape[0]
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(-1, o)
    dcols = (w.reshape(o, -1).T @ dy_mat.T).reshape(c, 3, 3, n, h, wd)
    dxp = np.zeros((c, n, h + 2 * d, wd + 2 * d))
    for u in range(3):
        for v in range(3):
            dxp[:, :, u * d:u * d + h, v * d:v * d + wd] += dcols[:, u, v]
    dxp = dxp.transpose(1, 0, 2, 3)
    dx = dxp[:, :, d:d + h].copy()
    for m in range(d):
        dx[:, :, d - m] += dxp[:, :, m]
        dx[:, :, h - 2 - m] += dxp[:, :, d + h + m]
    out = dx[..., d:d + wd].copy()
    for m in range(d):
        out[..., d - m] += dx[..., m]
        out[..., wd - 2 - m] += dx[..., d + wd + m]
    return out


# Bit equality with the full product holds when N*H*W is a multiple of 8
# and C >= 2: every 3x3 layer of the nets on patches that are multiples of
# 16, at any batch size. Other shapes may round differently.
@pytest.mark.parametrize("shape", NET_MAP_LAYERS + [
    (1, 8, 16, 64, 64, 1), (8, 48, 16, 16, 16, 1), (1, 12, 12, 16, 16, 2),
    (3, 5, 7, 8, 8, 1), (2, 37, 61, 12, 6, 2), (8, 2, 33, 5, 5, 1)])
def test_conv3x3_dx_bits_equal_full_product_reference(rng, shape):
    n, c, o, h, wd, dilation = shape
    x = rng.standard_normal((n, c, h, wd))
    w = rng.standard_normal((o, c, 3, 3))
    # (N, H, W, O) memory order and exact zeros, as after a ReLU backward
    dy = rng.standard_normal((n, h, wd, o)) * (rng.random((n, h, wd, o)) < 0.6)
    dy = dy.transpose(0, 3, 1, 2)
    _, cache = ops.conv2d_forward(x, w, np.zeros(o), dilation=dilation)
    dx, _, _ = ops.conv2d_backward(dy, cache)
    ref = reference_conv3x3_dx(dy, cache)
    assert dx.flags.c_contiguous
    assert dx.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", NET_MAP_LAYERS + [(1, 2, 3, 5, 4, 1),
                                                    (2, 4, 3, 6, 6, 2)])
@pytest.mark.parametrize("k", [1, 3])
def test_conv_backward_without_dx_keeps_dw_db_bits(rng, shape, k):
    n, c, o, h, wd, dilation = shape
    x = rng.standard_normal((n, c, h, wd))
    w = rng.standard_normal((o, c, k, k))
    dy = rng.standard_normal((n, o, h, wd))
    _, cache = ops.conv2d_forward(x, w, np.zeros(o), dilation=dilation)
    dx, dw, db = ops.conv2d_backward(dy, cache)
    none, dw_only, db_only = ops.conv2d_backward(dy, cache, need_dx=False)
    assert dx.shape == x.shape and none is None
    assert dw_only.tobytes() == dw.tobytes()
    assert db_only.tobytes() == db.tobytes()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), o=st.integers(1, 3),
       dilation=st.integers(1, 2), h_extra=st.integers(1, 4),
       w_extra=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_conv3x3_backward_matches_finite_differences(n, c, o, dilation,
                                                     h_extra, w_extra, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, dilation + h_extra, dilation + w_extra))
    w = rng.standard_normal((o, c, 3, 3)) * 0.5
    b = rng.standard_normal(o) * 0.1
    cache = {}

    def forward():
        y, cache["c"] = ops.conv2d_forward(x, w, b, dilation=dilation)
        return y

    def backward(proj):
        forward()
        return list(ops.conv2d_backward(proj, cache["c"]))

    check_with_projection(forward, backward, [x, w, b], rng)


# -------------------------------------------------------------------- relu

def test_relu_values():
    x = np.array([[-2.0, 0.0, 3.0]])
    y, keep = ops.relu_forward(x)
    assert y.tolist() == [[0.0, 0.0, 3.0]]
    assert ops.relu_backward(np.ones_like(x), keep).tolist() == [[0.0, 0.0, 1.0]]


def test_relu_gradient_away_from_zero(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    x[np.abs(x) < 0.05] = 0.5  # keep finite differences off the kink
    cache = {}

    def forward():
        y, cache["k"] = ops.relu_forward(x)
        return y

    def backward(proj):
        forward()
        return [ops.relu_backward(proj, cache["k"])]

    check_with_projection(forward, backward, [x], rng)


# -------------------------------------------------------------------- pool

def test_maxpool_simple():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    pooled, idx = ops.maxpool_forward(x)
    assert pooled[0, 0, 0, 0] == 4.0
    assert idx[0, 0, 0, 0] == 3  # window-local (1, 1)


def test_maxpool_tie_first_row_major():
    x = np.full((1, 1, 2, 2), 5.0)
    pooled, idx = ops.maxpool_forward(x)
    assert idx[0, 0, 0, 0] == 0  # (0, 0) wins ties


def test_maxpool_odd_dims_rejected(rng):
    with pytest.raises(ValueError, match="even"):
        ops.maxpool_forward(rng.standard_normal((1, 1, 3, 4)))


def test_maxpool_gradient_routes_to_winners(rng):
    x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
    pooled, idx = ops.maxpool_forward(x)
    dx = ops.maxpool_backward(np.ones_like(pooled), idx)
    assert dx.sum() == 16.0
    winners = dx == 1.0
    assert winners.sum() == 16
    assert np.array_equal(np.sort(x[winners]), np.sort(pooled.reshape(-1)))


def test_maxpool_finite_difference(rng):
    x = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
    cache = {}

    def forward():
        y, cache["i"] = ops.maxpool_forward(x)
        return y

    def backward(proj):
        forward()
        return [ops.maxpool_backward(proj, cache["i"])]

    check_with_projection(forward, backward, [x], rng)


# ------------------------------------------------------------------ unpool

def test_unpool_places_values():
    pooled = np.array([[[[4.0]]]])
    idx = np.array([[[[3]]]])
    out = ops.max_unpool(pooled, idx, (2, 2))
    assert out[0, 0].tolist() == [[0.0, 0.0], [0.0, 4.0]]


def test_unpool_inverts_pool_support(rng):
    x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
    pooled, idx = ops.maxpool_forward(x)
    up = ops.max_unpool(pooled, idx, (8, 8))
    nz = up != 0
    assert nz.sum() <= pooled.size
    assert np.allclose(up.sum(), pooled.sum())
    assert np.array_equal(np.sort(up[nz]), np.sort(pooled.reshape(-1)))


def test_unpool_bad_dims(rng):
    pooled, idx = ops.maxpool_forward(rng.standard_normal((1, 1, 4, 4)))
    with pytest.raises(ValueError, match="target"):
        ops.max_unpool(pooled, idx, (6, 6))


def test_unpool_gradient(rng):
    x = rng.permutation(16).astype(np.float64).reshape(1, 1, 4, 4)
    pooled, idx = ops.maxpool_forward(x)

    def forward():
        return ops.max_unpool(pooled, idx, (4, 4))

    def backward(proj):
        return [ops.max_unpool_backward(proj, idx)]

    check_with_projection(forward, backward, [pooled], rng)


# The 6-D reshape versions the strided-slice pool and unpool ops replaced:
# each window's four cells gathered on a last axis of length 4.

def _windows(x):
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return xr.reshape(n, c, h // 2, w // 2, 4)


def _unwindow(xr):
    n, c, h2, w2, _ = xr.shape
    xr = xr.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return xr.reshape(n, c, h2 * 2, w2 * 2)


def reference_maxpool(x):
    xr = _windows(x)
    idx = np.argmax(xr, axis=-1)
    return np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0], idx


def reference_scatter(values, idx):
    """maxpool_backward and max_unpool of the reshape versions."""
    out = np.zeros(values.shape + (4,))
    np.put_along_axis(out, idx[..., None], values[..., None], axis=-1)
    return _unwindow(out)


def reference_unpool_backward(dy, idx):
    return np.take_along_axis(_windows(dy), idx[..., None], axis=-1)[..., 0]


def pool_input(rng, kind, shape):
    if kind == "random":
        return rng.standard_normal(shape)
    if kind == "ties":
        # few distinct values, signed zeros among them, as after a ReLU
        x = rng.integers(-1, 2, size=shape).astype(np.float64)
        return np.where(rng.random(shape) < 0.5, x * 0.0, x)
    x = rng.integers(-1, 2, size=shape).astype(np.float64)
    for value, share in ((np.nan, 0.3), (np.inf, 0.1), (-np.inf, 0.1)):
        x[rng.random(shape) < share] = value
    return x


@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 6, 4), (4, 8, 16, 16),
                                   (3, 2, 10, 14)])
def test_pool_ops_equal_reshape_reference(rng, kind, shape):
    """Same bits, same winners (np.argmax's: first maximum, and the first
    NaN over any number), C-contiguous outputs."""
    x = pool_input(rng, kind, shape)
    pooled, idx = ops.maxpool_forward(x)
    ref_pooled, ref_idx = reference_maxpool(x)
    assert pooled.tobytes() == ref_pooled.tobytes()
    assert np.array_equal(idx, ref_idx)
    grad = rng.standard_normal(pooled.shape)
    dy = rng.standard_normal(shape)
    outputs = [
        (ops.maxpool_backward(grad, idx), reference_scatter(grad, ref_idx)),
        (ops.max_unpool(pooled, idx, shape[2:]),
         reference_scatter(ref_pooled, ref_idx)),
        (ops.max_unpool_backward(dy, idx),
         reference_unpool_backward(dy, ref_idx)),
    ]
    for got, ref in [(pooled, ref_pooled)] + outputs:
        assert got.flags.c_contiguous
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_maxpool_first_nan_wins():
    x = np.array([[1.0, np.nan], [np.nan, 5.0]]).reshape(1, 1, 2, 2)
    pooled, idx = ops.maxpool_forward(x)
    assert idx[0, 0, 0, 0] == 1 and np.isnan(pooled[0, 0, 0, 0])


# ------------------------------------------------- upsample / concat / avg

def test_upsample_concat_shapes_and_grad(rng):
    dec = rng.standard_normal((1, 2, 3, 3))
    skip = rng.standard_normal((1, 4, 6, 6))
    cache = {}

    def forward():
        up = ops.upsample2x_forward(dec)
        y, cache["s"] = ops.concat_forward([skip, up])
        return y

    y = forward()
    assert y.shape == (1, 6, 6, 6)
    assert np.allclose(y[:, :4], skip)

    def backward(proj):
        forward()
        dskip, dup = ops.concat_backward(proj, cache["s"])
        return [dskip, ops.upsample2x_backward(dup)]

    check_with_projection(forward, backward, [skip, dec], rng)


def test_upsample_single_value():
    x = np.array([[[[7.0]]]])
    assert (ops.upsample2x_forward(x) == 7.0).all()


def test_zero_skip_passes_decoder_through(rng):
    dec = rng.standard_normal((1, 3, 2, 2))
    skip = np.zeros((1, 3, 4, 4))
    y, _ = ops.concat_forward([skip, ops.upsample2x_forward(dec)])
    assert np.allclose(y[:, 3:], ops.upsample2x_forward(dec))


def test_avgpool_and_upsample_to_grad(rng):
    x = rng.standard_normal((1, 2, 8, 8))
    cache = {}

    def forward():
        y, cache["hw"] = ops.avgpool_to_forward(x, 2)
        return ops.upsample_to_forward(y, (8, 8))

    def backward(proj):
        forward()
        d = ops.upsample_to_backward(proj, (2, 2))
        return [ops.avgpool_to_backward(d, cache["hw"])]

    check_with_projection(forward, backward, [x], rng)


def test_avgpool_divisibility(rng):
    with pytest.raises(ValueError, match="divisible"):
        ops.avgpool_to_forward(rng.standard_normal((1, 1, 6, 6)), 4)


# ----------------------------------------------------------------- pyramid

def test_pyramid_constant_input_bin1():
    layer = PyramidPool("py", in_ch=2, reduced=1)
    layer.init_weights(np.random.default_rng(0))
    x = np.full((1, 2, 8, 8), 3.0)
    y = layer.forward(x)
    assert y.shape == (1, 2 + 3 * 1, 8, 8)
    # every pyramid branch of a constant input is spatially constant
    for ch in range(2, y.shape[1]):
        assert np.allclose(y[0, ch], y[0, ch, 0, 0])


def test_pyramid_channel_count(rng):
    layer = PyramidPool("py", in_ch=8, reduced=2)
    layer.init_weights(rng)
    y = layer.forward(rng.standard_normal((1, 8, 8, 8)))
    assert y.shape[1] == 8 + 3 * 2


def test_pyramid_full_gradient(rng):
    layer = PyramidPool("py", in_ch=2, reduced=1)
    layer.init_weights(rng)
    x = rng.standard_normal((1, 2, 8, 8))
    tensors = [x]
    for c in layer.convs:
        tensors += [c.w, c.b]

    def forward():
        return layer.forward(x)

    def backward(proj):
        layer.zero_grads()
        forward()
        dx = layer.backward(proj)
        return [dx] + layer.grads()

    check_with_projection(forward, backward, tensors, rng)


def test_pyramid_divisibility(rng):
    layer = PyramidPool("py", in_ch=1, reduced=1)
    layer.init_weights(rng)
    with pytest.raises(ValueError, match="divisible"):
        layer.forward(rng.standard_normal((1, 1, 6, 6)))


# -------------------------------------------------------------------- loss

def test_ce_uniform_logits():
    logits = np.zeros((1, 4, 2, 2))
    labels = np.zeros((1, 2, 2), dtype=np.uint8)
    loss, _ = ops.weighted_ce_loss(logits, labels, np.ones(4))
    assert loss == pytest.approx(np.log(4.0))


def test_ce_confident_correct():
    logits = np.zeros((1, 4, 1, 1))
    logits[0, 2, 0, 0] = 30.0
    labels = np.full((1, 1, 1), 2, dtype=np.uint8)
    loss, _ = ops.weighted_ce_loss(logits, labels, np.ones(4))
    assert loss < 1e-12


def test_ce_weight_normalization_cancels():
    logits = np.zeros((1, 2, 2, 2))
    weights = np.array([2.0, 1.0])
    all0 = np.zeros((1, 2, 2), dtype=np.uint8)
    all1 = np.ones((1, 2, 2), dtype=np.uint8)
    l0, _ = ops.weighted_ce_loss(logits, all0, weights)
    l1, _ = ops.weighted_ce_loss(logits, all1, weights)
    assert l0 == pytest.approx(l1)


def test_ce_excludes_nodata_and_mask(rng):
    logits = rng.standard_normal((1, 3, 2, 2))
    labels = np.array([[[0, 255], [1, 2]]], dtype=np.uint8)
    valid = np.array([[[True, True], [False, True]]])
    loss, grad = ops.weighted_ce_loss(logits, labels, np.ones(3), valid)
    assert np.isfinite(loss)
    assert np.allclose(grad[0, :, 0, 1], 0.0)  # nodata pixel
    assert np.allclose(grad[0, :, 1, 0], 0.0)  # masked pixel


def test_ce_all_nodata_rejected():
    logits = np.zeros((1, 2, 1, 1))
    labels = np.full((1, 1, 1), 255, dtype=np.uint8)
    with pytest.raises(ValueError, match="valid"):
        ops.weighted_ce_loss(logits, labels, np.ones(2))


def test_ce_gradient_finite_difference(rng):
    logits = rng.standard_normal((2, 3, 3, 3))
    labels = rng.integers(0, 3, size=(2, 3, 3)).astype(np.uint8)
    labels[0, 0, 0] = 255
    weights = np.array([2.0, 1.0, 0.5])

    def loss_fn():
        return ops.weighted_ce_loss(logits, labels, weights)[0]

    _, grad = ops.weighted_ce_loss(logits, labels, weights)
    n = num_grad(loss_fn, logits)
    assert rel_err(grad, n) < 1e-6


def test_softmax_sums_to_one(rng):
    logits = rng.standard_normal((2, 5, 4, 4)) * 10
    p = ops.softmax_probs(logits)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert (p >= 0).all()
