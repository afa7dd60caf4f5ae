"""The three miniature segmentation architectures.

segnet_mini: two conv+pool encoder stages mirrored by two unpool+conv
decoder stages (pooling indices carried across), 1x1 classifier.
unet_mini: two down stages, a bottleneck, two nearest-upsample + skip-concat
decoder stages, 1x1 classifier.
psp_mini: two full-resolution convs (the second dilated by 2), a {1,2,4}-bin
pyramid pooling block, 1x1 classifier.

Weights initialize He-style (std = sqrt(2/fan_in)) from the run seed. A
per-band input normalization (fitted on the train split by train()) is
stored with the weights and applied in every forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from ..jsondoc import (
    JsonDoc, as_array, at_least, doc_field, finite, list_of, one_of, positive,
)
from ..raster import read_container, write_container

ARCH_TAGS = ("segnet_mini", "unet_mini", "psp_mini")

WEIGHTS_FORMAT = "landseg-weights"
WEIGHTS_VERSION = 1


class Conv2d:
    """3x3 (optionally dilated) or 1x1 convolution layer with bias."""

    def __init__(self, name: str, in_ch: int, out_ch: int, ksize: int = 3, dilation: int = 1):
        self.name = name
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.ksize = ksize
        self.dilation = dilation
        self.w = np.zeros((out_ch, in_ch, ksize, ksize))
        self.b = np.zeros(out_ch)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def init_weights(self, rng: np.random.Generator):
        fan_in = self.in_ch * self.ksize * self.ksize
        self.w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=self.w.shape)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Convolve x; with cache false (inference), keep nothing for
        backward, so no layer's im2col columns outlive its pass."""
        y, saved = ops.conv2d_forward(x, self.w, self.b, dilation=self.dilation)
        self._cache = saved if cache else None
        return y

    def backward(self, dy: np.ndarray, need_dx: bool = True):
        """Accumulate dw and db; return dx, or None without need_dx."""
        dx, dw, db = ops.conv2d_backward(dy, self._cache, need_dx=need_dx)
        self.dw += dw
        self.db += db
        return dx


class _ConvParams:
    """Parameter plumbing over a flat list of convs, self.convs, whose
    order is the weights-manifest order (each conv's w, then its b)."""

    convs: list

    def init_weights(self, rng: np.random.Generator):
        for conv in self.convs:
            conv.init_weights(rng)

    def params(self):
        return [(f"{c.name}.{k}", p) for c in self.convs
                for k, p in (("w", c.w), ("b", c.b))]

    def param_arrays(self):
        return [p for _, p in self.params()]

    def grads(self):
        return [g for c in self.convs for g in (c.dw, c.db)]

    def zero_grads(self):
        for c in self.convs:
            c.dw = np.zeros_like(c.w)
            c.db = np.zeros_like(c.b)


class PyramidPool(_ConvParams):
    """Multi-bin global-context block: per bin, average-pool to b x b,
    1x1-conv to a reduced width, nearest-upsample back, concatenate with
    the input (input channels first, then bins in ascending order)."""

    def __init__(self, name: str, in_ch: int, reduced: int, bins=(1, 2, 4)):
        self.name = name
        self.in_ch = in_ch
        self.reduced = reduced
        self.bins = tuple(bins)
        self.convs = [
            Conv2d(f"{name}.bin{b}", in_ch, reduced, ksize=1) for b in self.bins
        ]
        self._cache = None

    @property
    def out_ch(self) -> int:
        return self.in_ch + self.reduced * len(self.bins)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        h, w = x.shape[2], x.shape[3]
        if h % max(self.bins) or w % max(self.bins):
            raise ValueError(
                f"spatial dims must be divisible by {max(self.bins)}"
            )
        parts = [x]
        caches = []
        for b, conv in zip(self.bins, self.convs):
            pooled, in_hw = ops.avgpool_to_forward(x, b)
            reduced = conv.forward(pooled, cache)
            parts.append(ops.upsample_to_forward(reduced, (h, w)))
            caches.append((b, in_hw, reduced.shape[2:]))
        y, sizes = ops.concat_forward(parts)
        self._cache = (caches, sizes) if cache else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        caches, sizes = self._cache
        dparts = ops.concat_backward(dy, sizes)
        dx = dparts[0].copy()
        for (b, in_hw, red_hw), conv, dpart in zip(caches, self.convs, dparts[1:]):
            dreduced = ops.upsample_to_backward(dpart, red_hw)
            dpooled = conv.backward(dreduced)
            dx += ops.avgpool_to_backward(dpooled, in_hw)
        return dx


def check_patch(patch: int, name: str = "patch"):
    """Raise ValueError unless a net can take patch: its two 2x poolings
    need it divisible by 4."""
    if patch % 4:
        raise ValueError(f"{name} must be divisible by 4, got {patch}")


class _MiniNet(_ConvParams):
    """Shared plumbing: band normalization and softmax."""

    arch = ""

    def __init__(self, in_ch: int, n_classes: int, width: int, patch: int):
        check_patch(patch)
        self.in_ch = in_ch
        self.n_classes = n_classes
        self.width = width
        self.patch = patch
        self.band_mean = np.zeros(in_ch)
        self.band_std = np.ones(in_ch)

    def set_band_norm(self, mean, std):
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        if mean.shape != (self.in_ch,) or std.shape != (self.in_ch,):
            raise ValueError("band norm must have one entry per input channel")
        self.band_mean = mean
        self.band_std = np.where(std == 0, 1.0, std)

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64)
                - self.band_mean[None, :, None, None]) / self.band_std[None, :, None, None]

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for a batch of tiles, from an
        inference pass that caches nothing."""
        return ops.softmax_probs(self.forward(x, cache=False))


class SegNetMini(_MiniNet):
    arch = "segnet_mini"

    def __init__(self, in_ch: int, n_classes: int, width: int, patch: int):
        super().__init__(in_ch, n_classes, width, patch)
        w = width
        self.enc1 = Conv2d("enc1", in_ch, w)
        self.enc2 = Conv2d("enc2", w, 2 * w)
        self.dec1 = Conv2d("dec1", 2 * w, w)
        self.dec2 = Conv2d("dec2", w, w)
        self.head = Conv2d("head", w, n_classes, ksize=1)
        self.convs = [self.enc1, self.enc2, self.dec1, self.dec2, self.head]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = self._normalize(x)
        a1, r1 = ops.relu_forward(self.enc1.forward(x, cache))
        p1, i1 = ops.maxpool_forward(a1)
        a2, r2 = ops.relu_forward(self.enc2.forward(p1, cache))
        p2, i2 = ops.maxpool_forward(a2)
        u2 = ops.max_unpool(p2, i2, a2.shape[2:])
        b1, r3 = ops.relu_forward(self.dec1.forward(u2, cache))
        u1 = ops.max_unpool(b1, i1, a1.shape[2:])
        b2, r4 = ops.relu_forward(self.dec2.forward(u1, cache))
        self._saved = (r1, i1, r2, i2, r3, r4) if cache else None
        return self.head.forward(b2, cache)

    def backward(self, dlogits: np.ndarray) -> None:
        r1, i1, r2, i2, r3, r4 = self._saved
        d = self.head.backward(dlogits)
        d = self.dec2.backward(ops.relu_backward(d, r4))
        d = ops.max_unpool_backward(d, i1)
        d = self.dec1.backward(ops.relu_backward(d, r3))
        d = ops.max_unpool_backward(d, i2)
        d = ops.maxpool_backward(d, i2)
        d = self.enc2.backward(ops.relu_backward(d, r2))
        d = ops.maxpool_backward(d, i1)
        self.enc1.backward(ops.relu_backward(d, r1), need_dx=False)


class UNetMini(_MiniNet):
    arch = "unet_mini"

    def __init__(self, in_ch: int, n_classes: int, width: int, patch: int):
        super().__init__(in_ch, n_classes, width, patch)
        w = width
        self.enc1 = Conv2d("enc1", in_ch, w)
        self.enc2 = Conv2d("enc2", w, 2 * w)
        self.bott = Conv2d("bott", 2 * w, 4 * w)
        self.dec1 = Conv2d("dec1", 2 * w + 4 * w, 2 * w)
        self.dec2 = Conv2d("dec2", w + 2 * w, w)
        self.head = Conv2d("head", w, n_classes, ksize=1)
        self.convs = [self.enc1, self.enc2, self.bott,
                      self.dec1, self.dec2, self.head]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = self._normalize(x)
        s1, r1 = ops.relu_forward(self.enc1.forward(x, cache))
        p1, i1 = ops.maxpool_forward(s1)
        s2, r2 = ops.relu_forward(self.enc2.forward(p1, cache))
        p2, i2 = ops.maxpool_forward(s2)
        bt, r3 = ops.relu_forward(self.bott.forward(p2, cache))
        up1 = ops.upsample2x_forward(bt)
        cat1, sz1 = ops.concat_forward([s2, up1])
        a1, r4 = ops.relu_forward(self.dec1.forward(cat1, cache))
        up2 = ops.upsample2x_forward(a1)
        cat2, sz2 = ops.concat_forward([s1, up2])
        a2, r5 = ops.relu_forward(self.dec2.forward(cat2, cache))
        self._saved = (r1, i1, r2, i2, r3, sz1, r4, sz2, r5) if cache else None
        return self.head.forward(a2, cache)

    def backward(self, dlogits: np.ndarray) -> None:
        r1, i1, r2, i2, r3, sz1, r4, sz2, r5 = self._saved
        d = self.head.backward(dlogits)
        d = self.dec2.backward(ops.relu_backward(d, r5))
        ds1, dup2 = ops.concat_backward(d, sz2)
        da1 = ops.upsample2x_backward(dup2)
        d = self.dec1.backward(ops.relu_backward(da1, r4))
        ds2, dup1 = ops.concat_backward(d, sz1)
        dbt = ops.upsample2x_backward(dup1)
        d = self.bott.backward(ops.relu_backward(dbt, r3))
        d = ops.maxpool_backward(d, i2)
        # s2 and s1 feed both their pool and their skip concat
        d = self.enc2.backward(ops.relu_backward(d + ds2, r2))
        d = ops.maxpool_backward(d, i1)
        self.enc1.backward(ops.relu_backward(d + ds1, r1), need_dx=False)


class PspMini(_MiniNet):
    arch = "psp_mini"

    def __init__(self, in_ch: int, n_classes: int, width: int, patch: int):
        super().__init__(in_ch, n_classes, width, patch)
        w = width
        reduced = max(w // 4, 1)
        self.conv1 = Conv2d("conv1", in_ch, w)
        self.conv2 = Conv2d("conv2", w, w, dilation=2)
        self.pyramid = PyramidPool("pyramid", w, reduced)
        self.head = Conv2d("head", self.pyramid.out_ch, n_classes, ksize=1)
        self.convs = [self.conv1, self.conv2, *self.pyramid.convs, self.head]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = self._normalize(x)
        a1, r1 = ops.relu_forward(self.conv1.forward(x, cache))
        a2, r2 = ops.relu_forward(self.conv2.forward(a1, cache))
        py = self.pyramid.forward(a2, cache)
        self._saved = (r1, r2) if cache else None
        return self.head.forward(py, cache)

    def backward(self, dlogits: np.ndarray) -> None:
        r1, r2 = self._saved
        d = self.head.backward(dlogits)
        d = self.pyramid.backward(d)
        d = self.conv2.backward(ops.relu_backward(d, r2))
        self.conv1.backward(ops.relu_backward(d, r1), need_dx=False)


_ARCHES = {
    "segnet_mini": SegNetMini,
    "unet_mini": UNetMini,
    "psp_mini": PspMini,
}


def build_network(tag: str, in_ch: int = 7, n_classes: int = 6,
                  width: int = 16, patch: int = 64, seed: int = 0):
    if tag not in _ARCHES:
        raise ValueError(f"unknown architecture {tag!r}; expected one of {ARCH_TAGS}")
    net = _ARCHES[tag](in_ch, n_classes, width=width, patch=patch)
    net.init_weights(np.random.default_rng(seed))
    return net


@dataclass
class LayerEntry(JsonDoc):
    """Name and shape of one parameter array of the weights blob."""

    name: str
    # each size an integer of at least 0
    shape: list = doc_field(list_of(), lambda s: list(map(at_least(0), s)))


@dataclass
class WeightsManifest(JsonDoc):
    """Header of a weights container: the network's constructor arguments,
    its band normalization and, in blob order, its parameter arrays."""

    format: str = doc_field(check=one_of(WEIGHTS_FORMAT))
    version: int
    arch: str = doc_field(check=one_of(*ARCH_TAGS))
    in_ch: int = doc_field(check=at_least(1))
    n_classes: int = doc_field(check=at_least(1))
    width: int = doc_field(check=at_least(1))
    patch: int = doc_field(check=at_least(1))
    band_mean: np.ndarray = doc_field(as_array(np.float64), finite)
    band_std: np.ndarray = doc_field(as_array(np.float64), positive)
    layers: list = doc_field(list_of(LayerEntry.from_json))

    def __post_init__(self):
        super().__post_init__()
        if self.version != WEIGHTS_VERSION:
            raise ValueError(f"unsupported weights version {self.version!r} "
                             f"(expected {WEIGHTS_VERSION})")

    @classmethod
    def of(cls, net) -> "WeightsManifest":
        return cls(WEIGHTS_FORMAT, WEIGHTS_VERSION, net.arch, net.in_ch,
                   net.n_classes, net.width, net.patch, net.band_mean,
                   net.band_std, [LayerEntry(n, list(p.shape))
                                  for n, p in net.params()])

    @property
    def blob_size(self) -> int:
        return sum(math.prod(entry.shape) for entry in self.layers) * 8


def save_network(net, path_stem) -> None:
    """JSON manifest plus little-endian float64 blob in manifest order."""
    blob = b"".join(p.astype("<f8").tobytes() for _, p in net.params())
    write_container(path_stem, WeightsManifest.of(net).to_json(), blob)


def load_network(path_stem):
    m, raw = read_container(path_stem, lambda m: m.blob_size,
                            decode=WeightsManifest.from_json)
    try:
        net = _ARCHES[m.arch](m.in_ch, m.n_classes, width=m.width,
                              patch=m.patch)
        net.set_band_norm(m.band_mean, m.band_std)
        expected = WeightsManifest.of(net).layers
        if m.layers != expected:
            pairs = zip(m.layers, expected)
            where = next((e.name for e, x in pairs if e != x),
                         f"layer {min(len(m.layers), len(expected))}")
            raise ValueError(f"weights manifest does not match architecture "
                             f"at {where}")
    except ValueError as exc:
        raise ValueError(f"{path_stem}.json: {exc}") from None
    values, at = np.frombuffer(raw, dtype="<f8"), 0
    for name, p in net.params():
        p[...] = values[at:at + p.size].reshape(p.shape)
        at += p.size
        try:
            finite(p)
        except ValueError as exc:
            raise ValueError(f"{path_stem}.bin: {name!r} {exc}") from None
    return net
