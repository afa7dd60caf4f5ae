"""The three miniature segmentation architectures.

segnet_mini: two conv+pool encoder stages mirrored by two unpool+conv
decoder stages (pooling indices carried across), 1x1 classifier.
unet_mini: two down stages, a bottleneck, two nearest-upsample + skip-concat
decoder stages, 1x1 classifier.
psp_mini: two full-resolution convs (the second dilated by 2), a {1,2,4}-bin
pyramid pooling block, 1x1 classifier.

Weights initialize He-style (std = sqrt(2/fan_in)) from the run seed. An
optional per-band input normalization (computed from the train split) is
stored with the weights and applied in every forward pass.
"""

from __future__ import annotations

import numpy as np

from . import ops
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
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=self.w.shape)
        self.b = np.zeros(self.out_ch)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, self._cache = ops.conv2d_forward(x, self.w, self.b, dilation=self.dilation)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx, dw, db = ops.conv2d_backward(dy, self._cache)
        self.dw += dw
        self.db += db
        return dx

    def params(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]

    def grads(self):
        return [self.dw, self.db]

    def zero_grads(self):
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    @property
    def n_params(self) -> int:
        return self.w.size + self.b.size


class PyramidPool:
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

    def init_weights(self, rng: np.random.Generator):
        for conv in self.convs:
            conv.init_weights(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h, w = x.shape[2], x.shape[3]
        if h % max(self.bins) or w % max(self.bins):
            raise ValueError(
                f"spatial dims must be divisible by {max(self.bins)}"
            )
        parts = [x]
        caches = []
        for b, conv in zip(self.bins, self.convs):
            pooled, in_hw = ops.avgpool_to_forward(x, b)
            reduced = conv.forward(pooled)
            parts.append(ops.upsample_to_forward(reduced, (h, w)))
            caches.append((b, in_hw, reduced.shape[2:]))
        y, sizes = ops.concat_forward(parts)
        self._cache = (caches, sizes)
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

    def params(self):
        out = []
        for conv in self.convs:
            out += conv.params()
        return out

    def grads(self):
        out = []
        for conv in self.convs:
            out += conv.grads()
        return out

    def zero_grads(self):
        for conv in self.convs:
            conv.zero_grads()

    @property
    def n_params(self) -> int:
        return sum(c.n_params for c in self.convs)


class _MiniNet:
    """Shared plumbing: parameter lists, band normalization, softmax."""

    arch = ""

    def __init__(self, in_ch: int, n_classes: int, width: int, patch: int):
        if patch % 4:
            raise ValueError("patch must be divisible by 4")
        self.in_ch = in_ch
        self.n_classes = n_classes
        self.width = width
        self.patch = patch
        self.band_mean = np.zeros(in_ch)
        self.band_std = np.ones(in_ch)
        self.blocks = []

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

    def init_weights(self, seed: int):
        rng = np.random.default_rng(seed)
        for block in self.blocks:
            block.init_weights(rng)

    def params(self):
        out = []
        for block in self.blocks:
            out += block.params()
        return out

    def param_arrays(self):
        return [p for _, p in self.params()]

    def grads(self):
        out = []
        for block in self.blocks:
            out += block.grads()
        return out

    def zero_grads(self):
        for block in self.blocks:
            block.zero_grads()

    @property
    def n_params(self) -> int:
        return sum(b.n_params for b in self.blocks)

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for a batch of tiles."""
        return ops.softmax_probs(self.forward(x))

    def config(self) -> dict:
        return {
            "arch": self.arch,
            "in_ch": self.in_ch,
            "n_classes": self.n_classes,
            "width": self.width,
            "patch": self.patch,
        }


class SegNetMini(_MiniNet):
    arch = "segnet_mini"

    def __init__(self, in_ch: int, n_classes: int, width: int = 16, patch: int = 64):
        super().__init__(in_ch, n_classes, width, patch)
        w = width
        self.enc1 = Conv2d("enc1", in_ch, w)
        self.enc2 = Conv2d("enc2", w, 2 * w)
        self.dec1 = Conv2d("dec1", 2 * w, w)
        self.dec2 = Conv2d("dec2", w, w)
        self.head = Conv2d("head", w, n_classes, ksize=1)
        self.blocks = [self.enc1, self.enc2, self.dec1, self.dec2, self.head]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._normalize(x)
        a1, self._r1 = ops.relu_forward(self.enc1.forward(x))
        p1, self._i1 = ops.maxpool_forward(a1)
        a2, self._r2 = ops.relu_forward(self.enc2.forward(p1))
        p2, self._i2 = ops.maxpool_forward(a2)
        self._hw2 = a2.shape[2:]
        self._hw1 = a1.shape[2:]
        u2 = ops.max_unpool(p2, self._i2, self._hw2)
        b1, self._r3 = ops.relu_forward(self.dec1.forward(u2))
        u1 = ops.max_unpool(b1, self._i1, self._hw1)
        b2, self._r4 = ops.relu_forward(self.dec2.forward(u1))
        return self.head.forward(b2)

    def backward(self, dlogits: np.ndarray):
        d = self.head.backward(dlogits)
        d = self.dec2.backward(ops.relu_backward(d, self._r4))
        d = ops.max_unpool_backward(d, self._i1)
        d = self.dec1.backward(ops.relu_backward(d, self._r3))
        d = ops.max_unpool_backward(d, self._i2)
        d = ops.maxpool_backward(d, self._i2)
        d = self.enc2.backward(ops.relu_backward(d, self._r2))
        d = ops.maxpool_backward(d, self._i1)
        d = self.enc1.backward(ops.relu_backward(d, self._r1))
        return d


class UNetMini(_MiniNet):
    arch = "unet_mini"

    def __init__(self, in_ch: int, n_classes: int, width: int = 16, patch: int = 64):
        super().__init__(in_ch, n_classes, width, patch)
        w = width
        self.enc1 = Conv2d("enc1", in_ch, w)
        self.enc2 = Conv2d("enc2", w, 2 * w)
        self.bott = Conv2d("bott", 2 * w, 4 * w)
        self.dec1 = Conv2d("dec1", 2 * w + 4 * w, 2 * w)
        self.dec2 = Conv2d("dec2", w + 2 * w, w)
        self.head = Conv2d("head", w, n_classes, ksize=1)
        self.blocks = [self.enc1, self.enc2, self.bott,
                       self.dec1, self.dec2, self.head]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._normalize(x)
        s1, self._r1 = ops.relu_forward(self.enc1.forward(x))
        p1, self._i1 = ops.maxpool_forward(s1)
        s2, self._r2 = ops.relu_forward(self.enc2.forward(p1))
        p2, self._i2 = ops.maxpool_forward(s2)
        bt, self._r3 = ops.relu_forward(self.bott.forward(p2))
        up1 = ops.upsample2x_forward(bt)
        cat1, self._sz1 = ops.concat_forward([s2, up1])
        a1, self._r4 = ops.relu_forward(self.dec1.forward(cat1))
        up2 = ops.upsample2x_forward(a1)
        cat2, self._sz2 = ops.concat_forward([s1, up2])
        a2, self._r5 = ops.relu_forward(self.dec2.forward(cat2))
        return self.head.forward(a2)

    def backward(self, dlogits: np.ndarray):
        d = self.head.backward(dlogits)
        d = self.dec2.backward(ops.relu_backward(d, self._r5))
        ds1, dup2 = ops.concat_backward(d, self._sz2)
        da1 = ops.upsample2x_backward(dup2)
        d = self.dec1.backward(ops.relu_backward(da1, self._r4))
        ds2, dup1 = ops.concat_backward(d, self._sz1)
        dbt = ops.upsample2x_backward(dup1)
        d = self.bott.backward(ops.relu_backward(dbt, self._r3))
        d = ops.maxpool_backward(d, self._i2)
        # s2 and s1 feed both their pool and their skip concat
        d = self.enc2.backward(ops.relu_backward(d + ds2, self._r2))
        d = ops.maxpool_backward(d, self._i1)
        d = self.enc1.backward(ops.relu_backward(d + ds1, self._r1))
        return d


class PspMini(_MiniNet):
    arch = "psp_mini"

    def __init__(self, in_ch: int, n_classes: int, width: int = 16, patch: int = 64):
        super().__init__(in_ch, n_classes, width, patch)
        w = width
        reduced = max(w // 4, 1)
        self.conv1 = Conv2d("conv1", in_ch, w)
        self.conv2 = Conv2d("conv2", w, w, dilation=2)
        self.pyramid = PyramidPool("pyramid", w, reduced)
        self.head = Conv2d("head", self.pyramid.out_ch, n_classes, ksize=1)
        self.blocks = [self.conv1, self.conv2, self.pyramid, self.head]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._normalize(x)
        a1, self._r1 = ops.relu_forward(self.conv1.forward(x))
        a2, self._r2 = ops.relu_forward(self.conv2.forward(a1))
        py = self.pyramid.forward(a2)
        return self.head.forward(py)

    def backward(self, dlogits: np.ndarray):
        d = self.head.backward(dlogits)
        d = self.pyramid.backward(d)
        d = self.conv2.backward(ops.relu_backward(d, self._r2))
        d = self.conv1.backward(ops.relu_backward(d, self._r1))
        return d


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
    net.init_weights(seed)
    return net


def save_network(net, path_stem) -> None:
    """JSON manifest plus little-endian float64 blob in manifest order."""
    manifest = {
        "format": WEIGHTS_FORMAT,
        "version": WEIGHTS_VERSION,
        **net.config(),
        "band_mean": net.band_mean.tolist(),
        "band_std": net.band_std.tolist(),
        "layers": [{"name": n, "shape": list(p.shape)} for n, p in net.params()],
    }
    blob = b"".join(p.astype("<f8").tobytes() for _, p in net.params())
    write_container(path_stem, manifest, blob)


def _weights_blob_size(manifest: dict) -> int:
    if manifest.get("format") != WEIGHTS_FORMAT:
        raise ValueError(f"not a {WEIGHTS_FORMAT} manifest")
    if manifest.get("version") != WEIGHTS_VERSION:
        raise ValueError(
            f"unsupported weights version {manifest.get('version')!r} "
            f"(expected {WEIGHTS_VERSION})"
        )
    if "layers" not in manifest:
        raise ValueError("weights manifest has no 'layers' field")
    return sum(int(np.prod(e["shape"])) * 8 for e in manifest["layers"])


def load_network(path_stem):
    manifest, raw = read_container(path_stem, _weights_blob_size)
    net = _ARCHES[manifest["arch"]](
        manifest["in_ch"], manifest["n_classes"],
        width=manifest["width"], patch=manifest["patch"],
    )
    net.set_band_norm(
        np.asarray(manifest["band_mean"]), np.asarray(manifest["band_std"])
    )
    at = 0
    for entry, (name, p) in zip(manifest["layers"], net.params()):
        if entry["name"] != name or list(p.shape) != entry["shape"]:
            raise ValueError(f"weights manifest does not match architecture at {name}")
        n_bytes = int(np.prod(entry["shape"])) * 8
        vals = np.frombuffer(raw[at:at + n_bytes], dtype="<f8")
        p[...] = vals.reshape(entry["shape"])
        at += n_bytes
    return net
