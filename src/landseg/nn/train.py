"""Mini-batch training loop and tiled inference for the mini networks."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .optim import Adam, SgdMomentum
from ..raster import NODATA_ID, Raster, SPECTRAL_BANDS
from ..sampling import augment
from ..tiling import Tile, TilePlan, reflect_pad_to

# Drift-style photometric jitter, in units of the train split's band
# statistics: per-tile offsets up to JITTER_OFFSET standard deviations and
# gains within 1 +/- JITTER_GAIN, on the spectral bands only.
JITTER_OFFSET = 1.5
JITTER_GAIN = 0.15
_JITTER_STREAM = 1


@dataclass
class TrainConfig:
    optimizer: str = "adam"          # "adam" or "sgd"
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 8
    seed: int = 0
    augment: bool = True
    normalize: bool = True           # fit per-band mean/std on the train split
    class_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def make_optimizer(self):
        if self.optimizer == "adam":
            return Adam(lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        return SgdMomentum(lr=self.lr, momentum=self.momentum)


def default_config(arch: str, **overrides) -> TrainConfig:
    """Paper-assigned optimizers: Adam 1e-5 for segnet/unet, SGD 0.05/0.9
    for psp."""
    if arch == "psp_mini":
        base = dict(optimizer="sgd", lr=0.05, momentum=0.9)
    else:
        base = dict(optimizer="adam", lr=1e-5)
    base.update(overrides)
    return TrainConfig(**base)


def band_stats(tiles):
    """Per-band mean/std over the valid pixels of a tile list."""
    total = None
    sq = None
    count = 0
    for t in tiles:
        m = t.mask
        vals = t.x[:, m].astype(np.float64)
        if total is None:
            total = vals.sum(axis=1)
            sq = (vals * vals).sum(axis=1)
        else:
            total += vals.sum(axis=1)
            sq += (vals * vals).sum(axis=1)
        count += int(m.sum())
    if not count:
        raise ValueError("no valid pixels in the train tiles")
    mean = total / count
    var = np.maximum(sq / count - mean * mean, 0.0)
    return mean, np.sqrt(var)


def spectral_jitter(tile, band_names, mean, std, rng):
    """Copy of a tile with a random gain and offset on each spectral band.

    Emulates cross-year radiometric drift. Every band named in
    SPECTRAL_BANDS becomes mean + gain * (x - mean) + offset * std, with
    gain drawn from 1 +/- JITTER_GAIN and offset from +/- JITTER_OFFSET;
    in the network's normalized units that is a per-band affine map.
    Terrain bands, labels and the mask pass through unchanged, and a tile
    without spectral bands is returned as is, drawing nothing from rng.
    """
    idx = [i for i, name in enumerate(band_names) if name in SPECTRAL_BANDS]
    if not idx:
        return tile
    gain = rng.uniform(1.0 - JITTER_GAIN, 1.0 + JITTER_GAIN, size=len(idx))
    offset = rng.uniform(-JITTER_OFFSET, JITTER_OFFSET, size=len(idx))
    m = mean[idx, None, None]
    x = tile.x.astype(np.float64)
    x[idx] = (m + gain[:, None, None] * (x[idx] - m)
              + (offset * std[idx])[:, None, None])
    return Tile(anchor=tile.anchor, x=x, y=tile.y, mask=tile.mask)


def _batch_arrays(tiles):
    x = np.stack([t.x for t in tiles]).astype(np.float64)
    y = np.stack([t.y for t in tiles])
    valid = np.stack([t.mask for t in tiles]) & (y != NODATA_ID)
    return x, y, valid


def _eval_loss(net, tiles, weights, batch_size):
    losses, weights_sum = [], []
    for at in range(0, len(tiles), batch_size):
        x, y, valid = _batch_arrays(tiles[at:at + batch_size])
        logits = net.forward(x)
        loss, _ = ops.weighted_ce_loss(logits, y, weights, valid)
        losses.append(loss)
        weights_sum.append(len(tiles[at:at + batch_size]))
    return float(np.average(losses, weights=weights_sum))


def _require_finite(loss, split, epoch):
    if not np.isfinite(loss):
        raise ValueError(f"{split} loss is {loss} at epoch {epoch}; "
                         "training diverged, no weights kept")


def train(net, samples, config: TrainConfig):
    """Train on the sample set's train split; track val loss per epoch.

    Augmentation (when enabled) expands each train tile with its four
    geometric variants, and every time a train tile enters a batch it gets
    a fresh spectral_jitter drawn from a stream derived from config.seed,
    so the nets cannot lean on the train scene's absolute spectral levels.
    Validation tiles and inference are never jittered. The returned network
    carries the parameters of the best-validation-loss epoch. A non-finite
    train or validation loss raises ValueError naming the epoch. Returns
    (net, history) with history rows (epoch, train_loss, val_loss).
    """
    train_tiles = list(samples.subset("train"))
    val_tiles = list(samples.subset("val"))
    if not train_tiles:
        raise ValueError("no train tiles")
    if config.augment:
        expanded = []
        for t in train_tiles:
            expanded.append(t)
            expanded.extend(augment(t))
        train_tiles = expanded

    weights = (
        np.asarray(config.class_weights, dtype=np.float64)
        if config.class_weights is not None
        else np.ones(net.n_classes)
    )
    if config.normalize or config.augment:
        mean, std = band_stats(train_tiles)
    if config.normalize:
        net.set_band_norm(mean, std)

    opt = config.make_optimizer()
    rng = np.random.default_rng(config.seed)
    jitter_rng = np.random.default_rng([config.seed, _JITTER_STREAM])
    history = []
    best_val = np.inf
    best_state = None

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_tiles))
        batch_losses, batch_sizes = [], []
        for at in range(0, len(order), config.batch_size):
            batch = [train_tiles[i] for i in order[at:at + config.batch_size]]
            if config.augment:
                batch = [spectral_jitter(t, samples.band_names, mean, std,
                                         jitter_rng) for t in batch]
            x, y, valid = _batch_arrays(batch)
            if not valid.any():
                continue
            net.zero_grads()
            logits = net.forward(x)
            loss, dlogits = ops.weighted_ce_loss(logits, y, weights, valid)
            _require_finite(loss, "train", epoch)
            net.backward(dlogits)
            opt.step(net.param_arrays(), net.grads())
            batch_losses.append(loss)
            batch_sizes.append(len(batch))
        train_loss = float(np.average(batch_losses, weights=batch_sizes))
        if val_tiles:
            val_loss = _eval_loss(net, val_tiles, weights, config.batch_size)
            _require_finite(val_loss, "validation", epoch)
        else:
            val_loss = train_loss
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_state = [p.copy() for p in net.param_arrays()]

    if best_state is not None:
        for p, saved in zip(net.param_arrays(), best_state):
            p[...] = saved
    return net, history


def save_history_csv(history, path):
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{e},{repr(t)},{repr(v)}" for e, t, v in history]
    Path(path).write_text("\n".join(lines) + "\n")


def predict_tiles(net, r: Raster, plan: TilePlan, batch_size: int = 8):
    """Per-anchor softmax probability patches, ready for stitch_center.

    Returns a list of (anchor, probs (patch, patch, K)) in plan order.
    """
    if r.n_bands != net.in_ch:
        raise ValueError(
            f"raster has {r.n_bands} bands, network expects {net.in_ch}"
        )
    data = reflect_pad_to(
        r.data.astype(np.float64), plan.padded_height, plan.padded_width
    )
    p = plan.patch
    out = []
    for at in range(0, len(plan.anchors), batch_size):
        anchors = plan.anchors[at:at + batch_size]
        x = np.stack([data[:, ar:ar + p, ac:ac + p] for ar, ac in anchors])
        probs = net.predict_probs(x)
        for i, anchor in enumerate(anchors):
            out.append((anchor, probs[i].transpose(1, 2, 0)))
    return out
