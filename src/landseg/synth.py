"""Deterministic synthetic terrain scenes for desk-scale experiments.

Scenes couple class identity to elevation (tree cover highest, then
shrubland, grassland, cropland, artificial surface, water lowest) while the
vegetation classes' spectral signatures deliberately overlap, so terrain
bands carry real discriminative power. Labels come from per-pixel scoring
of elevation/slope preferences plus a spatially smoothed noise field, which
keeps regions contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import json
from pathlib import Path

import numpy as np

from .preprocess import slope_from_dem, stack_bands
from .raster import (
    LabelRaster,
    Raster,
    SPECTRAL_BANDS,
    default_legend,
)

# rng stream ids per generation stage
_DEM, _LABEL, _SPECTRAL, _CLOUD = 0, 1, 2, 3

# Class order: Tree cover, Shrubland, Grassland, Cropland, Artificial
# surface, Water body, (Wetland). Vegetation means sit close together.
DEFAULT_SPECTRAL_MEANS = np.array([
    [45.0, 68.0, 52.0, 95.0, 140.0],
    [50.0, 72.0, 58.0, 98.0, 132.0],
    [56.0, 78.0, 64.0, 100.0, 125.0],
    [61.0, 82.0, 71.0, 103.0, 118.0],
    [120.0, 125.0, 130.0, 110.0, 90.0],
    [25.0, 38.0, 30.0, 22.0, 12.0],
    [38.0, 52.0, 44.0, 60.0, 70.0],
])

DEFAULT_ELEVATION_BANDS = np.array([
    [1150.0, 2000.0],   # tree cover: highest
    [900.0, 1300.0],
    [650.0, 1000.0],
    [380.0, 720.0],
    [150.0, 450.0],
    [0.0, 220.0],       # water: lowest, flat
    [60.0, 260.0],      # wetland (optional 7th class)
])

# -1 prefers flat ground, +1 prefers steep ground
DEFAULT_SLOPE_PREF = np.array([1.0, 0.5, 0.0, -0.5, -0.5, -1.0, -1.0])

# Cross-year radiometric drift is band-dependent; spectral_shift scales this
# profile, whose mean is exactly 1 so the mean applied shift equals the
# configured delta.
SHIFT_PROFILE = np.array([0.4, 0.7, 1.0, 1.3, 1.6])


@dataclass
class SceneSpec:
    width: int = 512
    height: int = 512
    seed: int = 0
    n_classes: int = 6
    spectral_means: np.ndarray = None
    spectral_noise: float = 9.0
    band_correlation: float = 0.5
    elevation_bands: np.ndarray = None
    slope_pref: np.ndarray = None
    dem_range: tuple = (0.0, 2000.0)
    cell_size: float = 30.0
    smoothness: int = 24          # label-noise granularity in pixels
    terrain_weight: float = 3.0
    slope_weight: float = 1.0
    label_noise: float = 1.2
    cloud_fraction: float = 0.0
    spectral_seed: int | None = None
    spectral_shift: float = 0.0
    # amplitude (DN) of smooth low-frequency per-band gain/offset fields,
    # the residue an imperfect mosaic match leaves behind
    radiometric_patchiness: float = 0.0

    def __post_init__(self):
        k = self.n_classes
        if not 2 <= k <= 7:
            raise ValueError("scenes support 2..7 classes")
        if self.spectral_means is None:
            self.spectral_means = DEFAULT_SPECTRAL_MEANS[:k].copy()
        else:
            self.spectral_means = np.asarray(self.spectral_means, dtype=np.float64)
        if self.elevation_bands is None:
            self.elevation_bands = DEFAULT_ELEVATION_BANDS[:k].copy()
        else:
            self.elevation_bands = np.asarray(self.elevation_bands, dtype=np.float64)
        if self.slope_pref is None:
            self.slope_pref = DEFAULT_SLOPE_PREF[:k].copy()
        else:
            self.slope_pref = np.asarray(self.slope_pref, dtype=np.float64)
        if self.spectral_means.shape != (k, 5):
            raise ValueError("spectral_means must be (n_classes, 5)")
        if self.elevation_bands.shape != (k, 2):
            raise ValueError("elevation_bands must be (n_classes, 2)")
        lo, hi = self.elevation_bands[:, 0], self.elevation_bands[:, 1]
        if (lo >= hi).any():
            raise ValueError("infeasible spec: empty elevation band")
        centers = (lo + hi) / 2.0
        ordered = centers[: min(k, 6)]
        if not (np.diff(ordered) < 0).all():
            raise ValueError(
                "elevation band centers must decrease from tree cover to water"
            )

    def legend(self):
        return default_legend(self.n_classes)

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "seed": self.seed,
            "n_classes": self.n_classes,
            "spectral_means": self.spectral_means.tolist(),
            "spectral_noise": self.spectral_noise,
            "band_correlation": self.band_correlation,
            "elevation_bands": self.elevation_bands.tolist(),
            "slope_pref": self.slope_pref.tolist(),
            "dem_range": list(self.dem_range),
            "cell_size": self.cell_size,
            "smoothness": self.smoothness,
            "terrain_weight": self.terrain_weight,
            "slope_weight": self.slope_weight,
            "label_noise": self.label_noise,
            "cloud_fraction": self.cloud_fraction,
            "spectral_seed": self.spectral_seed,
            "spectral_shift": self.spectral_shift,
            "radiometric_patchiness": self.radiometric_patchiness,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SceneSpec":
        doc = dict(doc)
        for key in ("spectral_means", "elevation_bands", "slope_pref"):
            if doc.get(key) is not None:
                doc[key] = np.asarray(doc[key], dtype=np.float64)
        if doc.get("dem_range") is not None:
            doc["dem_range"] = tuple(doc["dem_range"])
        return cls(**doc)

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "SceneSpec":
        return cls.from_json(json.loads(Path(path).read_text()))


def _midpoint_displacement(target: int, rng: np.random.Generator,
                           roughness: float = 0.55) -> np.ndarray:
    """Fractal-ish [0,1] height field on a (2^k + 1) grid covering target."""
    size = 2
    while size + 1 < target:
        size *= 2
    size += 1
    z = np.zeros((size, size))
    z[0, 0], z[0, -1], z[-1, 0], z[-1, -1] = rng.standard_normal(4)
    step, amp = size - 1, 1.0
    while step > 1:
        h = step // 2
        a = z[::step, ::step]
        centers = (a[:-1, :-1] + a[:-1, 1:] + a[1:, :-1] + a[1:, 1:]) / 4.0
        z[h::step, h::step] = centers + amp * rng.standard_normal(centers.shape)
        row_mid = (a[:, :-1] + a[:, 1:]) / 2.0
        z[::step, h::step] = row_mid + amp * rng.standard_normal(row_mid.shape)
        col_mid = (a[:-1, :] + a[1:, :]) / 2.0
        z[h::step, ::step] = col_mid + amp * rng.standard_normal(col_mid.shape)
        step = h
        amp *= roughness
    z = z - z.min()
    peak = z.max()
    return z / peak if peak > 0 else z


def _smooth_field(height: int, width: int, granularity: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Bilinear upsample of a coarse normal grid: contiguous random blobs."""
    ch = max(2, int(np.ceil(height / granularity)) + 1)
    cw = max(2, int(np.ceil(width / granularity)) + 1)
    coarse = rng.standard_normal((ch, cw))
    ys = np.linspace(0.0, ch - 1.0, height)
    xs = np.linspace(0.0, cw - 1.0, width)
    y0 = np.clip(ys.astype(int), 0, ch - 2)
    x0 = np.clip(xs.astype(int), 0, cw - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    c00 = coarse[np.ix_(y0, x0)]
    c01 = coarse[np.ix_(y0, x0 + 1)]
    c10 = coarse[np.ix_(y0 + 1, x0)]
    c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
    return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx) + c11 * fy * fx)


def generate_scene(spec: SceneSpec):
    """Deterministic (7-band Raster, LabelRaster, cloud grid) per seed.

    The returned raster's mask is all-valid; the cloud grid is returned
    separately so the preprocessing stage can apply it.
    """
    h, w = spec.height, spec.width
    if h < 128 or w < 128:
        raise ValueError("scenes must be at least 128x128")
    k = spec.n_classes

    rng_dem = np.random.default_rng([spec.seed, _DEM])
    rng_label = np.random.default_rng([spec.seed, _LABEL])
    spectral_entropy = spec.seed if spec.spectral_seed is None else spec.spectral_seed
    rng_spec = np.random.default_rng([spectral_entropy, _SPECTRAL])
    rng_cloud = np.random.default_rng([spec.seed, _CLOUD])

    dem01 = _midpoint_displacement(max(h, w), rng_dem)[:h, :w]
    lo, hi = spec.dem_range
    elev = lo + dem01 * (hi - lo)
    dem = Raster(w, h, ["dem"], elev.astype(np.float32)[None],
                 np.ones((h, w), dtype=bool))
    slope = slope_from_dem(dem, spec.cell_size)
    slope01 = slope.data[0].astype(np.float64) / 90.0

    centers = spec.elevation_bands.mean(axis=1)
    halves = (spec.elevation_bands[:, 1] - spec.elevation_bands[:, 0]) / 2.0
    scores = np.empty((k, h, w))
    for c in range(k):
        fit = ((elev - centers[c]) / halves[c]) ** 2
        noise = _smooth_field(h, w, spec.smoothness, rng_label)
        scores[c] = (
            -spec.terrain_weight * fit
            + spec.slope_weight * spec.slope_pref[c] * slope01
            + spec.label_noise * noise
        )
    labels = np.argmax(scores, axis=0).astype(np.uint8)

    means = spec.spectral_means + spec.spectral_shift * SHIFT_PROFILE[None, :]
    rho = spec.band_correlation
    common = rng_spec.standard_normal((h, w))
    bands = np.empty((5, h, w), dtype=np.float32)
    for b in range(5):
        eps = rng_spec.standard_normal((h, w))
        noise = spec.spectral_noise * (
            np.sqrt(1.0 - rho) * eps + np.sqrt(rho) * common
        )
        value = means[labels, b] + noise
        if spec.radiometric_patchiness > 0:
            value = value + spec.radiometric_patchiness * _smooth_field(
                h, w, spec.smoothness, rng_spec
            )
        bands[b] = np.clip(value, 0.0, 255.0)

    spectral = Raster(w, h, list(SPECTRAL_BANDS), bands,
                      np.ones((h, w), dtype=bool))
    stack = stack_bands(spectral, dem, slope)

    n_cloud = int(round(spec.cloud_fraction * h * w))
    cloud = np.zeros((h, w), dtype=bool)
    if n_cloud > 0:
        cloud_field = _smooth_field(h, w, spec.smoothness * 2, rng_cloud)
        order = np.argsort(cloud_field.reshape(-1), kind="stable")
        cloud.reshape(-1)[order[-n_cloud:]] = True

    return stack, LabelRaster(w, h, labels), cloud


def _derived_seed(parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def scene_battery(base_seed: int, n: int, spec: SceneSpec | None = None,
                  spectral_shift: float = 6.0, noise_gain: float = 1.0):
    """n (train scene, shifted test scene) pairs for the robustness protocol.

    Each test scene keeps the train scene's terrain and labels, re-draws the
    spectral noise (scaled by noise_gain for harsher acquisition conditions)
    and shifts every class mean by the band-drift profile scaled so the mean
    applied shift equals spectral_shift. Returns a list of dicts with specs
    and generated scenes.
    """
    if n < 1:
        raise ValueError("battery needs n >= 1")
    if spec is None:
        spec = SceneSpec()
    pairs = []
    for i in range(n):
        train_spec = replace(
            spec, seed=_derived_seed([base_seed, i, 0]),
            spectral_seed=None, spectral_shift=0.0,
        )
        test_spec = replace(
            train_spec,
            spectral_seed=_derived_seed([base_seed, i, 1]),
            spectral_shift=spectral_shift,
            spectral_noise=spec.spectral_noise * noise_gain,
        )
        train_scene = generate_scene(train_spec)
        test_scene = generate_scene(test_spec)
        pairs.append({
            "train_spec": train_spec,
            "test_spec": test_spec,
            "train": train_scene,
            "test": test_scene,
        })
    return pairs
