"""Versioned JSON serialization for the pixel-classifier models, one loader
for every model file, and one model -> probability map path."""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .classical import DecisionTree, RandomForest, SvmClassifier
from .evaluate import argmax_labels
from .nn import load_network, predict_tiles
from .nn.networks import WEIGHTS_FORMAT
from .pool import ordered_map
from .raster import NODATA_ID, Raster
from .tiling import TilePlan, stitch_center

FORMAT = "landseg-model"
VERSION = 1
# rows per predict_proba call of a pixel model; a multiple of the SVM's
# BLOCK_ALIGN, so that a chunk's kernel blocks stay aligned
PIXEL_CHUNK = 16384

_KINDS = {
    "cart": DecisionTree,
    "forest": RandomForest,
    "svm": SvmClassifier,
}


def model_kind(model) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(model, cls):
            return kind
    raise TypeError(f"not a serializable model: {type(model)!r}")


def save_model(model, path, band_names=None) -> None:
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": model_kind(model),
        "band_names": list(band_names) if band_names else None,
        "model": model.to_json(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_model(path, n_bands=None):
    """Load a pixel-model document or a network weights stem.

    Reads `path` if it is a file, else `path + ".json"`, once, and
    dispatches on its format field. Given n_bands, a pixel model trained
    on another number of bands raises ValueError naming both counts.
    """
    doc_path = Path(path)
    if not doc_path.is_file():
        doc_path = Path(str(path) + ".json")
    doc = json.loads(doc_path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{doc_path}: expected a JSON object, "
                         f"got {type(doc).__name__}")
    if doc.get("format") == WEIGHTS_FORMAT:
        return load_network(str(doc_path).removesuffix(".json"))
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path} is neither a {FORMAT} document nor "
                         f"a {WEIGHTS_FORMAT} manifest")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    try:
        model = _KINDS[kind].from_json(doc["model"])
    except ValueError as exc:
        raise ValueError(f"{doc_path}: {exc}") from None
    if kind == "forest":
        trained = model.n_features
    elif kind == "svm":
        trained = model.mean.size
    else:  # a tree keeps no band count; its document keeps the bands
        names = doc.get("band_names")
        trained = len(names) if isinstance(names, list) else n_bands
        if trained is not None and model.feature.max(initial=-1) >= trained:
            raise ValueError(f"{doc_path}: the tree splits on 'feature' "
                             f"{model.feature.max()} of {trained} bands")
    if None not in (n_bands, trained) and trained != n_bands:
        raise ValueError(f"{doc_path}: model was trained on {trained} "
                         f"bands, the stack has {n_bands}")
    return model


def predict_pixels(model, r: Raster) -> np.ndarray:
    """Class probabilities (K, H, W) float64 for every raster pixel.

    They are vote fractions / leaf histograms, not calibrated. Chunks of
    PIXEL_CHUNK pixels are converted to float64 and classified on the
    map's thread pool, each into its own columns; a forest's vote tables
    are built once and shared.
    """
    x = r.data.reshape(r.n_bands, -1)
    probs = np.empty((model.n_classes, x.shape[1]))
    proba = model.predict_proba
    if isinstance(model, RandomForest):
        proba = partial(proba, tables=model.vote_tables())

    def classify(at):
        chunk = x[:, at:at + PIXEL_CHUNK].T.astype(np.float64)
        probs[:, at:at + PIXEL_CHUNK] = proba(chunk).T

    for _ in ordered_map(classify, range(0, x.shape[1], PIXEL_CHUNK)):
        pass
    return probs.reshape(model.n_classes, r.height, r.width)


def predict_map(model, r: Raster, plan: TilePlan | None = None):
    """Map a raster with a pixel classifier or a network.

    Pixel models classify every pixel; networks predict the plan's tiles
    and stitch them. Returns (LabelRaster, probs (K, H, W) float64) with
    ties to the lowest class id and invalid pixels labelled nodata.
    """
    if isinstance(model, tuple(_KINDS.values())):
        probs = predict_pixels(model, r)
    elif plan is None:
        raise ValueError("network prediction needs a tile plan (--plan)")
    else:
        _, probs = stitch_center(predict_tiles(model, r, plan), plan)
    label_map = argmax_labels(probs)
    label_map.labels[~r.valid_mask] = NODATA_ID
    return label_map, probs
