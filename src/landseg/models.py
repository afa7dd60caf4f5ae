"""Versioned JSON serialization for the pixel-classifier models, one loader
for every model file, and one model -> probability map path."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classical import DecisionTree, RandomForest, SvmClassifier
from .evaluate import argmax_labels
from .nn import load_network, predict_tiles
from .nn.networks import WEIGHTS_FORMAT
from .raster import NODATA_ID, Raster
from .tiling import TilePlan, stitch_center

FORMAT = "landseg-model"
VERSION = 1

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


def load_model(path):
    """Load a pixel-model document or a network weights stem.

    Reads `path` if it is a file, else `path + ".json"`, once, and
    dispatches on its format field.
    """
    doc_path = Path(path)
    if not doc_path.is_file():
        doc_path = Path(str(path) + ".json")
    doc = json.loads(doc_path.read_text())
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
    return _KINDS[kind].from_json(doc["model"])


def predict_pixels(model, r: Raster, chunk: int = 65536) -> np.ndarray:
    """Class probabilities (K, H, W) float64 for every raster pixel.

    They are vote fractions / leaf histograms, not calibrated.
    """
    n_classes = model.n_classes
    x = r.data.reshape(r.n_bands, -1).T.astype(np.float64)
    probs = np.zeros((x.shape[0], n_classes))
    for at in range(0, x.shape[0], chunk):
        probs[at:at + chunk] = model.predict_proba(x[at:at + chunk])
    return probs.T.reshape(n_classes, r.height, r.width)


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
