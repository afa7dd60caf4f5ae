"""Versioned JSON serialization for the pixel-classifier models, one loader
for every model file, and one model -> probability map path."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classical import DecisionTree, RandomForest, SvmClassifier
from .evaluate import argmax_labels
from .jsondoc import (
    band_list, check_keys, check_object, one_of, read_json, rule,
)
from .nn import load_network, predict_tiles
from .nn.networks import WEIGHTS_FORMAT
from .pool import ordered_map
from .raster import Raster
from .tiling import TilePlan, finite_at_nodata, stitch_center

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


# the keys of a pixel model's file and their rules
_ENVELOPE = {
    "format": one_of(FORMAT), "version": one_of(VERSION),
    "kind": one_of(*_KINDS),
    "band_names": lambda names: names is None or band_list(names),
    "model": rule(lambda doc: isinstance(doc, dict), "a JSON object"),
}


def load_model(path, n_bands=None):
    """Load a pixel-model document or a network weights stem.

    Reads `path` if it is a file, else `path + ".json"`, once, and
    dispatches on its format field. Given n_bands, a pixel model trained
    on another number of bands raises ValueError naming both counts.
    Every error about the document names the file.
    """
    doc_path = Path(path)
    if not doc_path.is_file():
        doc_path = Path(str(path) + ".json")

    def decode(doc):  # None for a weights manifest
        if isinstance(doc, dict) and doc.get("format") == WEIGHTS_FORMAT:
            return None
        check_object(doc, "model", _ENVELOPE)
        check_keys(doc, "model", _ENVELOPE)
        kind, names = doc["kind"], doc.get("band_names")
        model = _KINDS[kind].from_json(doc["model"])
        if kind == "forest":
            trained = model.n_features
        elif kind == "svm":
            trained = model.mean.size
        else:  # a tree keeps no band count; its document keeps the bands
            trained = n_bands if names is None else len(names)
            if trained is not None and (model.feature.max(initial=-1)
                                        >= trained):
                raise ValueError(f"the tree splits on 'feature' "
                                 f"{model.feature.max()} of {trained} bands")
        if None not in (n_bands, trained) and trained != n_bands:
            raise ValueError(f"model was trained on {trained} bands, "
                             f"the stack has {n_bands}")
        return model

    model = read_json(doc_path, decode)
    if model is None:
        return load_network(str(doc_path).removesuffix(".json"))
    return model


def predict_pixels(model, r: Raster) -> np.ndarray:
    """Class probabilities (K, H, W) float64 for every raster pixel.

    They are vote fractions / leaf histograms, not calibrated. Chunks of
    PIXEL_CHUNK pixels are converted to float64 and classified on the
    map's thread pool, each into its own columns. A non-finite value at
    a nodata pixel is classified as 0, as a network sees it.
    """
    x = finite_at_nodata(r).reshape(r.n_bands, -1)
    probs = np.empty((model.n_classes, x.shape[1]))

    def classify(at):
        chunk = x[:, at:at + PIXEL_CHUNK].T.astype(np.float64)
        probs[:, at:at + PIXEL_CHUNK] = model.predict_proba(chunk).T

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
    return argmax_labels(probs, r.valid_mask), probs
