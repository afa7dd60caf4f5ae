"""The shared JSON document codec (landseg.jsondoc) and the saved bytes of
every document class that uses it."""

import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

import landseg.cli  # noqa: F401  (defines every document class)
from landseg.classical import DecisionTree, RandomForest, cart_train, rf_train
from landseg.classical.svm import PairModel, SvmClassifier
from landseg import jsondoc
from landseg.jsondoc import JsonDoc
from landseg.models import save_model
from landseg.nn import TrainConfig, build_network
from landseg.nn.networks import WeightsManifest
from landseg.raster import ClassLegend, LabelRaster, LegendClass, Raster
from landseg.synth import SceneSpec
from landseg.tiling import TilePlan, TileSplit, plan_tiles

X = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 2], [2, 3], [3, 2],
              [3, 3], [0, 3], [3, 0], [1, 2], [2, 1]], dtype=np.float64)
Y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])


def fixed_documents():
    """Tiny models and specs whose saved bytes are pinned below."""
    svm = SvmClassifier(
        pairs=[PairModel(0, 1, np.array([[0.5, -1.0], [1.25, 0.1]]),
                         np.array([0.75, -0.75]), 0.125, 1e-4),
               PairModel(0, 2, np.array([[-0.3, 2.0]]), np.array([1.5]),
                         -0.25, 0.0)],
        mean=np.array([1.5, 1.5]), std=np.array([1.1, 1.2]), n_classes=3)
    return {
        "cart": cart_train(X, Y, min_leaf=1),
        "rf": rf_train(X, Y, n_trees=3, min_leaf=1, seed=5),
        "svm": svm,
        "plan": plan_tiles(100, 70, patch=32, stride=24),
        "spec": SceneSpec(width=64, height=48, seed=3, spectral_seed=9),
        "split": TileSplit(
            plan=plan_tiles(40, 30, patch=16, stride=12), seed=4, dropped=1,
            splits={"train": [(0, 12), (14, 24), (0, 0)], "val": [(14, 12)],
                    "test": [(0, 24)]}),
        "manifest": WeightsManifest.of(_tiny_net()),
        "legend": ClassLegend(classes=(
            LegendClass(0, "Water", (0, 0, 255)),
            LegendClass(1, "Bare soil", (200, 180, 120)))),
    }


def _tiny_net():
    net = build_network("psp_mini", in_ch=2, n_classes=3, width=4, patch=8)
    net.set_band_norm([1.5, -2.0], [0.5, 3.0])
    return net


# sha256 of each document as written before the shared codec existed
PINNED = {
    "cart": "a9026957403d84ea617a6f70d9e6024bfb2332a9f5ae662e45051e80a8708901",
    # the same document less its stored 'oob_indices' lists
    "rf": "92b59e9a641f5bac4acb431bebecbece42b0a71237e52af3fc852ef5b5e23fbc",
    "svm": "21410f3d8c1e691dd936153dbd9eaa536abf0b5c6a5a3862879c68044ea88538",
    "plan": "0738214e3e3100ccd28767dc940603e07c205e0a1ae2346803c44a9677bb37b6",
    "spec": "0b4ef6e1c0b52dc448a0b4eac0fef77bfb1ed1482991cef32f07b57603c8f620",
    # written by the tile stage's, save_network's and ClassLegend's own
    # writers before the three moved onto the codec
    "split": "c1133787521f94c0aa3b311bf0a8c25ce16b72c0bbbc01a23f072027a80bf8c7",
    "manifest": "b6539258766d27d34125932500d56dd4964ad976afe0df6db0ed266371e63dbf",
    "legend": "fa84c90804adbf00707bc3a7d75fa48e0e2006316a400a0eb72a6a8964ddac39",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_saved_document_bytes_are_pinned(tmp_path, name):
    obj = fixed_documents()[name]
    path = tmp_path / f"{name}.json"
    if name not in ("cart", "rf", "svm"):
        obj.save(path)
    else:
        save_model(obj, path, band_names=["a", "b"])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[name]


def _document_classes(obj) -> set:
    """The class of a document and of every document nested in it."""
    found = {type(obj)}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, dict):
            value = list(value.values())
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, JsonDoc):
                found |= _document_classes(item)
    return found


def test_every_document_class_has_a_pinned_sample():
    def subclasses(cls):
        return {sub for c in cls.__subclasses__()
                for sub in (c, *subclasses(c))}

    docs = fixed_documents()
    pinned = set().union(*(_document_classes(docs[name]) for name in PINNED))
    assert sorted(c.__name__ for c in subclasses(JsonDoc) - pinned) == []


def _json_round_trip(obj):
    back = type(obj).from_json(json.loads(json.dumps(obj.to_json())))
    assert back.to_json() == obj.to_json()
    return back


def _assert_tree_dtypes(tree):
    for name in ("feature", "left", "right", "hist"):
        assert getattr(tree, name).dtype == np.int64, name
    assert tree.threshold.dtype == np.float64
    assert tree.hist.ndim == 2


def test_round_trip_keeps_node_and_oob_dtypes():
    docs = fixed_documents()
    _assert_tree_dtypes(_json_round_trip(docs["cart"]))
    # on a single row every bootstrap draws it, so no tree has an OOB row
    one_row = rf_train(X[:1], Y[:1], n_trees=2, n_classes=3)
    for forest in (docs["rf"], one_row):
        # a forest is its trees and its seed: the OOB sets are re-drawn
        assert list(forest.to_json()) == [
            "trees", "n_classes", "n_features", "n_rows", "seed", "mtry",
            "min_leaf", "oob_error"]
        back = _json_round_trip(forest)
        assert all(isinstance(t, DecisionTree) for t in back.trees)
        for tree in back.trees:
            _assert_tree_dtypes(tree)
        assert [i.dtype for i in back.oob_indices] == [np.int64] * len(
            forest.oob_indices)
        assert [i.tolist() for i in back.oob_indices] == [
            i.tolist() for i in forest.oob_indices]
        assert np.array_equal(back.predict_proba(X), forest.predict_proba(X))
    # empty OOB sets stay int64
    assert back.oob_indices[0].size == 0 and back.oob_error is None


def test_round_trip_keeps_svm_arrays():
    svm = fixed_documents()["svm"]
    back = _json_round_trip(svm)
    assert all(isinstance(p, PairModel) for p in back.pairs)
    assert back.pairs[0].sv.shape == (2, 2)
    for arr in (back.mean, back.std, back.pairs[1].sv, back.pairs[1].coef):
        assert arr.dtype == np.float64
    assert np.array_equal(back.predict_proba(X), svm.predict_proba(X))
    pair = _json_round_trip(svm.pairs[0])
    assert pair.bias == 0.125 and pair.coef.dtype == np.float64


def test_round_trip_keeps_tuples(tmp_path):
    docs = fixed_documents()
    docs["plan"].save(tmp_path / "plan.json")
    plan = TilePlan.load(tmp_path / "plan.json")
    assert plan.anchors == docs["plan"].anchors
    assert all(type(a) is tuple for a in plan.anchors)
    spec = _json_round_trip(docs["spec"])
    assert spec.dem_range == (0.0, 2000.0) and type(spec.dem_range) is tuple
    assert spec.spectral_means.dtype == np.float64


def test_partial_scene_spec_keeps_defaults():
    spec = SceneSpec.from_json({"width": 40, "seed": 2,
                                "dem_range": [10, 1500]})
    want = SceneSpec(width=40, seed=2, dem_range=(10, 1500))
    assert spec.to_json() == want.to_json()
    assert spec.height == 512 and spec.dem_range == (10, 1500)


def test_unknown_and_missing_keys_are_named():
    doc = fixed_documents()["cart"].to_json()
    with pytest.raises(ValueError, match="DecisionTree .*unknown key 'extra'"):
        DecisionTree.from_json({**doc, "extra": 1})
    del doc["feature"]
    with pytest.raises(ValueError, match="DecisionTree .*'feature'"):
        DecisionTree.from_json(doc)
    with pytest.raises(ValueError, match="SceneSpec .*unknown key 'widht'"):
        SceneSpec.from_json({"widht": 64})
    with pytest.raises(ValueError, match="TilePlan .*'anchors'"):
        TilePlan.from_json({"patch": 8, "stride": 4, "width": 8,
                            "height": 8})


@pytest.mark.parametrize("kind,key", [
    ("cart", "min_leaf"), ("cart", "max_depth"), ("rf", "oob_error"),
    ("svm", "C"), ("svm", "gamma"), ("svm", "tol"),
])
def test_model_documents_need_defaulted_fields(kind, key):
    model = fixed_documents()[kind]
    doc = model.to_json()
    del doc[key]
    cls = type(model)
    with pytest.raises(ValueError, match=f"{cls.__name__} .*{key!r}"):
        cls.from_json(doc)


def test_nested_and_non_object_documents_are_named():
    forest = fixed_documents()["rf"].to_json()
    del forest["trees"][1]["hist"]
    with pytest.raises(ValueError, match="RandomForest 'trees'.*"
                                         "DecisionTree .*'hist'"):
        RandomForest.from_json(forest)
    with pytest.raises(ValueError, match="TilePlan .*JSON object, got list"):
        TilePlan.from_json([1])
    with pytest.raises(ValueError, match="SvmClassifier 'pairs'.*PairModel"):
        SvmClassifier.from_json({"pairs": [3], "mean": [0.0], "std": [1.0],
                                 "n_classes": 2})


def _samples() -> dict:
    """One object of each class whose fields may declare rules: the pinned
    documents, every document nested in them, a training configuration
    and the two rasters."""
    found = {}

    def visit(obj):
        found.setdefault(type(obj), obj)
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, dict):
                value = list(value.values())
            for item in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(item, JsonDoc):
                    visit(item)

    for obj in (*fixed_documents().values(), TrainConfig(),
                Raster(2, 1, ["a"], np.zeros((1, 1, 2)), np.ones((1, 2))),
                LabelRaster(2, 1, np.zeros((1, 2)))):
        visit(obj)
    return found


def test_every_checked_class_has_a_sample():
    def subclasses(cls):
        return {sub for c in cls.__subclasses__()
                for sub in (c, *subclasses(c))}

    missing = subclasses(jsondoc.Checked) - {JsonDoc, *_samples()}
    assert sorted(c.__name__ for c in missing) == []


def _with_first_number(value, new):
    """A copy of a JSON list with its first number, at any depth, set to
    new; value itself if it holds none."""
    if not isinstance(value, list):
        return new if isinstance(value, (int, float)) else value
    out = list(value)
    for i, item in enumerate(out):
        edited = _with_first_number(item, new)
        if edited is not item:
            out[i] = edited
            return out
    return value


def _corruptions(value) -> list:
    """JSON values shaped like value that some rule may reject."""
    bad = [0, -1, float("nan"), float("inf")]
    if isinstance(value, str):
        return ["bogus"]
    if isinstance(value, list):
        return [[]] + [_with_first_number(value, b) for b in bad]
    return bad


RULED_FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls, sample in _samples().items() for f in fields(sample)
    if f.metadata.get(jsondoc._CHECK) is not None]


def test_declared_rules_are_pinned():
    # a rule dropped from a field drops its case below, so the fields that
    # declare one are listed here
    assert sorted(p.id for p in RULED_FIELDS) == sorted(
        f"{cls}.{key}" for cls, keys in {
            "ClassLegend": ["nodata_id"],
            "DecisionTree": ["min_leaf", "max_depth"],
            "LabelRaster": ["width", "height"],
            "LayerEntry": ["shape"],
            "PairModel": ["sv", "coef", "bias"],
            "RandomForest": ["n_rows", "seed", "mtry", "min_leaf"],
            "Raster": ["width", "height"],
            "SceneSpec": ["n_classes"],
            "SvmClassifier": ["pairs", "mean", "std", "n_classes", "C",
                              "gamma", "tol"],
            "TilePlan": ["patch", "stride"],
            "TrainConfig": ["optimizer", "lr", "momentum", "epochs",
                            "batch_size", "seed", "class_weights"],
            "WeightsManifest": ["format", "arch", "in_ch", "n_classes",
                                "width", "patch", "band_mean", "band_std"],
        }.items() for key in keys)


@pytest.mark.parametrize("cls, f", RULED_FIELDS)
def test_every_declared_rule_is_enforced(cls, f):
    # the first corruption that breaks the field's own rule must stop direct
    # construction with a message that starts with the key, and a
    # document's from_json with the same message after its class name
    sample = _samples()[cls]
    value = json.loads(json.dumps(jsondoc._encode(getattr(sample, f.name))))
    decode = f.metadata.get(jsondoc._DECODE) or (lambda v: v)
    for bad in _corruptions(value):
        try:
            f.metadata[jsondoc._CHECK](decode(bad))
        except ValueError:
            break
    else:
        pytest.fail(f"no corruption of {value!r} breaks the rule")
    with pytest.raises(ValueError) as built:
        replace(sample, **{f.name: decode(bad)})
    assert str(built.value).startswith(f"{f.name!r} ")
    if issubclass(cls, JsonDoc):
        doc = json.loads(json.dumps({**sample.to_json(), f.name: bad}))
        with pytest.raises(ValueError) as read:
            cls.from_json(doc)
        assert str(read.value) == f"{cls.__name__}: {built.value}"
