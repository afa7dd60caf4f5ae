"""The robustness protocol's settings are module constants; this pins the
report they give, so a changed constant shows here and not only as a
weaker or stronger drift result. table2's pin with every trainer, and the
check that scoring its sampled rows scores the map at those pixels."""

import hashlib

import numpy as np
import pytest

from landseg.classical import fit
from landseg.evaluate import dump_report
from landseg.experiment import (
    BAND_SETS, _sample_split, robustness_experiment, table2_experiment,
)
from landseg.models import predict_map
from landseg.preprocess import apply_cloud_mask
from landseg.synth import SceneSpec, generate_scene


def test_robustness_report_is_pinned():
    report, details = robustness_experiment(
        seed=5, n_pairs=1, n_trees=10, epochs=1, keep_details=True)
    assert len(details) == 1
    assert hashlib.sha256(dump_report(report).encode()).hexdigest() == (
        "072b5817a3fb0062518cc10b8bafdc1ae8575e9d73fa883ff3b80b44338431ed")


def test_table2_report_with_every_trainer_is_pinned():
    report = table2_experiment(
        seed=13, n_scenes=1, n_per_class=60, svm_per_class=30,
        algorithms=("cart", "rf", "svm"),
        scene_spec=SceneSpec(width=128, height=128), n_trees=25)
    assert hashlib.sha256(dump_report(report).encode()).hexdigest() == (
        "fbed0460254cbcfee9b106cd63098b8f207829cdc074d0ad36b95e700828aaee")


@pytest.mark.parametrize("algo", ["cart", "rf", "svm"])
def test_table2_rows_are_the_map_at_their_pixels(algo):
    spec = SceneSpec(width=128, height=128, seed=3)
    stack, labels, cloud = generate_scene(spec)
    stack = apply_cloud_mask(stack, cloud)
    legend = spec.legend()
    train_rows, eval_rows = _sample_split(stack, labels, legend, 60, seed=4)
    rows, cols = eval_rows.positions.T
    for bands in BAND_SETS.values():
        model = fit(algo, train_rows.x[:, bands], train_rows.y,
                    n_classes=legend.n_classes, n_trees=25, seed=5)
        label_map, _ = predict_map(
            model, stack.select([stack.bands[b] for b in bands]))
        np.testing.assert_array_equal(model.predict(eval_rows.x[:, bands]),
                                      label_map.labels[rows, cols])
