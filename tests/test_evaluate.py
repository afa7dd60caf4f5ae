import tracemalloc

import numpy as np
import pytest

from landseg import (
    ConfusionMatrix,
    GroundPointSet,
    LabelRaster,
    accumulate,
    argmax_labels,
    class_metrics,
    confusion_from,
    default_legend,
    ensemble_average,
    f1_score,
    overall_accuracy,
    render_table,
    report,
)
from landseg.evaluate import confusion_from_arrays, dump_report


def labels_of(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    return LabelRaster(arr.shape[1], arr.shape[0], arr)


def cm_of(counts):
    return ConfusionMatrix(counts=np.asarray(counts, dtype=np.int64))


# -------------------------------------------------------------- accumulate

def test_accumulate_perfect_prediction(rng):
    y = rng.integers(0, 3, size=(10, 10)).astype(np.uint8)
    cm = confusion_from(labels_of(y), labels_of(y), 3)
    assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)
    assert cm.total == 100


def test_accumulate_total_confusion():
    ref = labels_of(np.zeros((5, 5)))
    pred = labels_of(np.ones((5, 5)))
    cm = confusion_from(ref, pred, 2)
    assert cm.counts[0, 1] == 25
    assert cm.counts.sum() == 25


def test_accumulate_hand_pattern():
    ref = np.concatenate([np.zeros(50), np.ones(50)]).reshape(10, 10)
    pred = np.concatenate([
        np.zeros(40), np.ones(10), np.zeros(20), np.ones(30)
    ]).reshape(10, 10)
    cm = confusion_from(labels_of(ref), labels_of(pred), 2)
    assert cm.counts.tolist() == [[40, 10], [20, 30]]
    assert overall_accuracy(cm) == pytest.approx(0.70)


def test_accumulate_skips_nodata():
    ref = np.array([[0, 255], [1, 1]])
    pred = np.array([[0, 0], [255, 1]])
    cm = confusion_from(labels_of(ref), labels_of(pred), 2)
    assert cm.total == 2
    assert cm.counts[0, 0] == 1 and cm.counts[1, 1] == 1


def test_accumulate_points():
    pred = labels_of(np.array([[0, 1], [1, 0]]))
    pts = GroundPointSet(points=[(0, 0, 0), (0, 1, 0), (1, 1, 1)])
    cm = accumulate(cm_of([[0, 0], [0, 0]]), pts, pred)
    assert cm.counts.tolist() == [[1, 1], [1, 0]]
    with pytest.raises(ValueError, match="outside"):
        accumulate(cm_of([[0, 0], [0, 0]]),
                   GroundPointSet(points=[(5, 0, 0)]), pred)


def test_accumulate_geometry_mismatch():
    with pytest.raises(ValueError, match="geometry"):
        confusion_from(labels_of(np.zeros((2, 2))),
                       labels_of(np.zeros((2, 3))), 2)


def test_accumulate_mergeable(rng):
    a = rng.integers(0, 3, size=(6, 6)).astype(np.uint8)
    b = rng.integers(0, 3, size=(6, 6)).astype(np.uint8)
    full = confusion_from(labels_of(a), labels_of(b), 3)
    top = confusion_from(labels_of(a[:3]), labels_of(b[:3]), 3)
    bottom = confusion_from(labels_of(a[3:]), labels_of(b[3:]), 3)
    assert np.array_equal(top.counts + bottom.counts, full.counts)


def test_confusion_from_arrays_counts_and_skips_nodata():
    cm = confusion_from_arrays([0, 1, 1, 255, 2], [0, 1, 2, 1, 255], 3)
    assert cm.counts.tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 0]]
    assert cm.counts.dtype == np.int64


@pytest.mark.parametrize("ref,pred", [
    ([0, 3], [0, 1]),      # reference id == K
    ([0, 1], [0, 7]),      # predicted id > K
    ([0, -1], [0, 1]),     # negative reference id
    ([0, 1], [-2, 1]),     # negative predicted id
])
def test_confusion_from_arrays_rejects_ids_outside(ref, pred):
    with pytest.raises(ValueError, match="outside"):
        confusion_from_arrays(ref, pred, 3)


def test_accumulate_rejects_negative_point_class():
    pred = labels_of(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="outside"):
        accumulate(cm_of([[0, 0], [0, 0]]),
                   GroundPointSet(points=[(0, 0, -1)]), pred)


# ----------------------------------------------------------------- metrics

def test_overall_accuracy_cases():
    assert overall_accuracy(cm_of([[5, 0], [0, 7]])) == 1.0
    assert overall_accuracy(cm_of([[0, 5], [7, 0]])) == 0.0
    with pytest.raises(ValueError, match="empty"):
        overall_accuracy(cm_of([[0, 0], [0, 0]]))


def test_class_metrics_hand():
    cm = cm_of([[40, 10], [20, 30]])
    ua, pa, f1, undef = class_metrics(cm, 0)
    assert ua == pytest.approx(40 / 60)
    assert pa == pytest.approx(40 / 50)
    assert f1 == pytest.approx(2 * (40 / 60) * (40 / 50) / (40 / 60 + 40 / 50))
    assert not undef


def test_f1_of_equal_ua_pa():
    for p in (0.1, 0.37, 0.9):
        assert f1_score(p, p) == pytest.approx(p)


def test_f1_paper_rows():
    assert round(f1_score(0.87, 0.32), 2) == 0.47
    assert round(f1_score(0.67, 0.05), 2) == 0.09


def test_zero_marginal_flagged():
    cm = cm_of([[10, 0, 0], [5, 0, 0], [0, 0, 0]])
    ua, pa, f1, undef = class_metrics(cm, 2)
    assert (ua, pa, f1) == (0.0, 0.0, 0.0)
    assert undef


def test_micro_pa_equals_oa(rng):
    for _ in range(20):
        counts = rng.integers(0, 50, size=(4, 4))
        if counts.sum() == 0:
            continue
        cm = cm_of(counts)
        rows = counts.sum(axis=1)
        pas = np.array([class_metrics(cm, c)[1] for c in range(4)])
        micro = (pas * rows).sum() / rows.sum()
        assert micro == pytest.approx(overall_accuracy(cm))


def test_permutation_invariance(rng):
    counts = rng.integers(0, 30, size=(3, 3)) + 1
    cm = cm_of(counts)
    perm = np.array([2, 0, 1])
    cmp = cm_of(counts[np.ix_(perm, perm)])
    for new_c, old_c in enumerate(perm):
        assert class_metrics(cmp, new_c) == class_metrics(cm, old_c)
    assert overall_accuracy(cmp) == pytest.approx(overall_accuracy(cm))


def test_f1_bounds_property(rng):
    for _ in range(50):
        ua, pa = rng.random(2)
        if ua + pa == 0:
            continue
        f1 = f1_score(ua, pa)
        assert min(ua, pa) - 1e-12 <= f1 <= 2 * min(ua, pa) + 1e-12


# ---------------------------------------------------------------- ensemble

def test_ensemble_identity():
    m = np.random.default_rng(0).random((3, 4, 4))
    m /= m.sum(axis=0, keepdims=True)
    out = ensemble_average([m, m, m])
    assert np.allclose(out, m, atol=1e-15)


def test_ensemble_tie_goes_low():
    a = np.zeros((2, 1, 1))
    a[0] = 1.0
    b = np.zeros((2, 1, 1))
    b[1] = 1.0
    out = ensemble_average([a, b])
    assert np.allclose(out, 0.5)
    assert argmax_labels(out).labels[0, 0] == 0


def test_ensemble_hand_mean(rng):
    maps = []
    for _ in range(3):
        m = rng.random((3, 2, 2))
        m /= m.sum(axis=0, keepdims=True)
        maps.append(m)
    out = ensemble_average(maps)
    hand = (maps[0] + maps[1] + maps[2]) / 3.0
    hand /= hand.sum(axis=0, keepdims=True)
    assert np.allclose(out, hand, atol=1e-15)
    assert np.abs(out.sum(axis=0) - 1.0).max() < 1e-12


def test_ensemble_duplication_invariance(rng):
    maps = []
    for _ in range(2):
        m = rng.random((3, 3, 3))
        m /= m.sum(axis=0, keepdims=True)
        maps.append(m)
    once = ensemble_average(maps)
    twice = ensemble_average(maps + maps)
    assert np.array_equal(
        argmax_labels(once).labels, argmax_labels(twice).labels
    )


def test_ensemble_sums_as_the_stacked_mean(rng):
    maps = []
    for _ in range(5):
        m = rng.random((4, 9, 7))
        maps.append(m / m.sum(axis=0, keepdims=True))
    want = np.mean(maps, axis=0)
    want /= want.sum(axis=0, keepdims=True)
    assert ensemble_average(iter(maps)).tobytes() == want.tobytes()


def test_ensemble_memory_is_one_map_at_a_time(rng):
    shape = (6, 256, 256)

    def maps():
        for _ in range(3):
            m = rng.random(shape)
            m /= m.sum(axis=0, keepdims=True)
            yield m

    tracemalloc.start()
    try:
        ensemble_average(maps())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the running sum, the map being read and the result, plus per-pixel
    # temporaries
    assert peak <= 4 * np.prod(shape) * 8


def test_ensemble_validates_inputs(rng):
    m = rng.random((3, 2, 2))
    with pytest.raises(ValueError, match="sum to 1"):
        ensemble_average([m])
    ok = m / m.sum(axis=0, keepdims=True)
    with pytest.raises(ValueError, match="geometry"):
        ensemble_average([ok, ok[:, :1]])
    with pytest.raises(ValueError, match="at least one"):
        ensemble_average(iter([]))


# ------------------------------------------------------------------ report

def test_report_and_table(tmp_path, rng):
    y = rng.integers(0, 3, size=(20, 20)).astype(np.uint8)
    p = y.copy()
    p[0] = (p[0] + 1) % 3
    legend = default_legend(3)
    cm = confusion_from(labels_of(y), labels_of(p), 3)
    rep = report(cm, legend, provenance={"model": "demo"})
    assert rep.total == 400
    assert len(rep.class_names) == 3
    text = render_table(rep)
    assert "Category" in text and "f1-score" in text and "Overall" in text
    (tmp_path / "report.json").write_text(dump_report(rep.to_json()))
    cm.save_csv(tmp_path / "cm.csv", legend)
    assert (tmp_path / "report.json").exists()
    lines = (tmp_path / "cm.csv").read_text().splitlines()
    assert len(lines) == 4
