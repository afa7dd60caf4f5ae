import tracemalloc

import numpy as np
import pytest

from landseg import SceneSpec, SvmClassifier, default_legend, generate_scene
from landseg import stratified_sample, svm_train
from landseg.classical.svm import rbf_kernel, smo_solve


def blobs(rng, n_per_class=60, centers=((0, 0), (6, 6)), spread=0.8):
    xs, ys = [], []
    for cid, center in enumerate(centers):
        xs.append(rng.normal(center, spread, size=(n_per_class, len(center))))
        ys.append(np.full(n_per_class, cid))
    return np.concatenate(xs), np.concatenate(ys)


def test_rbf_kernel_self_is_one(rng):
    x = rng.random((10, 4))
    k = rbf_kernel(x, x, gamma=0.1)
    assert np.allclose(np.diag(k), 1.0)
    assert (k <= 1.0 + 1e-12).all() and (k > 0).all()


def test_two_point_problem():
    # symmetric pair: boundary at 0, both points support vectors with the
    # analytic alpha = 1 / (1 - K12)
    x = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = svm_train(x, y, C=300.0, gamma=0.1)
    pm = model.pairs[0]
    assert pm.sv.shape[0] == 2
    k12 = np.exp(-0.1 * 4.0)
    expected = 1.0 / (1.0 - k12)
    assert np.allclose(np.abs(pm.coef), expected, atol=1e-6)
    assert abs(pm.bias) < 1e-9
    assert model.predict(np.array([[-0.25]]))[0] == 0
    assert model.predict(np.array([[0.25]]))[0] == 1


def test_duplicated_rows_same_decision(rng):
    x, y = blobs(rng, n_per_class=25)
    a = svm_train(x, y, C=10.0, gamma=0.1)
    b = svm_train(np.vstack([x, x]), np.concatenate([y, y]), C=10.0, gamma=0.1)
    probe = rng.uniform(-2, 8, size=(200, 2))
    assert np.array_equal(a.predict(probe), b.predict(probe))


def test_dual_feasibility(rng):
    x, y = blobs(rng, n_per_class=40,
                 centers=((0, 0), (4, 4), (0, 5)), spread=1.0)
    model = svm_train(x, y, C=300.0, gamma=0.1, tol=1e-3)
    for pm in model.pairs:
        alpha = np.abs(pm.coef)
        assert (alpha >= -1e-12).all() and (alpha <= 300.0 + 1e-9).all()
        assert abs(pm.coef.sum()) <= 1e-6  # sum alpha_i y_i = 0
        assert pm.kkt_violation <= 1e-3


def test_multiclass_separable(rng):
    x, y = blobs(rng, n_per_class=40,
                 centers=((0, 0), (7, 0), (0, 7)), spread=0.7)
    model = svm_train(x, y)
    assert (model.predict(x) == y).mean() == 1.0
    assert len(model.pairs) == 3


def test_smo_respects_tolerance(rng):
    x, y = blobs(rng, n_per_class=50, spread=2.5)  # overlapping
    xs = (x - x.mean(axis=0)) / x.std(axis=0)
    y_signed = np.where(y == 0, 1.0, -1.0)
    alpha, bias, iters, gap = smo_solve(xs, y_signed, C=300.0, gamma=0.1,
                                        tol=1e-3, max_iter=200_000)
    assert gap <= 1e-3
    assert iters > 0
    assert abs(np.sum(alpha * y_signed)) < 1e-6


def test_svm_needs_two_classes():
    with pytest.raises(ValueError, match="two classes"):
        svm_train(np.zeros((3, 2)), np.zeros(3, dtype=int))


def test_svm_deterministic(rng):
    x, y = blobs(rng, n_per_class=30)
    a = svm_train(x, y)
    b = svm_train(x, y)
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.coef, pb.coef)
        assert pa.bias == pb.bias


def test_svm_json_round_trip(rng):
    x, y = blobs(rng, n_per_class=30, centers=((0, 0), (5, 5), (5, 0)))
    model = svm_train(x, y)
    back = SvmClassifier.from_json(model.to_json())
    probe = rng.uniform(-1, 6, size=(50, 2))
    assert np.array_equal(back.predict(probe), model.predict(probe))
    probs = back.predict_proba(probe)
    assert np.allclose(probs.sum(axis=1), 1.0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_decisions_match_each_pairs_own_kernel(rng, order):
    # the shared kernel is cut into row blocks; every pair's decision
    # values are the bits of a kernel over its own support vectors, taken
    # over all rows at once
    x, y = blobs(rng, n_per_class=40, centers=((0, 0), (3, 3), (0, 3),
                                               (3, 0)), spread=1.5)
    model = svm_train(x, y)
    xs = np.asarray(model._standardize(rng.uniform(-2, 5, size=(5003, 2))),
                    order=order)
    got = {id(pm): [] for pm in model.pairs}
    for at, pm, g in model._decisions(xs):
        assert at == sum(b.size for b in got[id(pm)])
        got[id(pm)].append(g)
    for pm in model.pairs:
        want = rbf_kernel(xs, pm.sv, model.gamma) @ pm.coef + pm.bias
        assert np.concatenate(got[id(pm)]).tobytes() == want.tobytes()


def test_svm_vote_memory_is_bounded():
    # the pixel_map benchmark's SVM (100 rows per class of a 256x256
    # scene) voting on all 65,536 pixels in one call
    stack, labels, _ = generate_scene(SceneSpec(width=256, height=256,
                                                seed=4))
    table = stratified_sample(stack, labels, default_legend(6), 100, seed=3)
    model = svm_train(table.x, table.y, n_classes=6)
    x = stack.data.reshape(stack.n_bands, -1).T.astype(np.float64)
    tracemalloc.start()
    try:
        model.predict_proba(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
