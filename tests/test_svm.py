import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_svm_names_non_finite_table_cell():
    x = np.zeros((5, 3))
    x[3, 1] = np.nan
    x[4, 0] = np.inf
    y = np.array([0, 0, 1, 1, 1])
    with pytest.raises(ValueError, match=r"holds nan at row 3, column 1"):
        svm_train(x, y)
    x[3, 1] = 0.0
    with pytest.raises(ValueError, match=r"holds inf at row 4, column 0"):
        svm_train(x, y)


def reference_smo(x, y_signed, C, gamma, tol, max_iter):
    """smo_solve as a plain loop that rebuilds both working-set masks and
    clips through np.clip every step: the oracle for smo_solve's bits."""
    n = x.shape[0]
    kmat = rbf_kernel(x, x, gamma)
    alpha = np.zeros(n)
    f = np.zeros(n)
    it = 0
    viol = y_signed - f
    while it < max_iter:
        up = ((y_signed > 0) & (alpha < C - 1e-12)) | ((y_signed < 0) & (alpha > 1e-12))
        down = ((y_signed < 0) & (alpha < C - 1e-12)) | ((y_signed > 0) & (alpha > 1e-12))
        if not up.any() or not down.any():
            break
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        j = int(np.argmin(np.where(down, viol, np.inf)))
        gap = viol[i] - viol[j]
        if gap <= tol:
            break
        if y_signed[i] != y_signed[j]:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(C, C + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - C)
            hi = min(C, alpha[i] + alpha[j])
        eta = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
        step = y_signed[j] * (viol[j] - viol[i]) / max(eta, 1e-12)
        aj_new = float(np.clip(alpha[j] + step, lo, hi))
        ai_new = alpha[i] + y_signed[i] * y_signed[j] * (alpha[j] - aj_new)
        ai_new = float(np.clip(ai_new, 0.0, C))
        if abs(aj_new - alpha[j]) < 1e-14 and abs(ai_new - alpha[i]) < 1e-14:
            break
        f = f + (ai_new - alpha[i]) * y_signed[i] * kmat[i] \
              + (aj_new - alpha[j]) * y_signed[j] * kmat[j]
        alpha[i], alpha[j] = ai_new, aj_new
        viol = y_signed - f
        it += 1

    up = ((y_signed > 0) & (alpha < C - 1e-12)) | ((y_signed < 0) & (alpha > 1e-12))
    down = ((y_signed < 0) & (alpha < C - 1e-12)) | ((y_signed > 0) & (alpha > 1e-12))
    final_gap = 0.0
    if up.any() and down.any():
        final_gap = float(np.max(viol[up]) - np.min(viol[down]))
    if it >= max_iter and final_gap > tol:
        warnings.warn(
            f"SMO hit the iteration cap ({max_iter}) at KKT violation {final_gap:.2e}"
        )
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        bias = float(np.mean(viol[free]))
    elif up.any() and down.any():
        bias = float((np.max(viol[up]) + np.min(viol[down])) / 2.0)
    else:
        bias = 0.0
    return alpha, bias, it, final_gap


def _solve_bits(solver, *args):
    """A solve's alpha bytes, bias and gap bytes, iterations and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        alpha, bias, it, gap = solver(*args)
    return (alpha.dtype, alpha.tobytes(), np.float64(bias).tobytes(), it,
            np.float64(gap).tobytes(), [str(w.message) for w in caught])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 60), d=st.integers(1, 4),
       n_dup=st.integers(0, 30), pos_share=st.floats(0.0, 1.0),
       spread=st.sampled_from([0.1, 1.0, 4.0]),
       C=st.sampled_from([1.5e-12, 0.01, 0.3, 1, 300.0]),
       gamma=st.sampled_from([0.1, 1.0, 10.0]),
       tol=st.sampled_from([1e-16, 1e-3]),
       max_iter=st.sampled_from([1, 2, 7, 200_000]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_smo_keeps_the_plain_loops_bits(n, d, n_dup, pos_share, spread, C,
                                        gamma, tol, max_iter, seed):
    # duplicate rows give eta = 0 steps, a small C binds the box, unequal
    # class sizes and a short cap stop the solve early; a C within the
    # 1e-12 margins of the up and down sets, with a tiny tol, can empty a
    # set part way through
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, spread, size=(n, d))
    n_dup = min(n_dup, n - 1)
    x[rng.integers(0, n, n_dup)] = x[rng.integers(0, n, n_dup)]
    y = np.where(rng.permutation(n) < round(pos_share * n), 1.0, -1.0)
    args = (x, y, C, gamma, tol, max_iter)
    assert _solve_bits(smo_solve, *args) == _solve_bits(reference_smo, *args)


@pytest.mark.parametrize("x, y", [
    ([0.3, -0.3, -0.9, -0.5], [-1.0, 1.0, -1.0, -1.0]),   # up empties
    ([-1.4, 1.6, -2.8, 0.1], [1.0, 1.0, 1.0, -1.0]),     # down empties
])
def test_smo_stops_where_a_set_empties(x, y):
    # alphas of 1.5e-12 sit within the sets' 1e-12 margins, so the
    # minority row's step leaves the up or the down set empty
    args = (np.array(x)[:, None], np.array(y), 1.5e-12, 1.0, 1e-16, 1000)
    got = _solve_bits(smo_solve, *args)
    assert got == _solve_bits(reference_smo, *args)
    assert got[3] >= 2


def test_smo_keeps_the_plain_loops_bits_on_benchmark_table():
    # the pixel_map benchmark's SVM table: 100 rows per class, 15 pairs
    stack, labels, _ = generate_scene(SceneSpec(width=256, height=256,
                                                seed=4))
    table = stratified_sample(stack, labels, default_legend(6), 100, seed=3)
    x = (table.x - table.x.mean(axis=0)) / table.x.std(axis=0)
    for c1, c2 in combinations(np.unique(table.y), 2):
        sel = (table.y == c1) | (table.y == c2)
        y = np.where(table.y[sel] == c1, 1.0, -1.0)
        args = (x[sel], y, 300.0, 0.1, 1e-3, 200_000)
        got = _solve_bits(smo_solve, *args)
        assert got == _solve_bits(reference_smo, *args), (c1, c2)
        assert got[3] > 0 and not got[5]
