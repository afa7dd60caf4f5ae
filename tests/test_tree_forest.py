import hashlib

import numpy as np
import pytest

from landseg import (
    RandomForest, SvmClassifier, cart_train, gini, permutation_importance,
    rf_train, svm_train,
)
from landseg.classical.svm import PairModel
from landseg.classical.tree import DecisionTree


def blobs(rng, n_per_class=100, centers=((0, 0), (6, 6)), spread=1.0):
    xs, ys = [], []
    for cid, center in enumerate(centers):
        xs.append(rng.normal(center, spread, size=(n_per_class, len(center))))
        ys.append(np.full(n_per_class, cid))
    return np.concatenate(xs), np.concatenate(ys)


# -------------------------------------------------------------------- gini

def test_gini_values():
    assert gini([5, 5]) == pytest.approx(0.5)
    assert gini([10, 0]) == pytest.approx(0.0)
    assert gini([2, 3, 5]) == pytest.approx(0.62)


def test_gini_empty_node():
    with pytest.raises(ValueError, match="empty"):
        gini([0, 0])


@pytest.mark.parametrize("k", [2, 6, 9, 17])
def test_gini_of_count_matrix_matches_rows(rng, k):
    counts = rng.integers(0, 40, size=(300, k))
    counts[:, 0] += 1
    rows = np.array([gini(c) for c in counts])
    # Fortran order and int32 must not change the bits either
    for matrix in (counts, np.asfortranarray(counts.astype(np.int32))):
        g = gini(matrix)
        assert g.shape == (300,)
        assert g.tobytes() == rows.tobytes()


def test_gini_of_count_matrix_rejects_bad_rows():
    with pytest.raises(ValueError, match="non-negative"):
        gini([[3, 1], [2, -1]])
    with pytest.raises(ValueError, match="empty"):
        gini([[3, 1], [0, 0]])


# -------------------------------------------------------------------- cart

def test_cart_single_split():
    x = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    tree = cart_train(x, y, min_leaf=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(0.5)
    assert np.array_equal(tree.predict(x), y)


def test_cart_pure_data_single_leaf(rng):
    x = rng.random((20, 3))
    tree = cart_train(x, np.ones(20, dtype=int), min_leaf=1)
    assert tree.n_nodes == 1
    assert tree.is_leaf(0)


def test_cart_contradictory_rows_majority():
    x = np.zeros((5, 1))
    y = np.array([0, 0, 0, 1, 1])
    tree = cart_train(x, y, min_leaf=1)
    assert tree.n_nodes == 1
    assert tree.predict(np.zeros((1, 1)))[0] == 0


def test_cart_tie_breaks_to_lowest_feature():
    # both features split perfectly; feature 0 must win
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    tree = cart_train(x, y, min_leaf=1)
    assert tree.feature[0] == 0


def test_cart_min_leaf_respected(rng):
    x = rng.random((200, 4))
    y = rng.integers(0, 3, size=200)
    tree = cart_train(x, y, min_leaf=5)
    leaf_sizes = tree.hist[tree.feature < 0].sum(axis=1)
    assert (leaf_sizes >= 5).all()


def test_cart_split_gains_positive(rng):
    x = rng.random((150, 3))
    y = (x[:, 0] + 0.3 * rng.random(150) > 0.5).astype(int)
    tree = cart_train(x, y, min_leaf=5)
    for node in range(tree.n_nodes):
        if tree.is_leaf(node):
            continue
        parent = tree.hist[node]
        l, r = tree.hist[tree.left[node]], tree.hist[tree.right[node]]
        weighted = (l.sum() * gini(l) + r.sum() * gini(r)) / parent.sum()
        assert gini(parent) - weighted > 0


def test_cart_deterministic(rng):
    x = rng.random((100, 4))
    y = rng.integers(0, 3, size=100)
    a = cart_train(x, y)
    b = cart_train(x, y)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold)


def test_cart_predict_tie_to_lowest_class():
    tree = DecisionTree(
        feature=np.array([-1]), threshold=np.array([0.0]),
        left=np.array([-1]), right=np.array([-1]),
        hist=np.array([[3, 3]]), n_classes=2,
    )
    assert tree.predict(np.zeros((1, 1)))[0] == 0


def test_cart_empty_table():
    with pytest.raises(ValueError, match="empty"):
        cart_train(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_cart_separable_perfect_fit(rng):
    x, y = blobs(rng, centers=((0, 0), (8, 8), (0, 8)))
    tree = cart_train(x, y, min_leaf=1)
    assert (tree.predict(x) == y).mean() == 1.0


# ------------------------------------------------------------------ forest

def test_rf_matches_cart_without_randomness(rng):
    x = rng.random((80, 3))
    y = rng.integers(0, 2, size=80)
    forest = rf_train(x, y, n_trees=1, mtry=3, bootstrap=False, seed=5)
    cart = cart_train(x, y)
    tree = forest.trees[0]
    assert np.array_equal(tree.feature, cart.feature)
    assert np.array_equal(tree.threshold, cart.threshold)
    assert np.array_equal(tree.hist, cart.hist)


def test_rf_oob_fraction(rng):
    x = rng.random((1000, 2))
    y = rng.integers(0, 2, size=1000)
    forest = rf_train(x, y, n_trees=100, max_depth=1, seed=0)
    frac = forest.oob_fractions().mean()
    assert abs(frac - 0.368) < 0.02


def test_rf_separable_low_oob_error(rng):
    x, y = blobs(rng, n_per_class=300)
    forest = rf_train(x, y, n_trees=60, seed=1)
    assert forest.oob_error <= 0.05


def test_rf_single_row(rng):
    forest = rf_train(np.array([[1.0, 2.0]]), np.array([1]), n_trees=10,
                      n_classes=3, seed=2)
    for tree in forest.trees:
        assert tree.n_nodes == 1
    pred = forest.predict(np.array([[0.0, 0.0]]))
    assert pred[0] == 1


def test_rf_vote_probabilities(rng):
    x, y = blobs(rng, n_per_class=100)
    forest = rf_train(x, y, n_trees=30, seed=3)
    probs = forest.predict_proba(np.array([[0.0, 0.0], [6.0, 6.0]]))
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[0, 0] == 1.0  # unanimous deep-forest vote on a clean blob
    assert probs[1, 1] == 1.0


def test_rf_vote_tie_to_lowest_class():
    leaf = dict(threshold=np.array([0.0]), left=np.array([-1]),
                right=np.array([-1]), feature=np.array([-1]))
    t0 = DecisionTree(hist=np.array([[5, 0]]), n_classes=2, **leaf)
    t1 = DecisionTree(hist=np.array([[0, 5]]), n_classes=2, **leaf)
    from landseg.classical.forest import RandomForest
    forest = RandomForest(
        trees=[t0, t1], oob_indices=[np.zeros(0, int)] * 2,
        n_classes=2, n_features=1, n_rows=1, seed=0, mtry=1, min_leaf=5,
    )
    probs = forest.predict_proba(np.zeros((1, 1)))
    assert np.allclose(probs, [[0.5, 0.5]])
    assert forest.predict(np.zeros((1, 1)))[0] == 0


def test_rf_deterministic(rng):
    x = rng.random((120, 3))
    y = rng.integers(0, 3, size=120)
    a = rf_train(x, y, n_trees=20, seed=9)
    b = rf_train(x, y, n_trees=20, seed=9)
    probe = rng.random((30, 3))
    assert np.array_equal(a.predict(probe), b.predict(probe))
    assert a.oob_error == b.oob_error


@pytest.mark.parametrize("trainer, params, named", [
    (cart_train, {"min_leaf": 0}, "'min_leaf'"),
    (rf_train, {"n_trees": np.float64(3)}, "'n_trees'"),
    (svm_train, {"tol": -1e-3}, "'tol'"),
])
def test_trainers_check_their_params(rng, trainer, params, named):
    # the rules live in the trainers, so library callers meet them too
    x, y = blobs(rng, n_per_class=10)
    with pytest.raises(ValueError, match=named):
        trainer(x, y, **params)


def test_rf_threads_match_single(rng):
    x = rng.random((100, 3))
    y = rng.integers(0, 2, size=100)
    a = rf_train(x, y, n_trees=12, seed=4, threads=1)
    b = rf_train(x, y, n_trees=12, seed=4, threads=4)
    probe = rng.random((25, 3))
    assert np.array_equal(a.predict(probe), b.predict(probe))


def test_rf_json_round_trip(rng):
    x = rng.random((60, 2))
    y = rng.integers(0, 2, size=60)
    forest = rf_train(x, y, n_trees=5, seed=6)
    from landseg.classical.forest import RandomForest
    back = RandomForest.from_json(forest.to_json())
    probe = rng.random((20, 2))
    assert np.array_equal(back.predict(probe), forest.predict(probe))


# ---------------------------------------------- pinned node arrays, OOB sets

def _table(n=600, d=7, k=6, seed=1):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % k
    return rng.normal(size=(n, d)) + y[:, None] * rng.normal(size=(1, d)), y


X7, Y7 = _table()
X7_TIES = np.round(X7)            # about 10 distinct values per feature
X_FEW, Y_FEW = X7[:40], np.where(Y7[:40] == 5, 4, Y7[:40])
Y_FEW[0] = 5                      # one row of class 5; class 6 has none

GROWN = {
    "rf": lambda: rf_train(X7, Y7, n_trees=30, seed=7),
    "rf_ties": lambda: rf_train(X7_TIES, Y7, n_trees=30, seed=7),
    "rf_min_leaf_1": lambda: rf_train(X7_TIES, Y7, n_trees=30, min_leaf=1,
                                      seed=7),
    "rf_depth_3": lambda: rf_train(X7, Y7, n_trees=30, max_depth=3, seed=7),
    "rf_mtry_d": lambda: rf_train(X7, Y7, n_trees=30, mtry=7, seed=7),
    "rf_absent": lambda: rf_train(X_FEW, Y_FEW, n_trees=30, n_classes=7,
                                  min_leaf=1, seed=7),
    "cart": lambda: cart_train(X7, Y7),
    "cart_ties": lambda: cart_train(X7_TIES, Y7),
    "cart_min_leaf_1": lambda: cart_train(X7_TIES, Y7, min_leaf=1),
    "cart_depth_3": lambda: cart_train(X7, Y7, max_depth=3),
    "cart_absent": lambda: cart_train(X_FEW, Y_FEW, n_classes=7, min_leaf=1),
}

# sha256 of every node array and OOB set, as grown one tree at a time by
# the per-node split search that lockstep growth replaced
PINNED_GROWTH = {
    "cart":
        "18e4f5ebf36e9ee7a0e8777fe6fb05d954e92dfc4c2d76606c04b6a02dde2a48",
    "cart_absent":
        "052372df4aaf2c28611f9fc7f60284dbec27c58a0f4da38aea8fbe3c9ce863ad",
    "cart_depth_3":
        "3b382dadf472de53607d5b3377bdad7367a8525376802044be65e6d8c2122ec0",
    "cart_min_leaf_1":
        "90669b41bdbc2d8743619ad371f57a124aa0b76bc985b59720fa293667d6729c",
    "cart_ties":
        "decb89f170a222a433eec8ce2cd270487157fe46497bd2d5243591edbb3a0e48",
    "rf":
        "00f03c83414b9d2434176905036926a0f77bf53b27aa7f9437d8c046647bbe4a",
    "rf_absent":
        "f5dc3f528d07fc6be5323a8720a7b06e75f809d88d1cd144862e97e7826a737d",
    "rf_depth_3":
        "b36c79cd4990ff7d7e7031bc6b19d5d4942ff9455502384aadf6ac170aafa6e1",
    "rf_min_leaf_1":
        "f6133991bb0736084e52bde6ebd2a12117e3dd4cf000b9d4a2b5a37d360ed81c",
    "rf_mtry_d":
        "918b0eb15064ba5bdaafc2066c15d0e5fb3f381f6d4f7811495188c2ea5399d3",
    "rf_ties":
        "72298d788f14f96b3da147583a48734f687bda6d0007ce9ac1cb919c7b472fa3",
}


def growth_digest(model) -> str:
    trees = getattr(model, "trees", [model])
    h = hashlib.sha256()
    for t in trees:
        for a in (t.feature, t.threshold, t.left, t.right, t.hist):
            h.update(np.ascontiguousarray(a).tobytes())
    for oob in getattr(model, "oob_indices", []):
        h.update(np.asarray(oob, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GROWN))
def test_growth_matches_pinned_digest(name):
    assert growth_digest(GROWN[name]()) == PINNED_GROWTH[name]


def test_growth_independent_of_search_size(monkeypatch):
    # tiny searches split each step into many, and single nodes overflow
    from landseg.classical import tree as tree_mod
    monkeypatch.setattr(tree_mod, "SEARCH_ROWS", 40)
    for name in ("rf_ties", "cart_min_leaf_1"):
        assert growth_digest(GROWN[name]()) == PINNED_GROWTH[name]


def test_forest_has_tree_missing_a_class():
    forest = GROWN["rf_absent"]()
    assert any(t.hist[0, 5] == 0 for t in forest.trees)
    assert all(t.hist[0, 6] == 0 for t in forest.trees)


# -------------------------------------------------------------- importance

def test_importance_noise_feature_near_zero(rng):
    x, y = blobs(rng, n_per_class=250)
    x = np.column_stack([x, rng.random(len(x))])  # pure-noise third feature
    forest = rf_train(x, y, n_trees=60, seed=7)
    imp = permutation_importance(forest, x, y)
    assert abs(imp[2]) <= 0.01


def test_importance_label_feature_largest(rng):
    n = 400
    x = rng.random((n, 3))
    y = (x[:, 1] > 0.5).astype(int)  # feature 1 defines the class
    forest = rf_train(x, y, n_trees=40, seed=8)
    imp = permutation_importance(forest, x, y)
    assert np.argmax(imp) == 1
    assert imp[1] > max(imp[0], imp[2])


def test_importance_unused_feature_exactly_zero(rng):
    # feature 1 is constant, so no tree can split on it
    x = rng.random((100, 2))
    x[:, 1] = 0.0
    y = (x[:, 0] > 0.5).astype(int)
    forest = rf_train(x, y, n_trees=15, seed=10)
    imp = permutation_importance(forest, x, y)
    assert imp[1] == 0.0


def test_importance_feature_mismatch(rng):
    x = rng.random((50, 2))
    y = rng.integers(0, 2, size=50)
    forest = rf_train(x, y, n_trees=5, seed=11)
    with pytest.raises(ValueError, match="features"):
        permutation_importance(forest, rng.random((50, 3)), y)


# ------------------------------------------- predict == argmax(predict_proba)

def _tree(feature, threshold, left, right, hist):
    return DecisionTree(
        feature=np.asarray(feature), threshold=np.asarray(threshold, float),
        left=np.asarray(left), right=np.asarray(right),
        hist=np.asarray(hist), n_classes=3,
    )


def _split_tree():
    # x <= 0.5 lands in a class-0 leaf; x > 0.5 in a leaf tied 2:2 between
    # classes 1 and 2
    return _tree([0, -1, -1], [0.5, 0, 0], [1, -1, -1], [2, -1, -1],
                 [[3, 3, 2], [3, 1, 0], [0, 2, 2]])


def _hand_forest():
    # one split tree and one single-leaf tree voting class 2: both rows
    # get one vote for each of two classes
    return RandomForest(
        trees=[_split_tree(), _tree([-1], [0], [-1], [-1], [[0, 0, 4]])],
        oob_indices=[np.zeros(0, np.int64)] * 2, n_classes=3,
        n_features=1, n_rows=0, seed=0, mtry=1, min_leaf=1,
    )


def _hand_svm():
    # constant decisions: 0-vs-1 votes 1, 0-vs-2 votes 0, 1-vs-2 votes 2,
    # a three-way tie on every row
    def pair(pos, neg, bias):
        return PairModel(class_pos=pos, class_neg=neg, sv=np.zeros((1, 1)),
                         coef=np.zeros(1), bias=bias, kkt_violation=0.0)
    return SvmClassifier(
        pairs=[pair(0, 1, -1.0), pair(0, 2, 1.0), pair(1, 2, -1.0)],
        mean=np.zeros(1), std=np.ones(1), n_classes=3,
    )


def _trained(kind, rng):
    x, y = blobs(rng, n_per_class=30, centers=((0, 0), (3, 3), (0, 3)),
                 spread=1.5)
    if kind == "tree":
        return cart_train(x, y, min_leaf=2)
    if kind == "forest":
        return rf_train(x, y, n_trees=7, min_leaf=2, seed=1)
    return svm_train(x, y)


@pytest.mark.parametrize("kind,hand,tied_labels", [
    ("tree", _split_tree, [0, 1]),
    ("forest", _hand_forest, [0, 1]),
    ("svm", _hand_svm, [0, 0]),
])
def test_predict_is_argmax_of_predict_proba(kind, hand, tied_labels, rng):
    model = hand()
    x = np.array([[0.0], [1.0]])
    probs = model.predict_proba(x)
    assert np.array_equal(model.predict(x), tied_labels)
    assert np.array_equal(model.predict(x), np.argmax(probs, axis=1))
    assert np.allclose(probs.sum(axis=1), 1.0)

    model = _trained(kind, rng)
    x = rng.normal(1.5, 2.5, size=(300, 2))
    assert np.array_equal(model.predict(x),
                          np.argmax(model.predict_proba(x), axis=1))
