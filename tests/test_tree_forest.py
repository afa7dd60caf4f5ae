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
