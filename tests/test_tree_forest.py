import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landseg import (
    RandomForest, SvmClassifier, cart_train, gini, load_model,
    permutation_importance, rf_train, save_model, svm_train,
)
from landseg.classical.svm import PairModel
from landseg.classical.tree import DecisionTree
from landseg.sampling import stratified_sample
from landseg.synth import SceneSpec, default_legend, generate_scene


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
    forest = rf_train(x, y, n_trees=1, mtry=3, seed=5)
    # the one tree's bootstrap: 80 draws from the first stream of the seed
    boot = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0]
                                 ).integers(0, 80, size=80)
    cart = cart_train(x[boot], y[boot])
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
        trees=[t0, t1], n_classes=2, n_features=1, n_rows=1, seed=0,
        mtry=1, min_leaf=5,
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


@pytest.mark.parametrize("trainer", [cart_train, rf_train, svm_train])
def test_trainers_check_their_table(rng, trainer):
    x, y = blobs(rng, n_per_class=10)
    x[5, 1] = np.nan
    with pytest.raises(ValueError, match="holds nan at row 5, column 1"):
        trainer(x, y)
    x[5, 1], x[7, 0] = 0.0, -np.inf
    with pytest.raises(ValueError, match="holds -inf at row 7, column 0"):
        trainer(x, y)
    x[7, 0] = 0.0
    with pytest.raises(ValueError, match="row counts differ"):
        trainer(x, y[:-1])
    with pytest.raises(ValueError, match="empty training table"):
        trainer(x[:0], y[:0])


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


def test_importance_row_count_mismatch(rng):
    # the OOB sets index the training table; another table has other rows
    x = rng.random((50, 2))
    y = rng.integers(0, 2, size=50)
    forest = rf_train(x, y, n_trees=5, seed=11)
    with pytest.raises(ValueError, match="table has 60 rows, the forest "
                                         "was trained on 50"):
        permutation_importance(forest, np.vstack([x, x[:10]]),
                               np.concatenate([y, y[:10]]))


def test_saved_forest_redraws_its_oob_sets(rng, tmp_path):
    x, y = blobs(rng, n_per_class=60, centers=((0, 0, 1), (3, 3, 0)),
                 spread=1.5)
    forest = rf_train(x, y, n_trees=12, seed=4, threads=2)
    save_model(forest, tmp_path / "rf.json")
    back = load_model(tmp_path / "rf.json")
    assert "oob_indices" not in (tmp_path / "rf.json").read_text()
    assert [o.dtype for o in back.oob_indices] == [np.int64] * 12
    assert [o.tolist() for o in back.oob_indices] == [
        o.tolist() for o in forest.oob_indices]
    assert back.oob_fractions().tobytes() == forest.oob_fractions().tobytes()
    assert back.oob_error == forest.oob_error
    assert (permutation_importance(back, x, y).tobytes()
            == permutation_importance(forest, x, y).tobytes())


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
        n_classes=3, n_features=1, n_rows=0, seed=0, mtry=1, min_leaf=1,
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


# ------------------------------------------------------------ forest votes

def _tree_votes(forest, x):
    """Vote fractions from DecisionTree.predict, one tree at a time."""
    votes = np.zeros((x.shape[0], forest.n_classes))
    for tree in forest.trees:
        votes[np.arange(x.shape[0]), tree.predict(x)] += 1.0
    return votes / forest.n_trees


def _walk_votes(forest, x):
    """Vote fractions from walking each tree one row at a time."""
    votes = np.zeros((x.shape[0], forest.n_classes))
    for tree in forest.trees:
        for r, row in enumerate(x):
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            votes[r, np.argmax(tree.hist[node])] += 1.0
    return votes / forest.n_trees


def _assert_same_votes(forest, x):
    probs = forest.predict_proba(x)
    assert probs.tobytes() == _tree_votes(forest, x).tobytes()
    assert probs.tobytes() == _walk_votes(forest, x).tobytes()
    assert np.array_equal(forest.predict(x), np.argmax(probs, axis=1))


def _forest_of(trees, n_features):
    return RandomForest(
        trees=trees, n_classes=trees[0].n_classes, n_features=n_features,
        n_rows=0, seed=0, mtry=1, min_leaf=1)


def _random_tree(rng, n_splits, n_features, n_classes, values):
    """A tree grown by splitting random leaves, its children numbered in
    either order."""
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    leaves = [0]
    for _ in range(n_splits):
        node = leaves.pop(int(rng.integers(len(leaves))))
        kids = [len(feature), len(feature) + 1]
        rng.shuffle(kids)
        feature[node] = int(rng.integers(n_features))
        threshold[node] = float(rng.choice(values))
        left[node], right[node] = kids
        for lst, value in ((feature, -1), (threshold, 0.0), (left, -1),
                           (right, -1)):
            lst += [value, value]
        leaves += kids
    return DecisionTree(
        feature=np.array(feature), threshold=np.array(threshold),
        left=np.array(left), right=np.array(right),
        hist=rng.integers(0, 3, size=(len(feature), n_classes)),
        n_classes=n_classes)


def _comb(n_leaves, feature, n_classes):
    """x[feature] <= i sends a row to leaf i, for i < n_leaves - 1."""
    n = 2 * n_leaves - 1
    inner = np.arange(0, n - 1, 2)
    feat = np.full(n, -1)
    feat[inner] = feature
    thr = np.zeros(n)
    thr[inner] = np.arange(inner.size, dtype=float)
    left, right = np.full(n, -1), np.full(n, -1)
    left[inner], right[inner] = inner + 1, inner + 2
    hist = np.zeros((n, n_classes), dtype=np.int64)
    hist[np.arange(n), np.arange(n) % n_classes] = 1
    return DecisionTree(feature=feat, threshold=thr, left=left, right=right,
                        hist=hist, n_classes=n_classes)


def test_forest_votes_match_walks_on_hand_built_forest():
    # a root leaf, a 100-leaf comb on feature 0 (thresholds 0..98), a
    # stump that repeats its threshold 3 with the children numbered right
    # first, and a 3-leaf tree on features 1 and 0; none splits on 2
    root = DecisionTree(feature=np.array([-1]), threshold=np.array([0.0]),
                        left=np.array([-1]), right=np.array([-1]),
                        hist=np.array([[0, 0, 2]]), n_classes=3)
    stump = DecisionTree(feature=np.array([0, -1, -1]),
                         threshold=np.array([3.0, 0, 0]),
                         left=np.array([2, -1, -1]),
                         right=np.array([1, -1, -1]),
                         hist=np.array([[1, 1, 1], [0, 4, 0], [5, 0, 0]]),
                         n_classes=3)
    small = DecisionTree(feature=np.array([1, -1, 0, -1, -1]),
                         threshold=np.array([-0.5, 0, 0.5, 0, 0]),
                         left=np.array([1, -1, 3, -1, -1]),
                         right=np.array([2, -1, 4, -1, -1]),
                         hist=np.array([[1, 1, 1], [0, 2, 2], [1, 0, 0],
                                        [0, 0, 3], [2, 2, 0]]),
                         n_classes=3)
    trees = [root, _comb(100, 0, 3), stump, small]
    assert int((trees[1].feature < 0).sum()) > 64
    edges = [-np.inf, -1.0, -0.5, 0.0, 0.5, 3.0, 3.5, 98.0, 99.0, np.inf,
             np.nan]
    grid = np.array(np.meshgrid(edges, edges, [0.0, np.nan])).reshape(3, -1)
    _assert_same_votes(_forest_of(trees, 3), grid.T)
    _assert_same_votes(_forest_of([root], 3), grid.T)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_trees=st.integers(1, 6),
       splits=st.integers(0, 140), n_features=st.integers(1, 4),
       n_classes=st.integers(1, 4))
def test_forest_votes_match_walks(seed, n_trees, splits, n_features,
                                  n_classes):
    # thresholds drawn from a few values repeat within and across trees,
    # and rows drawn from them sit exactly at a threshold; the last column
    # is split on by no tree
    rng = np.random.default_rng(seed)
    values = np.array([-np.inf, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, np.inf])
    trees = [_random_tree(rng, int(rng.integers(splits + 1)), n_features,
                          n_classes, values) for _ in range(n_trees)]
    x = np.where(rng.random((60, n_features + 1)) < 0.7,
                 rng.choice(np.r_[values, np.nan], (60, n_features + 1)),
                 rng.uniform(-1.5, 1.5, (60, n_features + 1)))
    _assert_same_votes(_forest_of(trees, n_features + 1), x)


def test_forest_votes_independent_of_groups_and_blocks(monkeypatch):
    # one tree per group, and blocks that leave a short last block
    from landseg.classical import forest as forest_mod
    forest = GROWN["rf_ties"]()
    x = np.r_[X7_TIES[:50], X7[:50]]
    want = _tree_votes(forest, x)
    monkeypatch.setattr(forest_mod, "VOTE_TABLE_BYTES", 1)
    monkeypatch.setattr(forest_mod, "VOTE_CELLS", 7)
    assert forest.predict_proba(x).tobytes() == want.tobytes()
    # tables built before the patch would have grouped the trees otherwise
    assert len(forest._vote_groups) == forest.n_trees


def _set_node(key, node, value):
    def edit(doc):
        doc[key][node] = value
    return edit


@pytest.mark.parametrize("edit, named", [
    (_set_node("threshold", 0, float("nan")), "'threshold' holds NaN"),
    (_set_node("left", 0, 0), "do not form a tree"),       # a cycle
    (_set_node("right", 0, 1), "do not form a tree"),      # a shared child
    (_set_node("left", 0, 9), "do not form a tree"),       # no such node
    (_set_node("feature", 1, 0), "do not form a tree"),    # children of 1
    (lambda doc: doc["left"].pop(), "differ in length"),
])
def test_tree_document_must_hold_a_tree(edit, named):
    doc = _split_tree().to_json()
    edit(doc)
    with pytest.raises(ValueError, match=named):
        DecisionTree.from_json(doc)


@pytest.fixture(scope="module")
def scene_rows():
    """A 256x256 synth scene: its stack and labels, and its 65,536 rows."""
    spec = SceneSpec(width=256, height=256, seed=4)
    stack, labels, _ = generate_scene(spec)
    return stack, labels, stack.data.reshape(stack.n_bands, -1).T.astype(
        np.float64)


@pytest.mark.parametrize("per_class", [100, 300])
def test_forest_vote_memory_is_bounded(scene_rows, per_class):
    # 300 trees on 600 rows, as the pixel_map benchmark trains, and on
    # 1800 rows, whose trees outgrow one 64-bit mask word
    stack, labels, x = scene_rows
    table = stratified_sample(stack, labels, default_legend(6), per_class,
                              seed=3)
    forest = rf_train(table.x, table.y, n_classes=6, seed=3, threads=2)
    most = max(int((t.feature < 0).sum()) for t in forest.trees)
    assert (most > 64) == (per_class == 300)
    tracemalloc.start()
    try:
        probs = forest.predict_proba(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
    assert probs.tobytes() == _tree_votes(forest, x).tobytes()
