"""Random forest over CARTs with out-of-bag validation and permutation
feature importance.

Each tree trains on a bootstrap of size n with mtry = ceil(sqrt(d)) random
features per split by default. A tree's out-of-bag set is the complement of
its bootstrap; the forest's OOB error aggregates per-sample majority votes
over the trees that did not see the sample. All trees grow in lockstep, one
node of each per batched split search; with threads > 1 each thread grows
a contiguous group of trees that way. Each tree's own rng keeps the result
independent of both.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..jsondoc import JsonDoc, as_array, doc_field, list_of
from .params import check_params
from .tree import DecisionTree, _grow


@dataclass
class RandomForest(JsonDoc):
    trees: list = doc_field(list_of(DecisionTree.from_json))
    # per tree, indices never drawn by its bootstrap
    oob_indices: list = doc_field(list_of(as_array(np.int64)))
    n_classes: int
    n_features: int
    n_rows: int
    seed: int
    mtry: int
    min_leaf: int
    oob_error: float | None = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def oob_fractions(self) -> np.ndarray:
        """Per-tree share of training rows left out of the bootstrap."""
        sizes = np.asarray([i.size for i in self.oob_indices], dtype=np.float64)
        return sizes / self.n_rows

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Vote fractions over trees."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        votes = np.zeros((x.shape[0], self.n_classes), dtype=np.float64)
        for tree in self.trees:
            pred = tree.predict(x)
            votes[np.arange(x.shape[0]), pred] += 1.0
        return votes / self.n_trees


def _forest_oob_error(trees, oob_indices, x, y, n_classes) -> float | None:
    votes = np.zeros((x.shape[0], n_classes), dtype=np.int64)
    for tree, oob in zip(trees, oob_indices):
        if oob.size == 0:
            continue
        pred = tree.predict(x[oob])
        votes[oob, pred] += 1
    seen = votes.sum(axis=1) > 0
    if not seen.any():
        return None
    return float(np.mean(np.argmax(votes[seen], axis=1) != y[seen]))


def rf_train(
    x: np.ndarray,
    y: np.ndarray,
    n_trees: int = 300,
    min_leaf: int = 5,
    max_depth: int | None = None,
    mtry: int | None = None,
    bootstrap: bool = True,
    n_classes: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> RandomForest:
    check_params(n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth,
                 mtry=mtry, bootstrap=bootstrap)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty training table")
    n, d = x.shape
    if n_classes is None:
        n_classes = int(y.max()) + 1
    if mtry is None:
        mtry = int(np.ceil(np.sqrt(d)))
    mtry = min(mtry, d)
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n_trees)]
    if bootstrap:
        boots = [rng.integers(0, n, size=n) for rng in rngs]
        oob_indices = [np.flatnonzero(np.bincount(b, minlength=n) == 0)
                       for b in boots]
    else:
        boots = [np.arange(n)] * n_trees
        oob_indices = [np.zeros(0, dtype=np.int64) for _ in range(n_trees)]

    def grow(lo, hi):
        return _grow(x, y, boots[lo:hi], rngs[lo:hi], n_classes,
                     min_leaf, max_depth, mtry)

    if threads > 1:
        # contiguous groups of trees, each grown in lockstep
        cuts = np.linspace(0, n_trees, threads + 1).astype(int).tolist()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = [t for part in pool.map(grow, cuts[:-1], cuts[1:])
                     for t in part]
    else:
        trees = grow(0, n_trees)

    forest = RandomForest(
        trees=trees, oob_indices=oob_indices,
        n_classes=n_classes, n_features=d, n_rows=n, seed=seed,
        mtry=mtry, min_leaf=min_leaf,
    )
    forest.oob_error = _forest_oob_error(trees, oob_indices, x, y, n_classes)
    return forest


def permutation_importance(forest: RandomForest, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean OOB error increase per feature when that feature is shuffled.

    Uninformative features score ~0; features a tree never touches score 0
    exactly for that tree.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[1] != forest.n_features:
        raise ValueError(
            f"table has {x.shape[1]} features, forest expects {forest.n_features}"
        )
    d = forest.n_features
    deltas = np.zeros(d, dtype=np.float64)
    used = 0
    for t, (tree, oob) in enumerate(zip(forest.trees, forest.oob_indices)):
        if oob.size == 0:
            continue
        used += 1
        base = float(np.mean(tree.predict(x[oob]) != y[oob]))
        for f in range(d):
            rng = np.random.default_rng([forest.seed, 1 + t, f])
            xp = x[oob].copy()
            xp[:, f] = xp[rng.permutation(oob.size), f]
            err = float(np.mean(tree.predict(xp) != y[oob]))
            deltas[f] += err - base
    if used == 0:
        raise ValueError("forest has no out-of-bag samples")
    return deltas / used
