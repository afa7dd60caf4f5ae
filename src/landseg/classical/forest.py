"""Random forest over CARTs with out-of-bag validation and permutation
feature importance.

Each tree trains on a bootstrap of size n with mtry = ceil(sqrt(d)) random
features per split by default. A tree's out-of-bag set is the complement of
its bootstrap, which the forest's seed and row count fix, so it is re-drawn
rather than stored; the forest's OOB error aggregates per-sample majority
votes over the trees that did not see the sample. All trees grow in
lockstep, one node of each per batched split search; with threads > 1 each
thread grows a contiguous group of trees that way. Each tree's own rng
keeps the result independent of both.

A forest votes through per-feature threshold tables (the bitvector method
of QuickScorer, Lucchese et al. 2015), not by walking each tree: each
tree's leaves are numbered left to right, and a row's exit leaf is the
lowest leaf that no node the row passes on the right rules out. Those
nodes are the ones whose threshold lies below the row's value, so for
each feature one table lookup, by the row's rank among the sorted
thresholds, gives the AND of their masks for every tree at once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..jsondoc import JsonDoc, at_least, check_params, doc_field, list_of
from .tree import DecisionTree, _grow, training_table

# bound on one group's tables, which keeps their sum over the groups near
# linear in the trees
VOTE_TABLE_BYTES = 1 << 22
VOTE_CELLS = 1 << 16  # (row, tree, word) cells per block of table lookups
_BUILD = threading.Lock()  # held while a forest's tables are looked up
# _LOW[n] has the n lowest of 64 bits set
_LOW = np.array([(1 << n) - 1 for n in range(65)], dtype=np.uint64)


@dataclass
class RandomForest(JsonDoc):
    trees: list = doc_field(list_of(DecisionTree.from_json))
    n_classes: int
    n_features: int
    n_rows: int = doc_field(check=at_least(0))
    seed: int = doc_field(check=at_least(0))
    mtry: int = doc_field(check=at_least(1))
    min_leaf: int = doc_field(check=at_least(1))
    oob_error: float | None = None

    def __post_init__(self):
        super().__post_init__()
        for tree in self.trees:
            if tree.n_classes != self.n_classes:
                raise ValueError(f"a tree has 'n_classes' {tree.n_classes}, "
                                 f"the forest {self.n_classes}")
            if tree.feature.max(initial=-1) >= self.n_features:
                raise ValueError(f"a tree splits on 'feature' "
                                 f"{tree.feature.max()}, past the forest's "
                                 f"{self.n_features} features")

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def oob_indices(self) -> list:
        """Per tree, the int64 rows its bootstrap never drew."""
        _, boots = _bootstraps(self.seed, self.n_rows, self.n_trees)
        return [np.flatnonzero(np.bincount(b, minlength=self.n_rows) == 0)
                for b in boots]

    def oob_fractions(self) -> np.ndarray:
        """Per-tree share of training rows left out of the bootstrap."""
        sizes = np.asarray([i.size for i in self.oob_indices], dtype=np.float64)
        return sizes / self.n_rows

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Vote fractions over trees."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        with _BUILD:  # threads that vote at once share one build
            groups = self._vote_groups
        return _votes(groups, x, self.n_classes) / self.n_trees

    @cached_property
    def _vote_groups(self) -> list:
        """Each group's threshold tables and leaf classes (see _tables),
        built on the first vote and kept. Votes only read them."""
        return [_tables(group) for group in _groups(self.trees,
                                                    self.n_features)]


def _groups(trees, n_features):
    """Trees in groups whose threshold tables stay within VOTE_TABLE_BYTES,
    fewest leaves first so that small trees share narrow masks."""
    leaves = [int((t.feature < 0).sum()) for t in trees]
    group, inner = [], 0
    for t in sorted(range(len(trees)), key=leaves.__getitem__):
        splits = trees[t].n_nodes - leaves[t]
        words = -(-leaves[t] // 64)
        # a feature's table has a row per threshold and one past the last
        if group and ((inner + splits + n_features) * (len(group) + 1)
                      * words * 8 > VOTE_TABLE_BYTES):
            yield group
            group, inner = [], 0
        group.append(trees[t])
        inner += splits
    if group:
        yield group


def _tables(trees):
    """Threshold tables of a group of trees, and each leaf's class.

    Returns (tables, leaf_class): tables holds (feature, thresholds,
    table) per feature a node splits on, where table[b, g] is the AND of
    the negated left-subtree leaf masks of tree g's nodes on that feature
    with one of the b lowest thresholds; leaf_class[g, l] is the class
    of tree g's l-th leaf from the left.
    """
    g_n = len(trees)
    size = [t.n_nodes for t in trees]
    off = np.cumsum(size) - size
    feat = np.concatenate([t.feature for t in trees])
    thr = np.concatenate([t.threshold for t in trees])
    inner = feat >= 0
    left = np.where(inner, np.concatenate([t.left for t in trees])
                    + np.repeat(off, size), -1)
    right = np.where(inner, np.concatenate([t.right for t in trees])
                     + np.repeat(off, size), -1)
    levels, level = [], off
    while level.size:
        levels.append(level[inner[level]])
        level = np.concatenate([left[levels[-1]], right[levels[-1]]])
    n_leaves = np.ones(feat.size, dtype=np.int64)
    for split in reversed(levels):
        n_leaves[split] = n_leaves[left[split]] + n_leaves[right[split]]
    first = np.zeros(feat.size, dtype=np.int64)  # leftmost leaf's number
    for split in levels:
        first[left[split]] = first[split]
        first[right[split]] = first[split] + n_leaves[left[split]]
    words = -(-int(n_leaves[off].max()) // 64)
    tree = np.repeat(np.arange(g_n), size)
    leaf = np.flatnonzero(~inner)
    leaf_class = np.zeros((g_n, 64 * words), dtype=np.int64)
    leaf_class[tree[leaf], first[leaf]] = np.argmax(
        np.concatenate([t.hist for t in trees])[leaf], axis=1)
    split = np.flatnonzero(inner)
    bit = 64 * np.arange(words)
    lo = np.clip(first[split, None] - bit, 0, 64)
    hi = np.clip(first[split, None] + n_leaves[left[split], None] - bit,
                 0, 64)
    neg = _LOW[lo] | ~_LOW[hi]  # (splits, words): leaves off each left subtree
    tables = []
    # a forest of root leaves gets one table of no thresholds
    for f in np.unique(feat[split]).tolist() or [0]:
        on = feat[split] == f
        thresholds, rank = np.unique(thr[split[on]], return_inverse=True)
        table = np.full((thresholds.size + 1, g_n, words), _LOW[64])
        np.bitwise_and.at(table, (rank + 1, tree[split[on]]), neg[on])
        np.bitwise_and.accumulate(table, axis=0, out=table)
        tables.append((f, thresholds, table))
    return tables, leaf_class


def _votes(groups, x, n_classes):
    """Vote counts (rows, n_classes) of the trees' leaf-majority classes,
    from each group's (tables, leaf_class).

    A row's table entry for a feature is at its rank among the
    thresholds, searchsorted side "left": the nodes it passes on the
    right are exactly those with a threshold below its value, so a value
    equal to a threshold goes left and NaN goes right, as in
    DecisionTree.predict. The AND over features keeps every leaf the row
    can reach in each tree, and the lowest one is its exit leaf.
    """
    votes = np.zeros((x.shape[0], n_classes), dtype=np.int64)
    for tables, leaf_class in groups:
        g_n, width = leaf_class.shape
        words = width // 64
        at_tree = np.arange(g_n) * width
        rows = max(1, VOTE_CELLS // (g_n * words))
        for at in range(0, x.shape[0], rows):
            xb = x[at:at + rows]
            (f, thresholds, table), *rest = tables
            live = table[np.searchsorted(thresholds, xb[:, f])]
            for f, thresholds, table in rest:
                live &= table[np.searchsorted(thresholds, xb[:, f])]
            # the lowest set bit of the first word that has one
            low, at_leaf = live[..., -1], at_tree + 64 * (words - 1)
            for j in range(words - 2, -1, -1):
                hit = live[..., j] != 0
                low = np.where(hit, live[..., j], low)
                at_leaf = np.where(hit, at_tree + 64 * j, at_leaf)
            # a power of two converts exactly; its exponent is the bit
            bit = (low & -low).astype(np.float64).view(np.int64) >> 52
            bit += at_leaf - 1023
            cls = leaf_class.ravel()[bit]
            cls += n_classes * np.arange(xb.shape[0])[:, None]
            votes[at:at + xb.shape[0]] += np.bincount(
                cls.ravel(), minlength=xb.shape[0] * n_classes
            ).reshape(-1, n_classes)
    return votes


def _bootstraps(seed, n_rows, n_trees):
    """Each tree's rng, from SeedSequence(seed), and the n_rows rows its
    bootstrap draws with it."""
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n_trees)]
    return rngs, [rng.integers(0, n_rows, size=n_rows) for rng in rngs]


def _forest_oob_error(forest, x, y) -> float | None:
    votes = np.zeros((x.shape[0], forest.n_classes), dtype=np.int64)
    for tree, oob in zip(forest.trees, forest.oob_indices):
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
    n_classes: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> RandomForest:
    check_params(n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth,
                 mtry=mtry)
    x, y, n_classes = training_table(x, y, n_classes)
    n, d = x.shape
    if mtry is None:
        mtry = int(np.ceil(np.sqrt(d)))
    mtry = min(mtry, d)
    rngs, boots = _bootstraps(seed, n, n_trees)

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
        trees=trees, n_classes=n_classes, n_features=d, n_rows=n, seed=seed,
        mtry=mtry, min_leaf=min_leaf,
    )
    forest.oob_error = _forest_oob_error(forest, x, y)
    return forest


def permutation_importance(forest: RandomForest, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean OOB error increase per feature when that feature is shuffled.

    Uninformative features score ~0; features a tree never touches score 0
    exactly for that tree.
    """
    x, y, _ = training_table(x, y)
    if x.shape[1] != forest.n_features:
        raise ValueError(
            f"table has {x.shape[1]} features, forest expects {forest.n_features}"
        )
    if x.shape[0] != forest.n_rows:
        raise ValueError(f"table has {x.shape[0]} rows, the forest was "
                         f"trained on {forest.n_rows}")
    d = forest.n_features
    deltas = np.zeros(d, dtype=np.float64)
    used = 0
    for t, (tree, oob) in enumerate(zip(forest.trees, forest.oob_indices)):
        if oob.size == 0:
            continue
        used += 1
        # the OOB rows, then a copy of them per feature with that feature
        # permuted, classified in one call
        xs = np.tile(x[oob], (d + 1, 1)).reshape(d + 1, oob.size, d)
        for f in range(d):
            rng = np.random.default_rng([forest.seed, 1 + t, f])
            xs[1 + f, :, f] = xs[0, rng.permutation(oob.size), f]
        err = np.mean(tree.predict(xs.reshape(-1, d)).reshape(d + 1, -1)
                      != y[oob], axis=1)
        deltas += err[1:] - err[0]
    if used == 0:
        raise ValueError("forest has no out-of-bag samples")
    return deltas / used
