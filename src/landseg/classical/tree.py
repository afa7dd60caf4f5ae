"""CART decision tree with Gini impurity splits.

Splits are greedy: the accepted split maximizes the Gini impurity decrease,
with ties broken by lowest feature index then lowest threshold. Thresholds
are midpoints of adjacent observed feature values, children must keep at
least min_leaf rows, and growth stops on purity, size < 2*min_leaf, or no
positive gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..jsondoc import JsonDoc, as_array, doc_field

GAIN_EPS = 1e-12  # integer class counts make true zero gains exact; this
                  # only guards against f64 rounding in the weighted sum


def gini(class_counts) -> float:
    """Gini impurity 1 - sum((n_c/n)^2) of a count vector."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if (counts < 0).any():
        raise ValueError("class counts must be non-negative")
    n = counts.sum()
    if n <= 0:
        raise ValueError("empty node")
    p = counts / n
    return float(1.0 - np.sum(p * p))


@dataclass
class DecisionTree(JsonDoc):
    """Flat node arrays; feature -1 marks a leaf."""

    # (nodes,) arrays; feature and the child indices are -1 at leaves
    feature: np.ndarray = doc_field(as_array(np.int64))
    threshold: np.ndarray = doc_field(as_array(np.float64))
    left: np.ndarray = doc_field(as_array(np.int64))
    right: np.ndarray = doc_field(as_array(np.int64))
    hist: np.ndarray = doc_field(as_array(np.int64))  # (nodes, K) class counts
    n_classes: int
    min_leaf: int = 5
    max_depth: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] < 0

    def _leaves(self, x: np.ndarray) -> np.ndarray:
        """Index of the leaf each row lands in."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(x.shape[0], dtype=np.int64)
        stack = [(0, np.arange(x.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.is_leaf(node):
                out[idx] = node
                continue
            go_left = x[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf-majority class per row; ties go to the lowest class id."""
        return np.argmax(self.hist, axis=1)[self._leaves(x)]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Normalized leaf histogram per row."""
        h = self.hist[self._leaves(x)].astype(np.float64)
        return h / h.sum(axis=1, keepdims=True)


def _best_split(x, y_onehot, feature_ids, min_leaf):
    """Best (gain, feature, threshold) over candidate features, or None."""
    m = y_onehot.shape[0]
    parent_counts = y_onehot.sum(axis=0)
    parent_gini = gini(parent_counts)
    best = None
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        left_cum = np.cumsum(y_onehot[order], axis=0)
        # split after position i: left has i+1 rows
        sizes_l = np.arange(1, m)
        valid = (
            (xs[:-1] < xs[1:])
            & (sizes_l >= min_leaf)
            & ((m - sizes_l) >= min_leaf)
        )
        if not valid.any():
            continue
        left = left_cum[:-1]
        right = parent_counts[None, :] - left
        sizes_r = m - sizes_l
        g_l = 1.0 - np.sum((left / sizes_l[:, None]) ** 2, axis=1)
        g_r = 1.0 - np.sum((right / sizes_r[:, None]) ** 2, axis=1)
        gains = parent_gini - (sizes_l * g_l + sizes_r * g_r) / m
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))  # first max = lowest threshold
        if gains[i] > GAIN_EPS and (best is None or gains[i] > best[0]):
            best = (float(gains[i]), int(f), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def cart_train(
    x: np.ndarray,
    y: np.ndarray,
    min_leaf: int = 5,
    max_depth: int | None = None,
    n_classes: int | None = None,
    rng: np.random.Generator | None = None,
    mtry: int | None = None,
) -> DecisionTree:
    """Grow a CART on a feature table.

    rng/mtry enable the forest's per-split feature subsampling; plain CART
    considers every feature at every split.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty training table")
    if x.shape[0] != y.shape[0]:
        raise ValueError("feature/label row counts differ")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    d = x.shape[1]
    y_onehot = np.zeros((y.shape[0], n_classes), dtype=np.int64)
    y_onehot[np.arange(y.shape[0]), y] = 1

    feature, threshold, left, right, hist = [], [], [], [], []

    def new_node(counts):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        hist.append(counts)
        return len(feature) - 1

    root = new_node(y_onehot.sum(axis=0))
    stack = [(root, np.arange(x.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = hist[node]
        pure = (counts > 0).sum() <= 1
        too_small = idx.size < 2 * min_leaf
        too_deep = max_depth is not None and depth >= max_depth
        if pure or too_small or too_deep:
            continue
        if mtry is not None and mtry < d:
            cand = np.sort(rng.choice(d, size=mtry, replace=False))
        else:
            cand = np.arange(d)
        found = _best_split(x[idx], y_onehot[idx], cand, min_leaf)
        if found is None:
            continue
        _, f, thr = found
        go_left = x[idx, f] <= thr
        li, ri = idx[go_left], idx[~go_left]
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node(y_onehot[li].sum(axis=0))
        right[node] = new_node(y_onehot[ri].sum(axis=0))
        stack.append((left[node], li, depth + 1))
        stack.append((right[node], ri, depth + 1))

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        hist=np.asarray(hist, dtype=np.int64),
        n_classes=n_classes,
        min_leaf=min_leaf,
        max_depth=max_depth,
    )
