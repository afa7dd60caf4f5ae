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

from ..jsondoc import JsonDoc, as_array, at_least, check_params, doc_field

GAIN_EPS = 1e-12  # integer class counts make true zero gains exact; this
                  # only guards against f64 rounding in the weighted sum
SEARCH_ROWS = 1 << 15  # row cap of one batched split search; bounds memory


def gini(class_counts):
    """Gini impurity 1 - sum((n_c/n)^2) of a count vector (a float), or of
    each row of an (S, K) count matrix (an (S,) array)."""
    # C order: a row's sum then adds its classes as a vector's sum does
    counts = np.asarray(class_counts, dtype=np.float64, order="C")
    if (counts < 0).any():
        raise ValueError("class counts must be non-negative")
    n = counts @ np.ones(counts.shape[-1])  # exact: whole numbers below 2**53
    if (n <= 0).any():
        raise ValueError("empty node")
    p = counts / np.expand_dims(n, -1)
    g = 1.0 - np.sum(p * p, axis=-1)
    return float(g) if counts.ndim == 1 else g


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
    min_leaf: int = doc_field(check=at_least(1), default=5)
    max_depth: int | None = doc_field(check=at_least(1), default=None)

    def __post_init__(self):
        super().__post_init__()
        # a forest's vote tables assume a tree: every node but the root is
        # the child of exactly one split node with a lower index
        n = self.n_nodes
        if any(a.shape[:1] != (n,) for a in (self.threshold, self.left,
                                              self.right, self.hist)):
            raise ValueError("node arrays differ in length")
        if self.hist.shape != (n, self.n_classes):
            raise ValueError(f"'hist' must hold {self.n_classes} class counts "
                             f"per node, got shape {self.hist.shape}")
        split = np.flatnonzero(self.feature >= 0)
        kids = np.concatenate([self.left[split], self.right[split]])
        if not (np.array_equal(np.sort(kids), np.arange(1, n))
                and (kids > np.tile(split, 2)).all()):
            raise ValueError("'left' and 'right' do not form a tree")
        # x <= NaN is false for every x, which no threshold table can rank
        if np.isnan(self.threshold).any():
            raise ValueError("'threshold' holds NaN")

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] < 0

    def _leaves(self, x: np.ndarray) -> np.ndarray:
        """Index of the leaf each row lands in."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        out = np.empty(x.shape[0], dtype=np.int64)
        stack = [(0, np.arange(x.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            f = feature[node]
            if f < 0:
                out[idx] = node
                continue
            go_left = x[:, f][idx] <= threshold[node]
            stack.append((left[node], idx[go_left]))
            stack.append((right[node], idx[~go_left]))
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf-majority class per row; ties go to the lowest class id."""
        return np.argmax(self.hist, axis=1)[self._leaves(x)]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Normalized leaf histogram per row."""
        h = self.hist[self._leaves(x)].astype(np.float64)
        return h / h.sum(axis=1, keepdims=True)


def _best_splits(x, ranks, y, rows, hist, cand, min_leaf):
    """Best split of each node over its candidate features, in one search.

    rows: P arrays of row ids into x and y, one node each; ranks: the
    dense rank of each x value in its column; hist: (P, K) class counts
    of the rows; cand: (P, J) candidate features, ascending per node.
    Returns (gain, feature, threshold), one entry per node; gain is -inf
    where a node has no valid split.
    """
    p_n, j_n = cand.shape
    k = hist.shape[1]
    m = np.asarray([r.size for r in rows], dtype=np.int64)
    # segment j * P + p holds node p's rows under its j-th candidate
    size = np.tile(m, j_n)
    start = np.cumsum(size) - size
    seg = np.repeat(np.arange(p_n * j_n), size)
    flat = (np.tile(np.concatenate(rows), j_n) * x.shape[1]
            + cand.T.ravel()[seg])
    # sort by (segment, value, position), so ties keep their row order;
    # the key fits in int64 for any table under 2**31 values
    shift = seg.size.bit_length()
    key = (seg * x.shape[0] + ranks.ravel()[flat]) << shift
    key |= np.arange(seg.size)
    flat = flat[np.sort(key) & ((1 << shift) - 1)]
    xs = x.ravel()[flat]

    # a split after sorted position i sends rows start..i left
    nl = np.arange(1, seg.size) - start[seg[:-1]]
    nr = size[seg[:-1]] - nl
    lo = max(min_leaf, 1)  # nr >= 1 keeps position i inside its segment
    i = np.flatnonzero((xs[:-1] < xs[1:]) & (nl >= lo) & (nr >= lo))
    best = np.full(p_n * j_n, -np.inf)
    thr = np.zeros(p_n * j_n)
    if i.size:
        si = seg[i]
        node = si % p_n
        # class-major running counts, with a zero column in front
        cum = np.zeros((k, seg.size + 1), dtype=np.int32)
        np.cumsum(y[flat // x.shape[1]] == np.arange(k)[:, None], axis=1,
                  dtype=np.int32, out=cum[:, 1:])
        left = np.empty((i.size, k))
        np.subtract(np.take(cum, i + 1, axis=1),
                    np.take(cum, start[si], axis=1), out=left.T)
        sl, sr = nl[i], nr[i]
        gains = gini(hist)[node] - (
            sl * gini(left) + sr * gini(hist[node] - left)) / size[si]
        # the first maximum of a segment has the lowest threshold
        runs = np.flatnonzero(np.r_[True, si[1:] != si[:-1]])
        top = np.maximum.reduceat(gains, runs)
        lengths = np.diff(np.r_[runs, i.size])
        hit = np.flatnonzero(gains == np.repeat(top, lengths))
        win = i[hit[np.r_[True, si[hit[1:]] != si[hit[:-1]]]]]
        best[si[runs]] = top
        thr[si[runs]] = (xs[win] + xs[win + 1]) / 2.0
    # the first maximum over slots has the lowest feature
    slot = np.argmax(best.reshape(j_n, p_n), axis=0)
    pick = slot * p_n + np.arange(p_n)
    return best[pick], cand[np.arange(p_n), slot], thr[pick]


def _grow(x, y, boots, rngs, n_classes, min_leaf, max_depth, mtry):
    """Grow one CART per bootstrap (row ids into x), all trees in lockstep.

    Each tree keeps its own rng and DFS stack, so its feature draws, pop
    order and node numbering are those of growing it alone. A step pops
    one node per tree and finds the popped nodes' splits together, in
    searches of at most SEARCH_ROWS rows (a larger node is searched alone).
    """
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")
    x = np.ascontiguousarray(x)
    d = x.shape[1]
    ranks = np.empty(x.shape, dtype=np.int64)
    for f in range(d):
        ranks[:, f] = np.unique(x[:, f], return_inverse=True)[1]
    draw = mtry is not None and mtry < d
    n_cand = mtry if draw else d
    nodes = [([], [], [], [], []) for _ in boots]  # feature .. hist lists

    def new_node(t, counts):
        feature, threshold, left, right, hist = nodes[t]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        hist.append(counts)
        return len(feature) - 1

    def splittable(counts, size, depth):
        # pure, small and deep nodes stay leaves without drawing features
        return (((counts > 0).sum(axis=-1) > 1) & (size >= 2 * min_leaf)
                & (max_depth is None or depth < max_depth))

    stacks = []
    for t, rows in enumerate(boots):
        counts = np.bincount(y[rows], minlength=n_classes)
        new_node(t, counts)
        stacks.append([(0, rows, 0)] if splittable(counts, rows.size, 0)
                      else [])

    def split(group):
        cand = np.asarray([
            np.sort(rngs[t].choice(d, size=mtry, replace=False)) if draw
            else np.arange(d) for t, _, _, _ in group])
        rows = [r for _, _, r, _ in group]
        hist = np.asarray([nodes[t][4][node] for t, node, _, _ in group])
        gain, feat, thr = _best_splits(x, ranks, y, rows, hist, cand,
                                      min_leaf)
        q = np.flatnonzero(gain > GAIN_EPS)
        if not q.size:
            return
        # partition every split node's rows at once, keeping row order
        sizes = [rows[a].size for a in q]
        rq = np.concatenate([rows[a] for a in q])
        owner = np.repeat(np.arange(q.size), sizes)
        go_left = x[rq, feat[q][owner]] <= thr[q][owner]
        child = 2 * owner + ~go_left
        n_child = np.bincount(child, minlength=2 * q.size)
        h_child = np.bincount(child * n_classes + y[rq],
                              minlength=2 * q.size * n_classes
                              ).reshape(-1, n_classes)
        rq = rq[np.argsort(child, kind="stable")]
        ends = np.cumsum(n_child).tolist()
        parts = [rq[a:b] for a, b in zip([0] + ends, ends)]
        depth = np.repeat([group[a][3] + 1 for a in q], 2)
        grow_on = splittable(h_child, n_child, depth).tolist()
        for c, a in enumerate(q.tolist()):
            t, node, _, _ = group[a]
            feature, threshold, left, right, _ = nodes[t]
            feature[node] = int(feat[a])
            threshold[node] = float(thr[a])
            left[node] = new_node(t, h_child[2 * c])
            right[node] = new_node(t, h_child[2 * c + 1])
            for side, kid in ((2 * c, left[node]), (2 * c + 1, right[node])):
                if grow_on[side]:
                    stacks[t].append((kid, parts[side], int(depth[side])))

    live = [t for t in range(len(boots)) if stacks[t]]
    while live:
        group, n_rows = [], 0
        for t in live:
            item = (t, *stacks[t].pop())
            if group and n_rows + item[2].size * n_cand > SEARCH_ROWS:
                split(group)
                group, n_rows = [], 0
            group.append(item)
            n_rows += item[2].size * n_cand
        split(group)
        live = [t for t in live if stacks[t]]
    return [DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        hist=np.asarray(hist, dtype=np.int64),
        n_classes=n_classes, min_leaf=min_leaf, max_depth=max_depth,
    ) for feature, threshold, left, right, hist in nodes]


def training_table(x, y, n_classes=None) -> tuple:
    """(x, y, n_classes) of a pixel trainer's table: x as 2-D float64, y as
    int64, n_classes by default the largest label plus 1. Raise ValueError
    on an empty table, unequal row counts, or a value that is not finite,
    naming its row and column."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty training table")
    if x.shape[0] != y.shape[0]:
        raise ValueError("feature/label row counts differ")
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        row, col = (int(v) for v in bad[0])
        raise ValueError(f"training table holds {x[row, col]} at row {row}, "
                         f"column {col}; training needs finite values")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    return x, y, n_classes


def cart_train(
    x: np.ndarray,
    y: np.ndarray,
    min_leaf: int = 5,
    max_depth: int | None = None,
    n_classes: int | None = None,
) -> DecisionTree:
    """Grow a CART on a feature table, searching every feature at every
    split."""
    check_params(min_leaf=min_leaf, max_depth=max_depth)
    x, y, n_classes = training_table(x, y, n_classes)
    return _grow(x, y, [np.arange(x.shape[0])], [None], n_classes,
                 min_leaf, max_depth, None)[0]
