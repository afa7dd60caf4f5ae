import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landseg import (
    LabelRaster,
    extract_tiles,
    plan_tiles,
    split_samples,
    stitch_center,
)
from landseg.tiling import (
    TilePlan, TileSplit, finite_at_nodata, reflect_pad_to, split_counts,
)
from conftest import random_labels, random_raster


def one_hot_predictions(labels: LabelRaster, plan: TilePlan, k: int):
    """Ground-truth one-hot patches cut from the (padded) label raster."""
    padded = reflect_pad_to(labels.labels, plan.padded_height, plan.padded_width)
    p = plan.patch
    preds = []
    for ar, ac in plan.anchors:
        y = padded[ar:ar + p, ac:ac + p]
        probs = np.zeros((p, p, k))
        probs[np.arange(p)[:, None], np.arange(p)[None, :], y] = 1.0
        preds.append(((ar, ac), probs))
    return preds


# -------------------------------------------------------------------- plan

def test_plan_512_patch256_stride128():
    plan = plan_tiles(512, 512, patch=256, stride=128)
    assert len(plan.anchors) == 9
    assert plan.anchors[0] == (0, 0)
    assert plan.anchors[-1] == (256, 256)


def test_plan_single_tile():
    plan = plan_tiles(256, 256, patch=256)
    assert plan.anchors == [(0, 0)]


def test_plan_clamped_final_anchor():
    plan = plan_tiles(300, 300, patch=256, stride=128)
    assert sorted({a[0] for a in plan.anchors}) == [0, 44]
    assert len(plan.anchors) == 4


def test_plan_monotone_in_stride():
    for patch in (64, 128):
        last = None
        for stride in range(patch, 0, -16):
            n = len(plan_tiles(500, 300, patch=patch, stride=stride).anchors)
            if last is not None:
                assert n >= last
            last = n


def test_plan_rejects_bad_dims():
    with pytest.raises(ValueError, match="positive"):
        plan_tiles(0, 100, patch=64)
    with pytest.raises(ValueError, match="stride"):
        plan_tiles(100, 100, patch=64, stride=65)


def test_plan_json_round_trip(tmp_path):
    plan = plan_tiles(300, 200, patch=128, stride=64)
    plan.save(tmp_path / "plan.json")
    back = TilePlan.load(tmp_path / "plan.json")
    assert back == plan


# ----------------------------------------------------------------- extract

def test_extract_nine_tiles(rng):
    r = random_raster(rng, 512, 512, n_bands=2)
    l = random_labels(rng, 512, 512)
    plan = plan_tiles(512, 512, patch=256, stride=128)
    s = extract_tiles(r, l, plan)
    assert len(s.tiles) == 9
    assert s.dropped == 0


def test_extract_drops_all_nodata(rng):
    r = random_raster(rng, 512, 512)
    l = LabelRaster(512, 512, np.full((512, 512), 255, np.uint8))
    plan = plan_tiles(512, 512, patch=256, stride=128)
    s = extract_tiles(r, l, plan)
    assert len(s.tiles) == 0
    assert s.dropped == 9


def test_half_overlap_yields_more_tiles(rng):
    r = random_raster(rng, 512, 512)
    l = random_labels(rng, 512, 512)
    nine = extract_tiles(r, l, plan_tiles(512, 512, 256, 128))
    four = extract_tiles(r, l, plan_tiles(512, 512, 256, 256))
    assert (len(nine.tiles), len(four.tiles)) == (9, 4)


def test_extract_geometry_mismatch(rng):
    r = random_raster(rng, 128, 128)
    l = random_labels(rng, 130, 128)
    with pytest.raises(ValueError, match="geometry"):
        extract_tiles(r, l, plan_tiles(128, 128, 64))


# ------------------------------------------------------------------- split

def test_split_exact_proportions():
    assert split_counts(10) == {"train": 6, "val": 2, "test": 2}
    # 9 tiles: floors 5/1/1, two seats left, val and test carry the larger
    # remainders
    assert split_counts(9) == {"train": 5, "val": 2, "test": 2}
    assert split_counts(7) == {"train": 4, "val": 2, "test": 1}


def test_split_tags_and_determinism(rng):
    r = random_raster(rng, 512, 512)
    l = random_labels(rng, 512, 512)
    s = extract_tiles(r, l, plan_tiles(512, 512, 256, 128))
    a = split_samples(s, seed=7)
    b = split_samples(s, seed=7)
    assert a.split_tags == b.split_tags
    assert sorted(a.split_tags).count("train") == 5
    c = split_samples(s, seed=8)
    assert a.split_tags != c.split_tags  # overwhelmingly likely


def test_tile_split_document_keeps_tags(rng, tmp_path):
    r = random_raster(rng, 100, 80)
    l = random_labels(rng, 100, 80, nodata_frac=0.2)
    l.labels[:40, :40] = 255  # the first tile is all nodata: dropped
    plan = plan_tiles(100, 80, 32)
    samples = split_samples(extract_tiles(r, l, plan), seed=3)
    TileSplit.of(plan, samples).save(tmp_path / "split.json")
    back = TileSplit.load(tmp_path / "split.json").samples(r, l)
    assert back.split_tags == samples.split_tags
    assert (back.seed, back.dropped) == (3, samples.dropped) == (3, 1)
    assert [t.anchor for t in back.tiles] == [t.anchor for t in samples.tiles]


def test_plan_anchors_are_derived():
    plan = plan_tiles(100, 70, patch=32, stride=24)
    assert TilePlan.from_json(plan.to_json()).anchors == plan.anchors
    doc = plan.to_json()
    doc["anchors"][2] = [0, 50]
    with pytest.raises(ValueError, match="TilePlan: 'anchors' are not"):
        TilePlan.from_json(doc)
    doc["anchors"] = doc["anchors"][:2]
    with pytest.raises(ValueError, match="'anchors' are not"):
        TilePlan.from_json(doc)


def test_nodata_values_are_zeroed_before_the_nets(rng):
    r = random_raster(rng, 64, 64)
    assert finite_at_nodata(r) is r.data
    r.data[1, 5, 7] = np.nan
    r.data[0, 9, 9] = -np.inf
    r.valid_mask[5, 7] = r.valid_mask[9, 9] = r.valid_mask[3, 3] = False
    data = finite_at_nodata(r)
    bad = ~np.isfinite(r.data)
    assert (data[bad] == 0).all()
    assert np.array_equal(data[~bad], r.data[~bad])  # finite ones untouched
    s = extract_tiles(r, random_labels(rng, 64, 64), plan_tiles(64, 64, 32))
    assert all(np.isfinite(t.x).all() for t in s.tiles)


def test_split_needs_five_tiles(rng):
    r = random_raster(rng, 256, 256)
    l = random_labels(rng, 256, 256)
    s = extract_tiles(r, l, plan_tiles(256, 256, 256))
    with pytest.raises(ValueError, match="at least 5"):
        split_samples(s, seed=0)


# ------------------------------------------------------------------ stitch

def test_stitch_single_tile(rng):
    l = random_labels(rng, 256, 256, n_classes=3)
    plan = plan_tiles(256, 256, patch=256)
    preds = one_hot_predictions(l, plan, k=3)
    out, probs = stitch_center(preds, plan)
    assert np.array_equal(out.labels, l.labels)
    assert probs.shape == (3, 256, 256)


def test_stitch_two_tile_ownership():
    plan = plan_tiles(384, 256, patch=256, stride=128)
    assert sorted({a[1] for a in plan.anchors}) == [0, 128]
    left = np.zeros((256, 256, 2))
    left[:, :, 0] = 1.0
    right = np.zeros((256, 256, 2))
    right[:, :, 1] = 1.0
    out, _ = stitch_center([((0, 0), left), ((0, 128), right)], plan)
    assert (out.labels[:, :192] == 0).all()
    assert (out.labels[:, 192:] == 1).all()


def test_stitch_consistent_predictions_seamless(rng):
    # tiles cut from one global probability field stitch back to that
    # field's argmax: no seam effects anywhere
    plan = plan_tiles(512, 512, patch=256, stride=128)
    field = rng.random((512, 512, 4))
    field /= field.sum(axis=2, keepdims=True)
    preds = [((ar, ac), field[ar:ar + 256, ac:ac + 256])
             for ar, ac in plan.anchors]
    out, _ = stitch_center(preds, plan)
    assert np.array_equal(out.labels, np.argmax(field, axis=2).astype(np.uint8))


def test_stitch_constant_predictions(rng):
    plan = plan_tiles(512, 512, patch=256, stride=128)
    vec = rng.random(4)
    vec /= vec.sum()
    probs = np.broadcast_to(vec, (256, 256, 4))
    out, stitched = stitch_center([(a, probs) for a in plan.anchors], plan)
    assert (out.labels == np.argmax(vec)).all()
    assert np.allclose(stitched, vec[:, None, None])


def test_stitch_round_trip_random_geometries(rng):
    for _ in range(15):
        w = int(rng.integers(64, 700))
        h = int(rng.integers(64, 700))
        patch = int(rng.choice([64, 128, 256]))
        k = int(rng.integers(2, 7))
        l = random_labels(rng, w, h, n_classes=k)
        plan = plan_tiles(w, h, patch=patch)
        preds = one_hot_predictions(l, plan, k)
        out, probs = stitch_center(preds, plan)
        assert np.array_equal(out.labels, l.labels)
        # ownership partition: every pixel written exactly once
        assert np.allclose(probs.sum(axis=0), 1.0)


def test_stitch_missing_anchor(rng):
    plan = plan_tiles(384, 256, patch=256, stride=128)
    pred = np.ones((256, 256, 2)) / 2
    with pytest.raises(ValueError, match="missing"):
        stitch_center([((0, 0), pred)], plan)


def test_stitch_patch_size_mismatch():
    plan = plan_tiles(256, 256, patch=256)
    with pytest.raises(ValueError, match="shape"):
        stitch_center([((0, 0), np.ones((128, 128, 2)))], plan)


def _nearest_centre_fill(plan, patches):
    """Reference stitch, one pixel at a time: each pixel of the padded
    image takes the value of the tile whose centre lies nearest along each
    axis, ties to the later anchor."""
    p = plan.patch
    k = next(iter(patches.values())).shape[2]

    def owners(anchors, dim):
        out = []
        for y in range(dim):
            # the latest anchor among the nearest centres
            owner = min(anchors, key=lambda a: (abs(y - a - (p - 1) / 2), -a))
            assert 0 <= y - owner < p  # the owner covers the pixel
            out.append(owner)
        return out

    rows = owners(sorted({a[0] for a in plan.anchors}), plan.padded_height)
    cols = owners(sorted({a[1] for a in plan.anchors}), plan.padded_width)
    ref = np.zeros((k, plan.padded_height, plan.padded_width))
    for y, ar in enumerate(rows):
        for x, ac in enumerate(cols):
            ref[:, y, x] = patches[(ar, ac)][y - ar, x - ac]
    return ref[:, :plan.height, :plan.width]


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 40), height=st.integers(1, 40),
       patch=st.integers(1, 12), stride_frac=st.floats(0.0, 1.0),
       k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_stitch_properties(width, height, patch, stride_frac, k, seed):
    stride = max(1, round(stride_frac * patch))
    plan = plan_tiles(width, height, patch=patch, stride=stride)
    rng = np.random.default_rng(seed)
    # nonzero values that differ between tiles, so a pixel left unwritten
    # or written by another tile shows
    patches = {a: 1.0 + rng.random((patch, patch, k)) for a in plan.anchors}
    ref = _nearest_centre_fill(plan, patches)
    shuffled = [(plan.anchors[i], patches[plan.anchors[i]])
                for i in rng.permutation(len(plan.anchors))]
    # a pixel written by a tile besides its owner would take that tile's
    # value in plan order or in reverse order
    feeds = [shuffled, ((a, patches[a]) for a in plan.anchors),
             ((a, patches[a]) for a in reversed(plan.anchors))]
    for feed in feeds:
        labels, probs = stitch_center(feed, plan)
        assert probs.shape == (k, height, width)
        assert np.array_equal(probs, ref)
        assert np.array_equal(labels.labels, np.argmax(ref, axis=0))

    drop = int(rng.integers(len(shuffled)))
    with pytest.raises(ValueError, match="missing"):
        stitch_center(shuffled[:drop] + shuffled[drop + 1:], plan)
    with pytest.raises(ValueError, match="repeats"):
        stitch_center(shuffled + shuffled[drop:drop + 1], plan)
    anchor = shuffled[drop][0]
    with pytest.raises(ValueError, match="shape"):
        stitch_center(shuffled[:drop] + [(anchor, np.ones((patch, patch + 1,
                                                          k)))], plan)
    if len(shuffled) > 1:
        with pytest.raises(ValueError, match="inconsistent"):
            stitch_center(shuffled[:drop] + [(anchor, np.ones((
                patch, patch, k + 1)))] + shuffled[drop + 1:], plan)


def test_reflect_pad_small_image():
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    out = reflect_pad_to(arr, 9, 9)
    assert out.shape == (9, 9)
    assert np.array_equal(out[:3, :4], arr)


def _reflect_index(n, size):
    """Source indices of a length-n axis reflect-padded to size: the
    sequence bounces off both ends without repeating the edge; a length-1
    axis repeats its one element."""
    if n == 1:
        return np.zeros(size, dtype=np.int64)
    i = np.arange(size) % (2 * (n - 1))
    return np.where(i < n, i, 2 * (n - 1) - i)


@given(h=st.integers(1, 12), w=st.integers(1, 12),
       grow_h=st.integers(0, 4), grow_w=st.integers(0, 4),
       lead=st.sampled_from([(), (2,)]),
       dtype=st.sampled_from([np.float32, np.bool_, np.uint8]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None)
def test_reflect_pad_matches_index_reference(h, w, grow_h, grow_w, lead,
                                             dtype, seed):
    arr = np.random.default_rng(seed).integers(
        0, 200, size=lead + (h, w)).astype(dtype)
    th, tw = h + grow_h * h, w + grow_w * w  # up to 5x each axis
    out = reflect_pad_to(arr, th, tw)
    ref = arr[..., _reflect_index(h, th)[:, None], _reflect_index(w, tw)]
    assert out.dtype == arr.dtype
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    # a target at or below the array's own size pads nothing
    assert reflect_pad_to(arr, h - grow_h, w) is arr
