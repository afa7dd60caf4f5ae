#!/usr/bin/env python3
# Walk-through: the raster data model, synthetic terrain scenes, and the
# bit-exact file format every pipeline stage exchanges.

import tempfile
from pathlib import Path

import numpy as np

from landseg import (
    SceneSpec, default_legend, generate_scene,
    read_labels, read_raster, write_labels, write_raster,
)

# A legend maps class ids to names and display colors. The default carries
# seven classes; synthetic scenes use the first six.
legend = default_legend(6)
for c in legend.classes:
    print(f"  class {c.id}: {c.name:<20} rgb{c.color}")

# Scenes are fully determined by their spec: terrain from seeded midpoint
# displacement, labels from elevation/slope preferences, spectra from
# per-class means plus correlated noise.
spec = SceneSpec(width=160, height=160, seed=7, cloud_fraction=0.03)
stack, labels, cloud = generate_scene(spec)

print("\nscene bands:", stack.bands)
print("label histogram:", np.bincount(labels.labels.ravel(), minlength=6)[:6])
print("cloud pixels:", int(cloud.sum()))

# Per-class elevation medians come out ordered: tree cover sits highest,
# water lowest. This coupling is what makes the DEM a powerful feature.
dem = stack.band("dem")
for cid in range(6):
    sel = labels.labels == cid
    if sel.any():
        print(f"  median elevation of {legend.names[cid]:<20}"
              f" {np.median(dem[sel]):7.1f} m")

# Everything round-trips bit-exactly through the sidecar+binary container.
with tempfile.TemporaryDirectory() as tmp:
    write_raster(stack, Path(tmp) / "stack")
    write_labels(labels, Path(tmp) / "labels")
    back = read_raster(Path(tmp) / "stack")
    lback = read_labels(Path(tmp) / "labels", legend=legend)
    print("\nraster round trip bit-exact:",
          back.data.tobytes() == stack.data.tobytes())
    print("labels round trip bit-exact:",
          np.array_equal(lback.labels, labels.labels))
    body = (Path(tmp) / "stack.bin").stat().st_size
    print("body bytes:", body, "=",
          f"{stack.n_bands}*{stack.height}*{stack.width}*4 + mask")
