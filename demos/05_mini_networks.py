#!/usr/bin/env python3
# Walk-through: the miniature segmentation networks -- exact gradients,
# training on tile splits, stitched whole-scene prediction, ensembling.

import numpy as np

from landseg import (
    SceneSpec, class_weights, ensemble_average, generate_scene,
    extract_tiles, plan_tiles, predict_map, split_samples,
)
from landseg.evaluate import confusion_from, overall_accuracy
from landseg.nn import TrainConfig, build_network, default_config, train

spec = SceneSpec(width=192, height=192, seed=15)
stack, labels, _ = generate_scene(spec)
legend = spec.legend()

plan = plan_tiles(192, 192, patch=64, stride=32)
samples = split_samples(extract_tiles(stack, labels, plan), seed=0)
cw = class_weights(labels, legend)

# Paper-assigned optimizers are the defaults: Adam 1e-5 for segnet/unet,
# SGD 0.05 momentum 0.9 for psp. Adam at 1e-5 needs tens of thousands of
# steps to converge, so this demo trains segnet/unet at a desk-scale 1e-3.
configs = {
    "segnet_mini": TrainConfig(optimizer="adam", lr=1e-3, epochs=8, seed=1,
                               class_weights=cw.weights),
    "unet_mini": TrainConfig(optimizer="adam", lr=1e-3, epochs=8, seed=1,
                             class_weights=cw.weights),
    "psp_mini": default_config("psp_mini", epochs=8, seed=1,
                               class_weights=cw.weights),
}

prob_maps = {}
for arch, cfg in configs.items():
    net = build_network(arch, in_ch=7, n_classes=6, width=8, patch=64, seed=1)
    net, history = train(net, samples, cfg)
    label_map, probs = predict_map(net, stack, plan)
    oa = overall_accuracy(confusion_from(labels, label_map, 6))
    prob_maps[arch] = probs
    first, last = history[0], history[-1]
    print(f"{arch:<12} val loss {first[2]:.3f} -> {last[2]:.3f}   scene OA {oa:.3f}")

# Softmax-average ensemble: per-pixel mean of the three class distributions.
merged = ensemble_average(list(prob_maps.values()))
merged_labels = np.argmax(merged, axis=0).astype(np.uint8)
from landseg import LabelRaster
oa = overall_accuracy(confusion_from(
    labels, LabelRaster(192, 192, merged_labels), 6))
print(f"{'merged':<12} {'':>24}   scene OA {oa:.3f}")
print("merged vectors sum to 1:",
      bool(np.abs(merged.sum(axis=0) - 1.0).max() < 1e-12))
