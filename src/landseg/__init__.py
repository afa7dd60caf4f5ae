"""Land-cover segmentation pipeline toolkit.

Raster preprocessing, overlap tiling, augmentation and class weighting,
from-scratch pixel classifiers (CART / random forest / RBF-SVM), miniature
encoder-decoder segmentation networks with exact gradients, seam-free
stitched inference, softmax-average ensembling, and confusion-matrix
accuracy assessment — all verifiable at desk scale on synthetic terrain.
"""

__version__ = "0.1.0"

from .raster import (
    ClassLegend,
    GroundPointSet,
    LabelRaster,
    NODATA_ID,
    Raster,
    SPECTRAL_BANDS,
    STACK_BANDS,
    default_legend,
    read_labels,
    read_raster,
    write_labels,
    write_raster,
)
from .preprocess import (
    HistogramMap,
    apply_cloud_mask,
    histogram_match,
    normalize_to_reference,
    scale_to_u8,
    slope_from_dem,
    stack_bands,
)
from .tiling import (
    SampleSet,
    Tile,
    TilePlan,
    extract_tiles,
    plan_tiles,
    split_samples,
    stitch_center,
)
from .sampling import (
    ClassWeights,
    FeatureTable,
    augment,
    class_weights,
    stratified_sample,
)
from .classical import (
    DecisionTree,
    RandomForest,
    SvmClassifier,
    cart_train,
    gini,
    permutation_importance,
    rf_train,
    svm_train,
)
from .evaluate import (
    ConfusionMatrix,
    MetricsReport,
    accumulate,
    argmax_labels,
    class_metrics,
    confusion_from,
    ensemble_average,
    f1_score,
    overall_accuracy,
    render_table,
    report,
)
from .models import load_model, predict_map, save_model
from .synth import SceneSpec, generate_scene, scene_battery
