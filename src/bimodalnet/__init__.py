"""Bimodal sigmoid towers with feature fusion and bilinear softmax heads."""

from .bilinear import (
    FACTORED,
    FACTORED_SHARED,
    FULL,
    BilinearHead,
    HeadGradients,
    LabelTree,
    VariantError,
    deltas,
    head_gradients,
    init_head,
    materialize_w,
    param_count,
    posterior,
    posterior_batch,
)
from .data import (
    Dataset,
    FormatError,
    PlantedModel,
    SynthSpec,
    VersionError,
    generate_synthetic,
    generate_with_planted,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from .fusion import (
    BilinearClassifier,
    Classifier,
    Ensemble,
    FusedClassifier,
    SoftmaxHead,
    UnimodalClassifier,
    average_posteriors,
    fuse_features,
)
from .linalg import ShapeError, frobenius_norm, frobenius_project
from .mlp import (
    ForwardTrace,
    MlpTower,
    TowerGradients,
    backward,
    forward,
    init_tower,
    sigmoid,
    sigmoid_prime,
    softmax,
)
from .training import (
    DivergenceError,
    GradCheckReport,
    Metrics,
    TrainConfig,
    build_model,
    cross_entropy,
    evaluate,
    grad_check,
    sgd_step,
    train_joint,
    train_model,
)

__version__ = "0.1.0"
