"""Dual-track cross-attention with mask-guided adaptive content-style blending.

The package splits single-track cross-attention into independent style and
content branches over shared queries, decides where style may be written via
head-level covariance statistics and spatial activation peaks, blends with
adaptive instance normalization, and exercises the whole mechanism inside a
deterministic toy diffusion loop.
"""

from .adablending import (
    AsiLayerResult,
    BlendConfig,
    FusedMask,
    HeadMask,
    SpatialMask,
    adain,
    asi_layer,
    blend,
    covariance,
    extract_head_mask,
    extract_spatial_mask,
    fuse_masks,
    head_distance,
    head_distances,
)
from .ddim import (
    LatentState,
    NoiseSchedule,
    OracleDenoiser,
    ddim_generate,
    ddim_invert,
    ddim_step,
    forward_noise,
    make_schedule,
    predict_x0,
)
from .errors import (
    AsiError,
    ConfigError,
    DegenerateInputError,
    NonFiniteError,
    ScheduleError,
    ShapeError,
    TimestepError,
)
from .harness import ExperimentConfig, RunReport, SynthInputs, run_pipeline, sweep, synth_inputs
from .numeric import Matrix, Rng, matmul, randn_matrix, softmax_rows
from .sica import (
    AttentionParams,
    FeatureMap,
    project_kv,
    project_q,
    siamese_attend,
)
from .tensorio import load_tensor, save_tensor

__version__ = "0.1.0"
