"""melworld: emotion-conditioned diffusion mechanisms verified against
closed-form oracles on a synthetic speakers-by-emotions world."""

from .autodiff import (
    GraphError,
    MelworldError,
    ParamStore,
    Tensor,
    grad_reverse,
    gradcheck,
)
from .diffusion import (
    DiffusionError,
    NoiseSchedule,
    ScoreNet,
    combine_cfg,
    guided_score_cg,
    perturb,
    sample_cfg,
    sample_cg,
    sample_reverse,
)
from .metrics import (
    EvalError,
    EvalSample,
    content_error,
    eca_oracle,
    guidance_sweep,
    probe_disentanglement,
    secs_analog,
    speaker_id_accuracy,
)
from .stylegen import EmotionTable, Generator, StyleEncoder, StyleError
from .training import (
    Checkpoint,
    EmotionProbeHead,
    Model,
    ModelConfig,
    NoisyClassifier,
    TrainConfig,
    TrainingError,
    build_model,
    train_model,
    train_noisy_classifier,
)
from .world import (
    NEUTRAL,
    AnalyticNoisyClassifier,
    SpeakerSplit,
    World,
    WorldConfig,
    WorldError,
    analytic_emotion_posterior,
    analytic_log_density,
    analytic_score,
    dump_world,
    load_world,
    make_world,
    split_speakers,
    utterance_mean,
    world_hash,
)

__version__ = "0.1.0"
