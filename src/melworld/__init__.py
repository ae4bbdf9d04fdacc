"""melworld: emotion-conditioned diffusion mechanisms verified against
closed-form oracles on a synthetic speakers-by-emotions world."""

from .autodiff import (
    GraphError,
    Graph,
    GradcheckReport,
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
    dsm_loss,
    guided_score_cg,
    perturb,
    sample_cfg,
    sample_cg,
    sample_reverse,
)
from .metrics import (
    EvalError,
    EvalReport,
    EvalSample,
    content_error,
    eca_oracle,
    guidance_sweep,
    probe_disentanglement,
    secs_analog,
    speaker_id_accuracy,
)
from .stylegen import EmotionTable, Generator, StyleEncoder
from .training import (
    Checkpoint,
    EmotionProbeHead,
    Model,
    ModelConfig,
    NoisyClassifier,
    TrainConfig,
    TrainingError,
    build_model,
    dat_step,
    train_model,
    train_noisy_classifier,
)
from .world import (
    NEUTRAL,
    AnalyticNoisyClassifier,
    SpeakerSplit,
    Utterance,
    World,
    WorldConfig,
    WorldError,
    analytic_emotion_posterior,
    analytic_log_density,
    analytic_score,
    dump_world,
    load_world,
    make_world,
    sample_utterance,
    split_speakers,
    utterance_mean,
    world_hash,
)

__version__ = "0.1.0"
