"""Training orchestration: joint reconstruction + score matching with
domain-adversarial emotion disentanglement, null-embedding dropout for the
classifier-free path, and the separately trained noisy-data emotion
classifier used by classifier guidance.

The adversarial piece is a softmax probe on the style vector behind a
gradient-reversal node: the probe descends its own cross-entropy while the
encoder ascends it (scaled by alpha), which pushes emotion information out
of the style vector.

Only two losses shape the style vector: reconstruction and the adversary.

- Rows whose emotion is dropped to the null embedding pass their style to
  the generator as a constant. Without the emotion label, their
  reconstruction is best when the style itself carries the emotion, so
  its gradient would teach the encoder exactly what the adversary
  removes.
- Score matching sees the prior mean mu and the style as constants on
  every row. The score net's skip term makes its loss pull mu toward each
  utterance's own frames, up to about three times as hard as
  reconstruction near t = 0.1; through mu that pull also asks the style
  to carry the utterance's emotion.

The adversarial loss still sees every row.

Classifier guidance samples every emotion on the null path alone, so the
score net learns that path from every row through a second score-matching
term, with the null embedding, the null-path prior mean and the style as
constants. Null-embedding dropout (p_null) still decides how often the
generator and the emotion table learn the null condition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import softmax as np_softmax

from . import autodiff as ad
from . import checkpoint as ckpt_io
from .autodiff import GraphError, ParamStore, Tensor
from .diffusion import NoiseSchedule, ScoreNet, dsm_loss_t, time_embedding
from .stylegen import EmotionTable, Generator, StyleEncoder
from .world import NEUTRAL, World, SpeakerSplit, sample_utterance_batch, world_hash


class TrainingError(Exception):
    """Raised on invalid training configuration or diverging runs."""


@dataclass(frozen=True)
class ModelConfig:
    """The ``[model]`` configuration section."""

    style_dim: int = 16
    emotion_dim: int = 8
    token_dim: int = 8
    hidden: int = 64  # MLP hidden width
    n_hidden: int = 2  # MLP hidden layers
    clf_hidden: int = 64  # noisy classifier hidden width
    beta0: float = 0.05  # noise schedule start
    beta1: float = 20.0  # noise schedule end
    t_final: float = 1.0  # terminal diffusion time
    t_min: float = 1e-3  # lower time cutoff
    seed: int = 0  # parameter initialization seed


@dataclass(frozen=True)
class TrainConfig:
    """The ``[train]`` configuration section."""

    alpha: float = 1.0  # gradient reversal scale
    p_null: float = 0.1  # null-embedding dropout probability
    lr: float = 0.01  # SGD learning rate
    steps: int = 12000
    batch_size: int = 16  # utterances per step
    w_recon: float = 1.0  # reconstruction loss weight
    w_dsm: float = 1.0  # score matching loss weight
    w_dat: float = 0.5  # adversarial loss weight
    clip_norm: float = 5.0  # global gradient clip
    utt_len: int = 8  # training utterance length
    # extra probe-only updates per step on the post-update style, encoded
    # once per step: the reversal only disentangles when the adversary tracks
    # the moving representation closely (skipped when w_dat = 0)
    dat_probe_steps: int = 15
    dat_probe_lr: float = 0.05
    # periodic probe reinitialization breaks the stale-direction limit cycle:
    # each fresh adversary hunts whatever emotion information currently leaks
    # (0 = never)
    dat_probe_reinit: int = 1500
    clf_steps: int = 3000  # noisy classifier steps
    clf_lr: float = 0.05  # noisy classifier learning rate
    clf_batch: int = 32  # noisy classifier batch size
    seed: int = 0  # training seed

    def __post_init__(self):
        if not 0.0 <= self.p_null < 1.0:
            raise TrainingError(f"p_null must be in [0, 1), got {self.p_null}")
        if self.alpha <= 0:
            raise TrainingError(f"alpha must be positive, got {self.alpha}")
        if min(self.w_recon, self.w_dsm, self.w_dat) < 0:
            raise TrainingError("loss weights must be nonnegative")
        if min(self.batch_size, self.clf_batch, self.utt_len) < 1:
            raise TrainingError("batch_size, clf_batch and utt_len must be >= 1")
        if min(self.steps, self.clf_steps, self.dat_probe_steps, self.dat_probe_reinit) < 0:
            raise TrainingError("steps, clf_steps, dat_probe_steps and dat_probe_reinit "
                                "must be nonnegative")


class EmotionProbeHead:
    """Softmax probe over the style vector; the DAT adversary."""

    def __init__(self, style_dim: int, n_emotions: int, hidden: int = 32, seed: int = 0):
        self.style_dim = style_dim
        self.n_emotions = n_emotions
        self.n_layers = 2
        self.params = ParamStore(seed, "probe")
        ad.mlp_init(self.params, "net", [style_dim, hidden, n_emotions])

    def logits_t(self, style: Tensor) -> Tensor:
        return ad.mlp_apply(self.params, "net", style, self.n_layers)

    def posterior(self, style) -> np.ndarray:
        return np_softmax(self.logits_t(Tensor(style)).data, axis=-1)


class NoisyClassifier:
    """Emotion classifier on noisy frames: concat(row-pooled mean, time embedding).

    Pooling keeps p(e | Y_t) a single distribution per utterance; the
    gradient with respect to Y_t comes from backpropagation through the
    classifier input.
    """

    def __init__(self, frame_dim: int, n_emotions: int, hidden: int = 64,
                 n_hidden: int = 2, seed: int = 0):
        self.frame_dim = frame_dim
        self.n_emotions = n_emotions
        self.n_layers = n_hidden + 1
        self.params = ParamStore(seed, "noisy_clf")
        ad.mlp_init(self.params, "net", [frame_dim + 5] + [hidden] * n_hidden + [n_emotions])

    def logits_t(self, y_t: Tensor, t, frozen: bool = False) -> Tensor:
        """Logits of p(e | Y_t); ``frozen`` takes the parameters as constants,
        so a backward pass reaches the input only."""
        pooled = ad.tmean(y_t, axis=-2)
        temb = time_embedding(t)
        if pooled.data.ndim == 2:
            temb = np.broadcast_to(temb, (pooled.data.shape[0], 5)).copy()
        x = ad.concat([pooled, Tensor(temb)], axis=-1)
        params = ({name: p.data for name, p in self.params.tensors().items()}
                  if frozen else self.params)
        return ad.mlp_apply(params, "net", x, self.n_layers)

    def posterior(self, y_t, t) -> np.ndarray:
        return np_softmax(self.logits_t(Tensor(y_t), t).data, axis=-1)

    def grad_log_prob(self, y_t, t, target) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of log p(target | Y_t) with respect to Y_t, and the
        posterior p(. | Y_t), from one forward pass; no gradient reaches the
        classifier's parameters."""
        leaf = Tensor(y_t, requires_grad=True)
        logits = self.logits_t(leaf, t, frozen=True)
        labels = np.asarray(target, dtype=np.int64)
        if logits.data.ndim == 1:
            labels = labels.reshape(())
        n = max(int(np.prod(logits.data.shape[:-1])), 1)
        loss = ad.softmax_cross_entropy(logits, labels)
        loss.backward()
        return -n * leaf.grad, np_softmax(logits.data, axis=-1)


@dataclass
class Model:
    """All trainable components plus the noise schedule they were built for."""

    frame_dim: int
    vocab: int
    n_emotions: int
    config: ModelConfig
    encoder: StyleEncoder
    table: EmotionTable
    generator: Generator
    scorenet: ScoreNet
    probe: EmotionProbeHead
    noisy_clf: NoisyClassifier
    schedule: NoiseSchedule

    def stores(self) -> dict[str, ParamStore]:
        return {
            "style_encoder": self.encoder.params,
            "emotion_table": self.table.params,
            "generator": self.generator.params,
            "scorenet": self.scorenet.params,
            "probe": self.probe.params,
            "noisy_clf": self.noisy_clf.params,
        }


def build_model(world: World, config: ModelConfig = ModelConfig()) -> Model:
    """Fresh components for ``world``; only its ``frame_dim``, ``vocab`` and
    ``n_emotions`` are read, so a checkpoint's stored dims serve as well."""
    seed = config.seed
    schedule = NoiseSchedule(config.beta0, config.beta1, config.t_final, config.t_min)
    return Model(
        frame_dim=world.frame_dim,
        vocab=world.vocab,
        n_emotions=world.n_emotions,
        config=config,
        encoder=StyleEncoder(world.frame_dim, config.style_dim, config.hidden,
                             config.n_hidden, seed=seed),
        table=EmotionTable(world.n_emotions, config.emotion_dim, seed=seed),
        generator=Generator(world.vocab, world.frame_dim, config.style_dim,
                            config.emotion_dim, config.token_dim, config.hidden,
                            config.n_hidden, seed=seed),
        scorenet=ScoreNet(world.frame_dim, config.style_dim, config.emotion_dim,
                          config.hidden, config.n_hidden, seed=seed, schedule=schedule),
        probe=EmotionProbeHead(config.style_dim, world.n_emotions, seed=seed),
        noisy_clf=NoisyClassifier(world.frame_dim, world.n_emotions,
                                  config.clf_hidden, config.n_hidden, seed=seed),
        schedule=schedule,
    )


def sgd_update(stores, lr: float, clip_norm: float | None = None) -> float:
    """Plain SGD over every parameter with a gradient; returns the global
    pre-clip gradient norm. Clipping rescales all gradients jointly."""
    sq = sum(store.grad_sq_norm() for store in stores)
    norm = float(np.sqrt(sq))
    scale = 1.0
    if clip_norm is not None and norm > clip_norm:
        scale = clip_norm / norm
    for store in stores:
        for tensor in store.tensors().values():
            if tensor.grad is not None:
                tensor.data = tensor.data - lr * scale * tensor.grad
    return norm


def dat_step(encoder: StyleEncoder, probe: EmotionProbeHead, frames, labels,
             alpha: float, lr: float, apply_update: bool = True) -> dict:
    """One adversarial step on the emotion classification loss alone.

    The probe receives the standard gradient; the encoder receives -alpha
    times it through the reversal node. Returns the loss and both gradient
    norms (taken before any update).
    """
    frames = np.asarray(frames, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise TrainingError("batch lacks emotion labels")
    style = encoder.encode_t(Tensor(frames))
    reversed_style = ad.grad_reverse(style, alpha)
    logits = probe.logits_t(reversed_style)
    loss = ad.softmax_cross_entropy(logits, labels)
    encoder.params.zero_grad()
    probe.params.zero_grad()
    loss.backward()
    record = {
        "loss_e": float(loss.data),
        "probe_grad_norm": float(np.sqrt(probe.params.grad_sq_norm())),
        "encoder_grad_norm": float(np.sqrt(encoder.params.grad_sq_norm())),
    }
    if apply_update:
        sgd_update([encoder.params, probe.params], lr)
    return record


@dataclass
class Checkpoint:
    """Every parameter store plus the configuration that produced them."""

    model: Model
    train_config: TrainConfig
    world_hash: str
    step: int

    def to_bytes(self) -> bytes:
        meta = {
            "model_config": asdict(self.model.config),
            "train_config": asdict(self.train_config),
            "dims": {
                "frame_dim": self.model.frame_dim,
                "vocab": self.model.vocab,
                "n_emotions": self.model.n_emotions,
            },
            "world_hash": self.world_hash,
            "step": self.step,
        }
        return ckpt_io.dump_stores(self.model.stores(), meta)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint":
        states, _seeds, meta = ckpt_io.load_stores(raw)
        mc = ModelConfig(**meta["model_config"])
        tc = TrainConfig(**meta["train_config"])
        model = build_model(SimpleNamespace(**meta["dims"]), mc)
        for name, store in model.stores().items():
            store.load_state_dict(states[name])
        return cls(model=model, train_config=tc, world_hash=meta["world_hash"],
                   step=int(meta["step"]))


def _detach_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Same values as ``x``; rows where ``mask`` is set pass no gradient."""
    keep = (~np.asarray(mask, dtype=bool)).astype(np.float64)[:, None]
    return ad.add(ad.mul(x, keep), Tensor(x.data * (1.0 - keep)))


def _probe_updates(probe: EmotionProbeHead, style: np.ndarray, labels,
                   steps: int, lr: float) -> None:
    """``steps`` plain descent updates of the probe alone on a fixed style.

    The style is a constant: only the probe moves between updates, so the
    encoder is neither re-run nor reached by a backward pass.
    """
    style_t = Tensor(style)
    for _ in range(steps):
        loss = ad.softmax_cross_entropy(probe.logits_t(style_t), labels)
        probe.params.zero_grad()
        loss.backward()
        sgd_update([probe.params], lr)


def train_model(world: World, split: SpeakerSplit, config: TrainConfig = TrainConfig(),
                model_config: ModelConfig = ModelConfig(),
                trace: list | None = None) -> Checkpoint:
    """Joint training on seen speakers; deterministic given the seeds.

    Per step: draw a batch of utterances with random emotions and tokens,
    encode the utterance's own frames into s, embed the emotion (replaced
    per-sample by the null row with probability p_null for both the
    generator and the score net), and descend

        w_recon * ||mu - Y0||^2 + w_dsm * (dsm + dsm_null) + w_dat * L_e(reversed s),

    where dsm_null is score matching on the null path for every row. Both
    dsm terms treat mu and s as constants, and null rows pass s to the
    generator as a constant (see the module docstring), so the encoder
    learns from reconstruction of labelled rows and from L_e only.

    After the joint update the probe alone takes ``dat_probe_steps`` more
    updates on the post-update style, which is encoded once per step and
    held constant: only the probe changes between them. At w_dat = 0 nothing
    reads the adversary, so these updates do not run; L_e is still computed
    and logged, with no effect on any other store.
    """
    if not split.seen:
        raise TrainingError("split has no seen speakers")
    model = build_model(world, model_config)
    rng = np.random.default_rng(config.seed)
    seen = np.array(split.seen, dtype=np.int64)
    stores = [model.encoder.params, model.table.params, model.generator.params,
              model.scorenet.params, model.probe.params]
    for i in range(config.steps):
        if config.dat_probe_reinit and i > 0 and i % config.dat_probe_reinit == 0:
            model.probe = EmotionProbeHead(
                model.config.style_dim, world.n_emotions,
                seed=(model.config.seed * 1_000_003 + i) % (2 ** 31))
            stores[4] = model.probe.params
        speakers = rng.choice(seen, size=config.batch_size)
        emotions = rng.integers(0, world.n_emotions, size=config.batch_size)
        tokens = rng.integers(0, world.vocab, size=(config.batch_size, config.utt_len))
        frames = sample_utterance_batch(world, speakers, emotions, tokens, rng)
        null_mask = rng.random(config.batch_size) < config.p_null
        try:
            frames_t = Tensor(frames)
            style = model.encoder.encode_t(frames_t)
            e_idx = model.table.row_indices(emotions, null_mask)
            e_emb = model.table.embed_t(e_idx)
            mu = model.generator.generate_t(tokens, _detach_rows(style, null_mask), e_emb)
            loss_recon = ad.mse(mu, frames_t)
            loss_dsm = dsm_loss_t(model.scorenet, frames, mu.data, style.data, e_emb,
                                  model.schedule, rng)
            e_null = model.table.params["emb"].data[
                np.full(config.batch_size, model.table.null_index)]
            mu_null = model.generator.generate(tokens, style.data, e_null)
            loss_dsm = ad.add(loss_dsm, dsm_loss_t(model.scorenet, frames, mu_null, style.data,
                                                   e_null, model.schedule, rng))
            reversed_style = ad.grad_reverse(style, config.alpha)
            logits = model.probe.logits_t(reversed_style)
            loss_dat = ad.softmax_cross_entropy(logits, emotions)
            total = ad.add(ad.add(ad.mul(loss_recon, config.w_recon),
                                  ad.mul(loss_dsm, config.w_dsm)),
                           ad.mul(loss_dat, config.w_dat))
            for store in stores:
                store.zero_grad()
            total.backward()
        except GraphError as exc:
            raise TrainingError(f"divergence at step {i}: {exc}") from exc
        grad_norm = sgd_update(stores, config.lr, config.clip_norm)
        if config.w_dat > 0 and config.dat_probe_steps:
            _probe_updates(model.probe, model.encoder.encode(frames), emotions,
                           config.dat_probe_steps, config.dat_probe_lr)
        if trace is not None:
            trace.append({
                "step": i,
                "total": float(total.data),
                "recon": float(loss_recon.data),
                "dsm": float(loss_dsm.data),
                "dat": float(loss_dat.data),
                "grad_norm": grad_norm,
            })
    return Checkpoint(model=model, train_config=config,
                      world_hash=world_hash(world), step=config.steps)


def _neutral_styles(world: World, model: Model, speakers: np.ndarray,
                    ref_len: int, rng: np.random.Generator) -> np.ndarray:
    """Styles from fresh Neutral references, the only reference material the
    zero-shot protocol allows."""
    ref_tokens = rng.integers(0, world.vocab, size=(speakers.size, ref_len))
    refs = sample_utterance_batch(world, speakers,
                                  np.full(speakers.size, NEUTRAL, dtype=np.int64),
                                  ref_tokens, rng)
    return model.encoder.encode(refs)


def train_noisy_classifier(world: World, split: SpeakerSplit, model: Model,
                           config: TrainConfig, emotions=None,
                           trace: list | None = None) -> NoisyClassifier:
    """Train p(e | Y_t) on world data perturbed toward the model's null-path
    prior mean, mirroring what classifier-guided sampling sees.

    Trained after and separately from the main model: only the classifier
    store is updated.
    """
    emotion_ids = list(range(world.n_emotions)) if emotions is None else sorted(set(emotions))
    if len(emotion_ids) < 2:
        raise TrainingError("noisy classifier needs at least two emotion classes")
    clf = model.noisy_clf
    schedule = model.schedule
    rng = np.random.default_rng([config.seed, 0xC1F])
    seen = np.array(split.seen, dtype=np.int64)
    emotion_arr = np.array(emotion_ids, dtype=np.int64)
    for i in range(config.clf_steps):
        speakers = rng.choice(seen, size=config.clf_batch)
        labels = rng.choice(emotion_arr, size=config.clf_batch)
        tokens = rng.integers(0, world.vocab, size=(config.clf_batch, config.utt_len))
        y0 = sample_utterance_batch(world, speakers, labels, tokens, rng)
        styles = _neutral_styles(world, model, speakers, config.utt_len, rng)
        e_null = model.table.params["emb"].data[
            np.full(config.clf_batch, model.table.null_index)]
        mu_null = model.generator.generate(tokens, styles, e_null)
        t = rng.uniform(schedule.t_min, schedule.T, size=config.clf_batch)
        rho = schedule.rho(t)[:, None, None]
        sd = np.sqrt(schedule.var(t))[:, None, None]
        y_t = mu_null + (y0 - mu_null) * rho + sd * rng.standard_normal(y0.shape)
        logits = clf.logits_t(Tensor(y_t), t)
        loss = ad.softmax_cross_entropy(logits, labels)
        clf.params.zero_grad()
        loss.backward()
        sgd_update([clf.params], config.clf_lr, config.clip_norm)
        if trace is not None:
            trace.append({"step": i, "clf_loss": float(loss.data)})
    return clf


def noisy_classifier_accuracy(world: World, model: Model, speakers, t: float,
                              n: int, utt_len: int, seed) -> float:
    """Accuracy on freshly perturbed held-out utterances at a fixed t."""
    rng = np.random.default_rng(seed)
    speakers = np.asarray(speakers, dtype=np.int64)
    spk = rng.choice(speakers, size=n)
    labels = rng.integers(0, world.n_emotions, size=n)
    tokens = rng.integers(0, world.vocab, size=(n, utt_len))
    y0 = sample_utterance_batch(world, spk, labels, tokens, rng)
    styles = _neutral_styles(world, model, spk, utt_len, rng)
    e_null = model.table.params["emb"].data[np.full(n, model.table.null_index)]
    mu_null = model.generator.generate(tokens, styles, e_null)
    rho = float(model.schedule.rho(t))
    sd = float(np.sqrt(model.schedule.var(t)))
    y_t = mu_null + (y0 - mu_null) * rho + sd * rng.standard_normal(y0.shape)
    pred = model.noisy_clf.posterior(y_t, np.full(n, t)).argmax(axis=-1)
    return float((pred == labels).mean())
