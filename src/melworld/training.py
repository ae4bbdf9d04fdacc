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
from .autodiff import GraphError, MelworldError, ParamStore, Tensor
from .diffusion import (TIME_EMB_DIM, DiffusionError, NoiseSchedule, ScoreNet, dsm_loss_t,
                        perturb, time_embedding)
from .stylegen import EmotionTable, Generator, StyleEncoder
from .world import World, SpeakerSplit, neutral_references, sample_utterance_batch, world_hash


class TrainingError(MelworldError):
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
    beta0: float = NoiseSchedule.beta0  # noise schedule start
    beta1: float = NoiseSchedule.beta1  # noise schedule end
    t_final: float = NoiseSchedule.T  # terminal diffusion time
    t_min: float = NoiseSchedule.t_min  # lower time cutoff
    seed: int = 0  # parameter initialization seed

    def __post_init__(self):
        widths = (self.style_dim, self.emotion_dim, self.token_dim, self.hidden, self.clf_hidden)
        if min(widths) < 1 or self.n_hidden < 0:
            raise TrainingError("style_dim, emotion_dim, token_dim, hidden and clf_hidden "
                                "must be >= 1 and n_hidden >= 0")

    @property
    def schedule(self) -> NoiseSchedule:
        """The noise schedule of the four schedule fields."""
        return NoiseSchedule(self.beta0, self.beta1, self.t_final, self.t_min)


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
        for name in ("alpha", "lr", "clf_lr", "dat_probe_lr", "clip_norm"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise TrainingError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not all(0.0 <= w < np.inf for w in (self.w_recon, self.w_dsm, self.w_dat)):
            raise TrainingError("loss weights must be finite and nonnegative")
        if min(self.batch_size, self.clf_batch, self.utt_len) < 1:
            raise TrainingError("batch_size, clf_batch and utt_len must be >= 1")
        if min(self.steps, self.clf_steps, self.dat_probe_steps, self.dat_probe_reinit) < 0:
            raise TrainingError("steps, clf_steps, dat_probe_steps and dat_probe_reinit "
                                "must be nonnegative")


# hidden width of the DAT probe
_PROBE_HIDDEN = 32


class EmotionProbeHead:
    """Softmax probe over the style vector; the DAT adversary."""

    def __init__(self, style_dim: int, n_emotions: int, seed: int = 0):
        self.params = ParamStore(seed, "probe")
        ad.mlp_init(self.params, "net", [style_dim, _PROBE_HIDDEN, n_emotions])

    def logits_t(self, style: Tensor) -> Tensor:
        return ad.mlp_apply(self.params, "net", [style])

    def logits(self, style) -> np.ndarray:
        return ad.mlp_eval(self.params, "net", [np.asarray(style, dtype=np.float64)])

    def posterior(self, style) -> np.ndarray:
        return np_softmax(self.logits(style), axis=-1)

    def descend(self, style: np.ndarray, labels, lr: float) -> float:
        """One SGD step of the probe alone at a constant style (:func:`_descend`)."""
        return _descend(self.params, [style], labels, lr, None)


def _descend(store: ParamStore, blocks: list, labels, lr: float,
             clip_norm: float | None) -> float:
    """One graph-free SGD step of ``store``'s softmax classifier MLP "net" on
    its mean cross-entropy, which it returns; bitwise the graph's step, with
    ``sgd_update`` when it clips. ``GraphError`` if a layer or the loss is
    not finite."""
    layers = []
    logits = ad.mlp_eval(store, "net", blocks, layers, check=True)
    _, delta, loss = ad.softmax_ce_parts(logits, labels)
    if not np.isfinite(loss):
        raise GraphError(f"non-finite values in node '{store.name}.net cross-entropy'")
    _, grads = ad.mlp_backward(store, "net", layers, (1.0 / len(delta)) * delta,
                               input_grad=False)
    if clip_norm is None:
        for name, grad in grads.items():
            store[name].data = store[name].data - lr * grad
    else:
        store.zero_grad()
        for name, grad in grads.items():
            store[name]._accumulate(grad)
        sgd_update([store], lr, clip_norm)
    return loss


class NoisyClassifier:
    """Emotion classifier on noisy frames: concat(row-pooled mean, time embedding).

    Pooling keeps p(e | Y_t) a single distribution per utterance. Training
    (:func:`train_noisy_classifier`) and guidance, forward and backward, run
    on the parameters' arrays, with no graph.
    """

    def __init__(self, frame_dim: int, n_emotions: int, config: ModelConfig):
        self.frame_dim = frame_dim
        self.n_emotions = n_emotions
        self.params = ParamStore(config.seed, "noisy_clf")
        ad.mlp_init(self.params, "net", [frame_dim + TIME_EMB_DIM]
                    + [config.clf_hidden] * config.n_hidden + [n_emotions])

    def _input(self, y_t: np.ndarray, t, x: np.ndarray | None = None) -> list:
        """The MLP's input block (``x`` if given): the pooled frames, then the time embedding."""
        if y_t.ndim != 3 or y_t.shape[-1] != self.frame_dim:
            raise TrainingError(f"expected frames (n, L, D={self.frame_dim}), got {y_t.shape}")
        x = np.empty((len(y_t), self.frame_dim + TIME_EMB_DIM)) if x is None else x
        np.mean(y_t, axis=-2, out=x[:, :self.frame_dim])
        x[:, self.frame_dim:] = time_embedding(t)
        return [x]

    def posterior(self, y_t, t) -> np.ndarray:
        x = self._input(np.asarray(y_t, dtype=np.float64), t)
        return np_softmax(ad.mlp_eval(self.params, "net", x), axis=-1)

    def bind(self, target):
        """``grad(y_t, t)``: the gradient of log p(target | Y_t), one target per row, with
        respect to a float64 Y_t (n, L, D), as one row per utterance (n, 1, D), and the
        posterior p(. | Y_t). The targets are range-checked once; the row indices and the
        MLP input are kept. One forward pass and a hand-written backward on the
        parameters' arrays: the graph's ``softmax_cross_entropy`` and its backward
        (:func:`~melworld.autodiff.softmax_ce_parts`), bitwise, less the loss value."""
        target = np.asarray(target, dtype=np.int64)
        bad = target[(target < 0) | (target >= self.n_emotions)]
        if bad.size:
            raise TrainingError(f"target {bad[0]} out of range [0, {self.n_emotions})")
        n = target.size
        rows, x = np.arange(n), np.empty((n, self.frame_dim + TIME_EMB_DIM))

        def grad(y_t, t):
            if y_t.ndim == 3 and target.shape != y_t.shape[:1]:
                raise TrainingError(f"expected targets of shape ({len(y_t)},), got {target.shape}")
            layers = []
            logits = ad.mlp_eval(self.params, "net", self._input(y_t, t, x), layers)
            posterior, delta, _ = ad.softmax_ce_parts(logits, target, rows)
            g, _ = ad.mlp_backward(self.params, "net", layers, (1.0 / n) * delta, param_grads=False)
            return -n * (g[:, None, :self.frame_dim] / y_t.shape[1]), posterior

        return grad

    def grad_log_prob(self, y_t, t, target) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`bind`'s gradient at ``target`` for one Y_t, broadcast to its shape."""
        y_t = np.asarray(y_t, dtype=np.float64)
        g, posterior = self.bind(target)(y_t, t)
        return np.broadcast_to(g, y_t.shape), posterior


@dataclass
class Model:
    """All trainable components plus the noise schedule they were built for."""

    config: ModelConfig
    encoder: StyleEncoder
    table: EmotionTable
    generator: Generator
    scorenet: ScoreNet
    probe: EmotionProbeHead
    noisy_clf: NoisyClassifier
    schedule: NoiseSchedule

    def stores(self) -> dict[str, ParamStore]:
        return {c.params.name: c.params for c in (self.encoder, self.table, self.generator,
                                                  self.scorenet, self.probe, self.noisy_clf)}


def build_model(world: World, config: ModelConfig = ModelConfig()) -> Model:
    """Fresh components for ``world``; only its ``frame_dim``, ``vocab`` and
    ``n_emotions`` are read, so a checkpoint's stored dims serve as well."""
    return Model(
        config=config,
        encoder=StyleEncoder(world.frame_dim, config),
        table=EmotionTable(world.n_emotions, config),
        generator=Generator(world.vocab, world.frame_dim, config),
        scorenet=ScoreNet(world.frame_dim, config),
        probe=EmotionProbeHead(config.style_dim, world.n_emotions, seed=config.seed),
        noisy_clf=NoisyClassifier(world.frame_dim, world.n_emotions, config),
        schedule=config.schedule,
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


def dat_loss_t(probe: EmotionProbeHead, style: Tensor, labels, alpha: float) -> Tensor:
    """L_e, the probe's cross-entropy on the style behind a gradient-reversal
    node: the probe receives the standard gradient and the style -alpha
    times it."""
    return ad.softmax_cross_entropy(probe.logits_t(ad.grad_reverse(style, alpha)), labels)


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
                "frame_dim": self.model.encoder.frame_dim,
                "vocab": self.model.generator.vocab,
                "n_emotions": self.model.table.n_emotions,
            },
            "world_hash": self.world_hash,
            "step": self.step,
        }
        return ckpt_io.dump_stores(self.model.stores(), meta)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint":
        """The checkpoint in ``raw``; ``CheckpointError`` unless its metadata
        (keys, value types, ranges) and stores are those ``to_bytes`` writes."""
        states, seeds, meta = ckpt_io.load_stores(raw)
        _check_keys("metadata", meta, ("model_config", "train_config", "dims", "world_hash",
                                       "step", "stores"))
        dims = _check_keys("dims", meta["dims"], dict(frame_dim=1, vocab=1, n_emotions=1), 1)
        step = _check_keys("step", {"step": meta["step"]}, {"step": 0}, 0)["step"]
        try:
            mc = ModelConfig(**_check_keys("model_config", meta["model_config"],
                                           asdict(ModelConfig())))
            tc = TrainConfig(**_check_keys("train_config", meta["train_config"],
                                           asdict(TrainConfig())))
            model = build_model(SimpleNamespace(**dims), mc)
        except (TrainingError, DiffusionError) as exc:
            raise ckpt_io.CheckpointError(f"checkpoint config: {exc}") from exc
        _check_keys("store table", states, tuple(model.stores()))
        for name, store in model.stores().items():
            try:
                store.load_state_dict(states[name])
            except ValueError as exc:
                raise ckpt_io.CheckpointError(f"checkpoint store '{name}': {exc}") from exc
            # a reinitialised probe was built from a seed of its own
            store.seed = seeds[name]
        return cls(model=model, train_config=tc, world_hash=meta["world_hash"], step=step)


def _check_keys(what: str, value, names, minimum=-np.inf) -> dict:
    """``value``, which must be a mapping with exactly the keys ``names``; where
    ``names`` maps them to defaults, a number of each default's kind (an int,
    or a finite int or float) and at least ``minimum``."""
    if not isinstance(value, dict) or set(value) != set(names):
        raise ckpt_io.CheckpointError(f"checkpoint {what} keys differ from {sorted(names)}")
    for key, default in (names.items() if isinstance(names, dict) else ()):
        v = value[key]
        kind = int if isinstance(default, int) else (int, float)
        if isinstance(v, bool) or not isinstance(v, kind) or not minimum <= v < np.inf:
            raise ckpt_io.CheckpointError(f"checkpoint {what} value {key}={v!r} is out of "
                                          f"range or not a finite {type(default).__name__}")
    return value


def _detach_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Same values as ``x``; rows where ``mask`` is set pass no gradient."""
    keep = (~np.asarray(mask, dtype=bool)).astype(np.float64)[:, None]
    return ad.add(ad.mul(x, keep), Tensor(x.data * (1.0 - keep)))


def _seen_speakers(world: World, split: SpeakerSplit, config: TrainConfig) -> np.ndarray:
    """The split's seen speakers, after checking that it has some and that training
    utterances fit the world's max_len."""
    if not split.seen:
        raise TrainingError("split has no seen speakers")
    if config.utt_len > world.max_len:
        raise TrainingError(f"train.utt_len {config.utt_len} exceeds the world's max_len "
                            f"{world.max_len}")
    return np.array(split.seen, dtype=np.int64)


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
    reads the adversary: L_e is logged from the probe's graph-free logits,
    outside the joint graph, and the probe-only updates do not run.
    """
    seen = _seen_speakers(world, split, config)
    model = build_model(world, model_config)
    rng = np.random.default_rng(config.seed)
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
            style = model.encoder.encode_t(frames)
            e_idx = model.table.row_indices(emotions, null_mask)
            e_emb = model.table.embed_t(e_idx)
            mu = model.generator.generate_t(tokens, _detach_rows(style, null_mask), e_emb)
            loss_recon = ad.mse(mu, frames)
            loss_dsm = dsm_loss_t(model.scorenet, frames, mu.data, style.data, e_emb,
                                  model.schedule, rng)
            e_null = model.table.embed_null(config.batch_size)
            mu_null = model.generator.generate(tokens, style.data, e_null)
            loss_dsm = ad.add(loss_dsm, dsm_loss_t(model.scorenet, frames, mu_null, style.data,
                                                   e_null, model.schedule, rng))
            # at w_dat = 0, L_e is a constant: logged, outside the joint graph
            loss_dat = (dat_loss_t(model.probe, style, emotions, config.alpha) if config.w_dat
                        else ad.softmax_cross_entropy(Tensor(model.probe.logits(style.data)),
                                                      emotions))
            total = ad.add(ad.add(ad.mul(loss_recon, config.w_recon),
                                  ad.mul(loss_dsm, config.w_dsm)),
                           ad.mul(loss_dat, config.w_dat))
            for store in stores:
                store.zero_grad()
            total.backward()
            grad_norm = sgd_update(stores, config.lr, config.clip_norm)
            if config.w_dat > 0 and config.dat_probe_steps:
                style_after = model.encoder.encode(frames)
                for _ in range(config.dat_probe_steps):
                    model.probe.descend(style_after, emotions, config.dat_probe_lr)
        except GraphError as exc:
            raise TrainingError(f"divergence at step {i}: {exc}") from exc
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


def _null_path_batch(world: World, model: Model, speakers, labels, tokens,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Clean frames of (speaker, label, tokens) rows and the null-path prior
    mean that classifier-guided sampling builds for them from a fresh
    Neutral reference of the same speaker."""
    n, length = tokens.shape
    y0 = sample_utterance_batch(world, speakers, labels, tokens, rng)
    refs = neutral_references(world, speakers, length, rng)
    return y0, model.generator.generate(tokens, model.encoder.encode(refs),
                                        model.table.embed_null(n))


def train_noisy_classifier(world: World, split: SpeakerSplit, model: Model,
                           config: TrainConfig, trace: list | None = None) -> NoisyClassifier:
    """Train p(e | Y_t) on world data perturbed toward the model's null-path
    prior mean, mirroring what classifier-guided sampling sees.

    Trained after and separately from the main model, with no graph: only
    the classifier store is updated.
    """
    seen = _seen_speakers(world, split, config)
    clf = model.noisy_clf
    schedule = model.schedule
    rng = np.random.default_rng([config.seed, 0xC1F])
    for i in range(config.clf_steps):
        speakers = rng.choice(seen, size=config.clf_batch)
        labels = rng.choice(np.arange(world.n_emotions), size=config.clf_batch)
        tokens = rng.integers(0, world.vocab, size=(config.clf_batch, config.utt_len))
        y0, mu_null = _null_path_batch(world, model, speakers, labels, tokens, rng)
        t = rng.uniform(schedule.t_min, schedule.T, size=config.clf_batch)
        y_t, _ = perturb(y0, mu_null, t, schedule, rng)
        try:
            loss = _descend(clf.params, clf._input(y_t, t), labels, config.clf_lr,
                            config.clip_norm)
        except GraphError as exc:
            raise TrainingError(f"divergence at step {i}: {exc}") from exc
        if trace is not None:
            trace.append({"step": i, "clf_loss": loss})
    return clf
