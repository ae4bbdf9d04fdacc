"""Training orchestration: DAT mechanics, determinism, the noisy classifier."""

import numpy as np
import pytest

import melworld as mw
from melworld import autodiff as ad
from melworld import cli
from melworld import config as cfg
from melworld.autodiff import Tensor
from melworld.config import ConfigError
from melworld.metrics import generate_eval_samples
from melworld.stylegen import StyleEncoder
from melworld.diffusion import perturb
from melworld.training import (
    EmotionProbeHead,
    TrainingError,
    _null_path_batch,
    dat_loss_t,
    sgd_update,
)
from melworld.world import WorldConfig, sample_utterance_batch


@pytest.fixture(scope="module")
def world():
    return mw.make_world(WorldConfig(), seed=7)


@pytest.fixture(scope="module")
def split(world):
    return mw.split_speakers(world, 6, seed=0)


def small_config(**kw):
    base = dict(steps=50, batch_size=8, dat_probe_steps=2, clf_steps=50, utt_len=4)
    base.update(kw)
    return mw.TrainConfig(**base)


# ---------------------------------------------------------------------------
# the DAT step: the adversarial term of train_model's joint step


def dat_grads(encoder, probe, frames, labels, alpha):
    """Loss and gradient norms of the adversarial term alone, taken the way
    the joint step takes them (the style from the encoder's graph path)."""
    loss = dat_loss_t(probe, encoder.encode_t(Tensor(frames)), labels, alpha)
    encoder.params.zero_grad()
    probe.params.zero_grad()
    loss.backward()
    return {
        "loss_e": float(loss.data),
        "probe_grad_norm": float(np.sqrt(probe.params.grad_sq_norm())),
        "encoder_grad_norm": float(np.sqrt(encoder.params.grad_sq_norm())),
    }


def test_dat_step_alpha_scaling(world):
    encoder = mw.StyleEncoder(world.frame_dim, mw.ModelConfig(seed=1))
    probe = EmotionProbeHead(16, world.n_emotions, seed=2)
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((6, 4, world.frame_dim))
    labels = rng.integers(0, world.n_emotions, size=6)
    tiny = dat_grads(encoder, probe, frames, labels, alpha=1e-9)
    unit = dat_grads(encoder, probe, frames, labels, alpha=1.0)
    assert tiny["encoder_grad_norm"] < 1e-6 * unit["encoder_grad_norm"]
    # probe gradient is unaffected by alpha
    assert tiny["probe_grad_norm"] == pytest.approx(unit["probe_grad_norm"], rel=1e-12)


def test_dat_step_encoder_grad_is_minus_alpha_times_plain(world):
    # hand-checkable single-layer instance
    encoder = mw.StyleEncoder(world.frame_dim,
                              mw.ModelConfig(style_dim=4, hidden=8, n_hidden=0, seed=3))
    probe = EmotionProbeHead(4, world.n_emotions, seed=4)
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((3, 2, world.frame_dim))
    labels = np.array([0, 1, 2])

    def plain_encoder_grads():
        style = encoder.encode_t(Tensor(frames))
        loss = ad.softmax_cross_entropy(probe.logits_t(style), labels)
        encoder.params.zero_grad()
        probe.params.zero_grad()
        loss.backward()
        return {k: t.grad.copy() for k, t in encoder.params.tensors().items()}

    plain = plain_encoder_grads()
    for alpha in (0.25, 1.0, 4.0):
        dat_grads(encoder, probe, frames, labels, alpha=alpha)
        for name, tensor in encoder.params.tensors().items():
            assert np.array_equal(tensor.grad, -alpha * plain[name])


def test_dat_step_probe_descends(world):
    encoder = mw.StyleEncoder(world.frame_dim, mw.ModelConfig(seed=5))
    probe = EmotionProbeHead(16, world.n_emotions, seed=6)
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((8, 3, world.frame_dim))
    labels = rng.integers(0, world.n_emotions, size=8)
    style = encoder.encode(frames)
    first = None
    for _ in range(5):
        loss = ad.softmax_cross_entropy(probe.logits_t(Tensor(style)), labels)
        if first is None:
            first = float(loss.data)
        probe.params.zero_grad()
        loss.backward()
        sgd_update([probe.params], 0.05)
    final = float(ad.softmax_cross_entropy(probe.logits_t(Tensor(style)), labels).data)
    assert final < first


def test_dat_sign_property(world):
    # a step on L_e alone moves the encoder uphill and the probe downhill
    encoder = mw.StyleEncoder(world.frame_dim, mw.ModelConfig(seed=7))
    probe = EmotionProbeHead(16, world.n_emotions, seed=8)
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((16, 4, world.frame_dim))
    labels = rng.integers(0, world.n_emotions, size=16)

    def loss_value():
        return float(dat_loss_t(probe, encoder.encode_t(Tensor(frames)), labels, 1.0).data)

    before = loss_value()
    # encoder-only update from the reversed loss
    record = dat_grads(encoder, probe, frames, labels, alpha=1.0)
    assert record["loss_e"] == pytest.approx(before)
    for tensor in encoder.params.tensors().values():
        tensor.data = tensor.data - 0.01 * tensor.grad
    after_encoder_step = loss_value()
    assert after_encoder_step > before  # encoder ascends

    probe.params.zero_grad()
    encoder.params.zero_grad()
    dat_loss_t(probe, encoder.encode_t(Tensor(frames)), labels, 1.0).backward()
    for tensor in probe.params.tensors().values():
        tensor.data = tensor.data - 0.01 * tensor.grad
    assert loss_value() < after_encoder_step  # probe descends


# ---------------------------------------------------------------------------
# train_model


def test_train_zero_steps_equals_init(world, split):
    config = small_config(steps=0)
    ckpt = mw.train_model(world, split, config)
    fresh = mw.build_model(world, mw.ModelConfig())
    for name, store in ckpt.model.stores().items():
        for pname, tensor in store.tensors().items():
            assert np.array_equal(tensor.data, fresh.stores()[name][pname].data)


def test_train_deterministic(world, split):
    config = small_config(steps=30)
    a = mw.train_model(world, split, config)
    b = mw.train_model(world, split, config)
    assert a.to_bytes() == b.to_bytes()


def test_train_records_trace(world, split):
    trace = []
    mw.train_model(world, split, small_config(steps=10), trace=trace)
    assert len(trace) == 10
    assert {"step", "total", "recon", "dsm", "dat", "grad_norm"} <= set(trace[0])


def test_train_rejects_empty_split(world):
    empty = mw.SpeakerSplit(seen=(), unseen=tuple(range(world.n_speakers)))
    with pytest.raises(TrainingError):
        mw.train_model(world, empty, small_config())


def test_null_row_gradient_tracks_dropout(world, split):
    # with p_null > 0 the null row moves over training; with p_null = 0 it
    # stays bitwise at initialization
    moved = mw.train_model(world, split, small_config(steps=60, p_null=0.5, seed=3))
    frozen = mw.train_model(world, split, small_config(steps=60, p_null=0.0, seed=3))
    init = mw.build_model(world, mw.ModelConfig())
    null_idx = init.table.null_index
    init_row = init.table.params["emb"].data[null_idx]
    assert not np.array_equal(moved.model.table.params["emb"].data[null_idx], init_row)
    assert np.array_equal(frozen.model.table.params["emb"].data[null_idx], init_row)


def test_null_rows_leave_encoder_untouched(world, split):
    # a null-dropped row has no emotion label, so its reconstruction and DSM
    # gradients must not reach the encoder; with w_dat=0 and every row null
    # nothing else does
    config = small_config(steps=1, w_dat=0.0, p_null=1.0 - 1e-12)
    trained = mw.train_model(world, split, config).model
    init = mw.build_model(world, mw.ModelConfig())
    for name, tensor in trained.encoder.params.tensors().items():
        assert np.array_equal(tensor.data, init.encoder.params[name].data)
    assert not np.array_equal(trained.generator.params["net.w0"].data,
                              init.generator.params["net.w0"].data)


def test_probe_only_divergence_reports_its_step(world, split):
    # the adversary alone diverges, in the probe-only updates after the
    # finite joint step 0
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match=r"divergence at step 0: non-finite values in node 'probe\.net"):
        mw.train_model(world, split, small_config(steps=3, dat_probe_steps=5,
                                                  dat_probe_lr=1e308))


def test_probe_cross_entropy_overflow_reports_its_step(world, split):
    # every layer of the probe stays finite, but its logits span more than
    # the float range, so the cross-entropy of the first probe-only update
    # is infinite: that update names the probe, not a later joint step
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match=r"divergence at step 0: .*'probe\.net cross-entropy'"):
        mw.train_model(world, split, small_config(steps=3, dat_probe_steps=5,
                                                  dat_probe_lr=1e307))


def count_tensors(monkeypatch) -> list:
    """A list that gains one entry per Tensor built from here on."""
    made, init = [], Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return made


def test_joint_step_tensor_count(world, split, monkeypatch):
    # one joint step's graph: each of the two score-net calls (dsm and
    # dsm_null) is one node, where its chain of two MLP nodes, sub,
    # reshape, mul, add, mul and three constants took 10 Tensors (55 a step
    # before); the generator's MLP node takes five Tensors fewer than the
    # reshape/broadcast/concat chain before it, and no constant holds the
    # null embedding
    made = count_tensors(monkeypatch)
    counts = []
    for steps in (1, 2):
        made.clear()
        mw.train_model(world, split, small_config(steps=steps))
        counts.append(len(made))
    assert counts[1] - counts[0] == 37


def test_probe_updates_match_reencoding_every_update(world):
    # the graph-free probe-only updates on a style encoded once equal, bit
    # for bit, graph updates that re-encode the frames every time (the
    # reference), and leave the encoder untouched
    encoder = StyleEncoder(world.frame_dim, mw.ModelConfig(seed=1))
    rng = np.random.default_rng(0)
    labels = rng.integers(0, world.n_emotions, size=8)
    frames = sample_utterance_batch(world, rng.integers(0, 6, size=8), labels,
                                    rng.integers(0, world.vocab, size=(8, 4)), rng)
    encoder_before = encoder.params.state_dict()
    hoisted = EmotionProbeHead(16, world.n_emotions, seed=2)
    style = encoder.encode(frames)
    for _ in range(5):
        hoisted.descend(style, labels, 0.05)
    for name, tensor in encoder.params.tensors().items():
        assert np.array_equal(tensor.data, encoder_before[name])
        assert tensor.grad is None
    reencoded = EmotionProbeHead(16, world.n_emotions, seed=2)
    for _ in range(5):
        style = encoder.encode_t(Tensor(frames))
        loss = ad.softmax_cross_entropy(reencoded.logits_t(style), labels)
        reencoded.params.zero_grad()
        loss.backward()
        encoder.params.zero_grad()
        sgd_update([reencoded.params], 0.05)
    for name, tensor in hoisted.params.tensors().items():
        assert tensor.data.tobytes() == reencoded.params[name].data.tobytes(), name
        assert tensor.grad is None
    assert not np.array_equal(hoisted.params["net.w0"].data,
                              EmotionProbeHead(16, world.n_emotions, seed=2).params["net.w0"].data)


# the logged L_e of the w_dat = 0 run below, as the probe's graph path gave
# it inside the joint graph (a zero-weighted term) before the probe left it
_NO_DAT_LOSS_E = [
    "0x1.7dcd80477cc16p+0", "0x1.a100dbd2c9136p+0", "0x1.96405a7cdc98ep+0",
    "0x1.8ae61a74044aap+0", "0x1.8a3fc190eb15cp+0", "0x1.b9a6063e5bd5cp+0",
    "0x1.afda9150100a3p+0", "0x1.96ad4924de118p+0", "0x1.67e55ee9d42eap+0",
    "0x1.8679e64cddec6p+0", "0x1.7cffdbe26d8cep+0", "0x1.b225a56423902p+0",
]


def test_no_dat_trains_no_adversary(world, split):
    # at w_dat = 0 nothing reads the probe: it stays out of the joint graph,
    # so no backward reaches it, and the probe-only updates do not run, so
    # their count leaves every store bitwise unchanged
    none = mw.train_model(world, split, small_config(steps=12, w_dat=0.0, dat_probe_steps=0,
                                                     dat_probe_reinit=5))
    trace = []
    three = mw.train_model(world, split, small_config(steps=12, w_dat=0.0, dat_probe_steps=3,
                                                      dat_probe_reinit=5), trace=trace)
    a, b = none.model.stores(), three.model.stores()
    assert len(a) == 6
    for name, store in a.items():
        other = b[name].state_dict()
        for pname, value in store.state_dict().items():
            assert np.array_equal(value, other[pname]), f"{name}.{pname}"
    for name, tensor in three.model.probe.params.tensors().items():
        assert tensor.grad is None, name
    assert [record["dat"].hex() for record in trace] == _NO_DAT_LOSS_E


# the probe-only updates read a graph-free encode, so the joint graph's is
# the one encode_t per step at either weight
@pytest.mark.parametrize("w_dat, per_step", [(0.5, 1), (0.0, 1)])
def test_style_encoded_at_most_twice_per_step(world, split, monkeypatch, w_dat, per_step):
    calls = []
    encode_t = StyleEncoder.encode_t

    def counting(self, frames):
        calls.append(1)
        return encode_t(self, frames)

    monkeypatch.setattr(StyleEncoder, "encode_t", counting)
    mw.train_model(world, split, small_config(steps=4, w_dat=w_dat, dat_probe_steps=5))
    assert len(calls) == per_step * 4


def test_config_validation():
    with pytest.raises(TrainingError):
        mw.TrainConfig(p_null=1.0)
    with pytest.raises(TrainingError):
        mw.TrainConfig(alpha=0.0)
    with pytest.raises(TrainingError):
        mw.TrainConfig(w_dat=-0.1)
    for field in ("alpha", "lr", "clf_lr", "dat_probe_lr", "clip_norm"):
        for bad in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(TrainingError, match=f"^{field} must be finite and > 0"):
                mw.TrainConfig(**{field: bad})
    for field in ("w_recon", "w_dsm", "w_dat"):
        for bad in (np.nan, np.inf):
            with pytest.raises(TrainingError, match="loss weights"):
                mw.TrainConfig(**{field: bad})
    for field in ("batch_size", "clf_batch", "utt_len"):
        with pytest.raises(TrainingError, match=field):
            mw.TrainConfig(**{field: 0})
    for field in ("steps", "clf_steps", "dat_probe_steps", "dat_probe_reinit"):
        with pytest.raises(TrainingError, match=field):
            mw.TrainConfig(**{field: -1})
    for field in ("style_dim", "emotion_dim", "token_dim", "hidden", "clf_hidden"):
        with pytest.raises(TrainingError, match=field):
            mw.ModelConfig(**{field: 0})
    with pytest.raises(TrainingError, match="n_hidden"):
        mw.ModelConfig(n_hidden=-1)
    mw.ModelConfig(n_hidden=0)
    # eval and sweep check their sizes before they look at the world or the checkpoint
    for key in ("n_scripts", "n_samples", "script_len"):
        with pytest.raises(ConfigError, match=f"eval.{key}"):
            cli._eval_cell(cli.Run(cfg.resolve(None, [f"eval.{key}=0"]), world=None,
                                     ckpt=None, dir=None))


# ---------------------------------------------------------------------------
# noisy classifier


@pytest.fixture(scope="module")
def clf_setup(world, split):
    model = mw.build_model(world, mw.ModelConfig())
    config = mw.TrainConfig(clf_steps=1500, clf_batch=32, utt_len=8)
    mw.train_noisy_classifier(world, split, model, config)
    return model


def noisy_classifier_accuracy(world, model, speakers, t: float, n: int, utt_len: int,
                              seed) -> float:
    """Accuracy on freshly perturbed held-out utterances at a fixed t."""
    rng = np.random.default_rng(seed)
    spk = rng.choice(np.asarray(speakers, dtype=np.int64), size=n)
    labels = rng.integers(0, world.n_emotions, size=n)
    tokens = rng.integers(0, world.vocab, size=(n, utt_len))
    y0, mu_null = _null_path_batch(world, model, spk, labels, tokens, rng)
    t_rows = np.full(n, t)
    y_t, _ = perturb(y0, mu_null, t_rows, model.schedule, rng)
    pred = model.noisy_clf.posterior(y_t, t_rows).argmax(axis=-1)
    return float((pred == labels).mean())


def test_noisy_classifier_accurate_near_clean_data(world, split, clf_setup):
    acc = noisy_classifier_accuracy(world, clf_setup, split.seen, t=0.05,
                                    n=500, utt_len=8, seed=1)
    assert acc > 0.9


def test_noisy_classifier_chance_at_terminal_time(world, split, clf_setup):
    acc = noisy_classifier_accuracy(world, clf_setup, split.seen, t=0.999,
                                    n=1000, utt_len=8, seed=2)
    assert abs(acc - 1.0 / world.n_emotions) < 0.05


def test_noisy_classifier_outputs_distribution(world, clf_setup):
    rng = np.random.default_rng(4)
    y = rng.standard_normal((50, 8, world.frame_dim))
    post = clf_setup.noisy_clf.posterior(y, np.full(50, 0.3))
    assert np.abs(post.sum(axis=1) - 1.0).max() < 1e-12
    assert np.all(post >= 0)


def test_noisy_classifier_grad_matches_finite_differences(world, clf_setup):
    clf = clf_setup.noisy_clf
    rng = np.random.default_rng(5)
    y = rng.standard_normal((1, 4, world.frame_dim))
    t = 0.4
    grad, _ = clf.grad_log_prob(y, t, [2])
    eps = 1e-6
    num = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        yp, ym = y.copy(), y.copy()
        yp[idx] += eps
        ym[idx] -= eps
        num[idx] = (np.log(clf.posterior(yp, t)[0, 2])
                    - np.log(clf.posterior(ym, t)[0, 2])) / (2 * eps)
    assert np.abs(grad - num).max() < 1e-6


def test_noisy_classifier_rejects_bad_frames_and_targets(world, clf_setup):
    clf = clf_setup.noisy_clf
    y = np.zeros((3, 4, world.frame_dim))
    # the graph path's affine checked the frame width; the array paths must too
    for call in (clf.posterior, lambda y_t, t: clf.grad_log_prob(y_t, t, [0, 1, 2])):
        with pytest.raises(TrainingError, match=f"n, L, D={world.frame_dim}"):
            call(y[..., :-1], 0.4)
    with pytest.raises(TrainingError, match=r"shape \(3,\), got \(2,\)"):
        clf.grad_log_prob(y, 0.4, [0, 1])
    with pytest.raises(TrainingError, match=r"got \(\)"):
        clf.grad_log_prob(y, 0.4, 1)
    for bad in (-1, world.n_emotions):
        with pytest.raises(TrainingError, match=f"target {bad} out of range"):
            clf.grad_log_prob(y, 0.4, [0, bad, 1])


def test_classifier_guidance_leaves_classifier_parameters_alone(world, split, clf_setup,
                                                               clf_logits_t):
    # the CG step needs the gradient with respect to the frames only; it
    # equals the one taken with the parameters in the graph, bit for bit
    clf = clf_setup.noisy_clf
    clf.params.zero_grad()
    generate_eval_samples(clf_setup, world, split.unseen, "cg", 5.0, 8, seed=3, steps=4)
    for name, tensor in clf.params.tensors().items():
        assert tensor.grad is None, name
    y = np.random.default_rng(6).standard_normal((3, 4, world.frame_dim))
    t = np.full(3, 0.4)
    leaf = Tensor(y, requires_grad=True)
    ad.softmax_cross_entropy(clf_logits_t(clf, leaf, t), np.array([0, 2, 3])).backward()
    clf.params.zero_grad()
    grad, post = clf.grad_log_prob(y, t, [0, 2, 3])
    assert np.array_equal(grad, -3 * leaf.grad)
    assert np.array_equal(post, clf.posterior(y, t))


def _graph_classifier_steps(world, split, model, config, clf_logits_t):
    """train_noisy_classifier as it ran on the graph: the reference."""
    clf = model.noisy_clf
    rng = np.random.default_rng([config.seed, 0xC1F])
    seen = np.array(split.seen, dtype=np.int64)
    losses = []
    for _ in range(config.clf_steps):
        speakers = rng.choice(seen, size=config.clf_batch)
        labels = rng.choice(np.arange(world.n_emotions), size=config.clf_batch)
        tokens = rng.integers(0, world.vocab, size=(config.clf_batch, config.utt_len))
        y0, mu_null = _null_path_batch(world, model, speakers, labels, tokens, rng)
        t = rng.uniform(model.schedule.t_min, model.schedule.T, size=config.clf_batch)
        y_t, _ = perturb(y0, mu_null, t, model.schedule, rng)
        loss = ad.softmax_cross_entropy(clf_logits_t(clf, Tensor(y_t), t), labels)
        clf.params.zero_grad()
        loss.backward()
        sgd_update([clf.params], config.clf_lr, config.clip_norm)
        losses.append(float(loss.data))
    return losses


@pytest.mark.parametrize("clip_norm", [5.0, 0.05])
def test_noisy_classifier_training_is_bitwise_the_graph(world, split, clf_logits_t, clip_norm):
    # at clip_norm 0.05 every step clips
    config = small_config(clf_steps=60, clf_batch=16, clip_norm=clip_norm)
    graph, arrays = (mw.build_model(world, mw.ModelConfig()) for _ in range(2))
    reference = _graph_classifier_steps(world, split, graph, config, clf_logits_t)
    trace = []
    mw.train_noisy_classifier(world, split, arrays, config, trace=trace)
    assert [r["clf_loss"] for r in trace] == reference
    for name, tensor in graph.noisy_clf.params.tensors().items():
        assert tensor.data.tobytes() == arrays.noisy_clf.params[name].data.tobytes(), name


def test_training_rejects_utterances_longer_than_max_len(world, split):
    config = small_config(steps=1, clf_steps=1, utt_len=world.max_len + 1)
    match = f"train.utt_len {world.max_len + 1} exceeds the world's max_len {world.max_len}"
    with pytest.raises(TrainingError, match=match):
        mw.train_model(world, split, config)
    with pytest.raises(TrainingError, match=match):
        mw.train_noisy_classifier(world, split, mw.build_model(world), config)


def test_noisy_classifier_training_builds_no_graph(world, split, monkeypatch):
    model = mw.build_model(world, mw.ModelConfig())
    made = count_tensors(monkeypatch)
    mw.train_noisy_classifier(world, split, model, small_config(clf_steps=5))
    assert made == []


def test_noisy_classifier_divergence_reports_its_step(world, split):
    model = mw.build_model(world, mw.ModelConfig())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingError, match=r"divergence at step 2: .*'noisy_clf\.net cross-entropy'"):
        mw.train_noisy_classifier(world, split, model,
                                  small_config(clf_steps=5, clf_lr=1e307, clip_norm=1e300))
