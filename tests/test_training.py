"""Training orchestration: DAT mechanics, determinism, the noisy classifier."""

import numpy as np
import pytest

import melworld as mw
from melworld import autodiff as ad
from melworld.autodiff import Tensor
from melworld.metrics import generate_eval_samples
from melworld.stylegen import StyleEncoder
from melworld.training import (
    EmotionProbeHead,
    TrainingError,
    _probe_updates,
    dat_step,
    noisy_classifier_accuracy,
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
# dat_step


def test_dat_step_alpha_scaling(world):
    encoder = mw.StyleEncoder(world.frame_dim, seed=1)
    probe = EmotionProbeHead(16, world.n_emotions, seed=2)
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((6, 4, world.frame_dim))
    labels = rng.integers(0, world.n_emotions, size=6)
    tiny = dat_step(encoder, probe, frames, labels, alpha=1e-9, lr=0.0,
                    apply_update=False)
    unit = dat_step(encoder, probe, frames, labels, alpha=1.0, lr=0.0,
                    apply_update=False)
    assert tiny["encoder_grad_norm"] < 1e-6 * unit["encoder_grad_norm"]
    # probe gradient is unaffected by alpha
    assert tiny["probe_grad_norm"] == pytest.approx(unit["probe_grad_norm"], rel=1e-12)


def test_dat_step_encoder_grad_is_minus_alpha_times_plain(world):
    # hand-checkable single-layer instance
    encoder = mw.StyleEncoder(world.frame_dim, style_dim=4, hidden=8, n_hidden=0, seed=3)
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
        dat_step(encoder, probe, frames, labels, alpha=alpha, lr=0.0,
                 apply_update=False)
        for name, tensor in encoder.params.tensors().items():
            assert np.array_equal(tensor.grad, -alpha * plain[name])


def test_dat_step_probe_descends(world):
    encoder = mw.StyleEncoder(world.frame_dim, seed=5)
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


def test_dat_step_requires_labels(world):
    encoder = mw.StyleEncoder(world.frame_dim, seed=1)
    probe = EmotionProbeHead(16, world.n_emotions, seed=2)
    with pytest.raises(TrainingError):
        dat_step(encoder, probe, np.zeros((0, 2, world.frame_dim)), np.zeros(0),
                 alpha=1.0, lr=0.1)


def test_dat_sign_property(world):
    # a step on L_e alone moves the encoder uphill and the probe downhill
    encoder = mw.StyleEncoder(world.frame_dim, seed=7)
    probe = EmotionProbeHead(16, world.n_emotions, seed=8)
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((16, 4, world.frame_dim))
    labels = rng.integers(0, world.n_emotions, size=16)

    def loss_value():
        style = encoder.encode_t(Tensor(frames))
        return float(ad.softmax_cross_entropy(
            probe.logits_t(ad.grad_reverse(style, 1.0)), labels).data)

    before = loss_value()
    # encoder-only update from the reversed loss
    record = dat_step(encoder, probe, frames, labels, alpha=1.0, lr=0.0,
                      apply_update=False)
    assert record["loss_e"] == pytest.approx(before)
    for tensor in encoder.params.tensors().values():
        tensor.data = tensor.data - 0.01 * tensor.grad
    after_encoder_step = loss_value()
    assert after_encoder_step > before  # encoder ascends

    probe.params.zero_grad()
    encoder.params.zero_grad()
    style = encoder.encode_t(Tensor(frames))
    loss = ad.softmax_cross_entropy(probe.logits_t(ad.grad_reverse(style, 1.0)), labels)
    loss.backward()
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


def test_probe_updates_match_reencoding_every_update(world):
    # the probe-only updates on a style encoded once equal the updates that
    # re-encode the frames every time, and leave the encoder untouched
    encoder = StyleEncoder(world.frame_dim, seed=1)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, world.n_emotions, size=8)
    frames = sample_utterance_batch(world, rng.integers(0, 6, size=8), labels,
                                    rng.integers(0, world.vocab, size=(8, 4)), rng)
    encoder_before = encoder.params.state_dict()
    hoisted = EmotionProbeHead(16, world.n_emotions, seed=2)
    _probe_updates(hoisted, encoder.encode(frames), labels, 5, 0.05)
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
        assert np.array_equal(tensor.data, reencoded.params[name].data)
    assert not np.array_equal(hoisted.params["net.w0"].data,
                              EmotionProbeHead(16, world.n_emotions, seed=2).params["net.w0"].data)


def test_no_dat_trains_no_adversary(world, split):
    # at w_dat = 0 nothing reads the probe, so the probe-only updates do not
    # run: their count leaves every store bitwise unchanged
    none = mw.train_model(world, split, small_config(steps=12, w_dat=0.0, dat_probe_steps=0,
                                                     dat_probe_reinit=5))
    three = mw.train_model(world, split, small_config(steps=12, w_dat=0.0, dat_probe_steps=3,
                                                      dat_probe_reinit=5))
    a, b = none.model.stores(), three.model.stores()
    assert len(a) == 6
    for name, store in a.items():
        other = b[name].state_dict()
        for pname, value in store.state_dict().items():
            assert np.array_equal(value, other[pname]), f"{name}.{pname}"


@pytest.mark.parametrize("w_dat, per_step", [(0.5, 2), (0.0, 1)])
def test_style_encoded_at_most_twice_per_step(world, split, monkeypatch, w_dat, per_step):
    calls = []
    encode_t = StyleEncoder.encode_t

    def counting(self, frames):
        calls.append(1)
        return encode_t(self, frames)

    monkeypatch.setattr(StyleEncoder, "encode_t", counting)
    mw.train_model(world, split, small_config(steps=4, w_dat=w_dat, dat_probe_steps=5))
    assert len(calls) <= per_step * 4


def test_config_validation():
    with pytest.raises(TrainingError):
        mw.TrainConfig(p_null=1.0)
    with pytest.raises(TrainingError):
        mw.TrainConfig(alpha=0.0)
    with pytest.raises(TrainingError):
        mw.TrainConfig(w_dat=-0.1)
    for field in ("batch_size", "clf_batch", "utt_len"):
        with pytest.raises(TrainingError, match=field):
            mw.TrainConfig(**{field: 0})
    for field in ("steps", "clf_steps", "dat_probe_steps", "dat_probe_reinit"):
        with pytest.raises(TrainingError, match=field):
            mw.TrainConfig(**{field: -1})


# ---------------------------------------------------------------------------
# noisy classifier


@pytest.fixture(scope="module")
def clf_setup(world, split):
    model = mw.build_model(world, mw.ModelConfig())
    config = mw.TrainConfig(clf_steps=1500, clf_batch=32, utt_len=8)
    mw.train_noisy_classifier(world, split, model, config)
    return model


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


def test_noisy_classifier_rejects_single_class(world, split):
    model = mw.build_model(world, mw.ModelConfig())
    with pytest.raises(TrainingError):
        mw.train_noisy_classifier(world, split, model, small_config(), emotions=[1])


def test_noisy_classifier_grad_matches_finite_differences(world, clf_setup):
    clf = clf_setup.noisy_clf
    rng = np.random.default_rng(5)
    y = rng.standard_normal((4, world.frame_dim))
    t = 0.4
    grad, _ = clf.grad_log_prob(y, t, 2)
    eps = 1e-6
    num = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        yp, ym = y.copy(), y.copy()
        yp[idx] += eps
        ym[idx] -= eps
        num[idx] = (np.log(clf.posterior(yp, t)[2]) - np.log(clf.posterior(ym, t)[2])) / (2 * eps)
    assert np.abs(grad - num).max() < 1e-6


def test_classifier_guidance_leaves_classifier_parameters_alone(world, split, clf_setup):
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
    ad.softmax_cross_entropy(clf.logits_t(leaf, t), np.array([0, 2, 3])).backward()
    clf.params.zero_grad()
    grad, post = clf.grad_log_prob(y, t, [0, 2, 3])
    assert np.array_equal(grad, -3 * leaf.grad)
    assert np.array_equal(post, clf.posterior(y, t))
