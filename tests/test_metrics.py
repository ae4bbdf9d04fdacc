"""Evaluation metrics: oracle accuracy, similarity, content error, probe,
and the sweep protocol."""

import numpy as np
import pytest

import melworld as mw
from melworld import autodiff as ad
from melworld import metrics as mx
from melworld.autodiff import Tensor
from melworld.metrics import (
    EvalError,
    EvalSample,
    collect_style_vectors,
    evaluate_cell,
    guidance_sweep,
    make_scripts,
    styles_tsv,
    sweep_csv,
)
from melworld.training import EmotionProbeHead, sgd_update
from melworld.world import WorldConfig, sample_utterance_batch, utterance_mean


@pytest.fixture(scope="module")
def world():
    return mw.make_world(WorldConfig(), seed=7)


def make_sample(world, speaker, emotion, tokens, target=None, seed=0):
    frames = sample_utterance_batch(world, [speaker], [emotion], [tokens],
                                    np.random.default_rng(seed))[0]
    return EvalSample(frames=frames,
                      target_emotion=emotion if target is None else target,
                      speaker=speaker, tokens=np.asarray(tokens))


# ---------------------------------------------------------------------------
# eca


def test_eca_true_samples_nearly_perfect(world):
    rng = np.random.default_rng(0)
    samples = []
    for i in range(300):
        emotion = int(rng.integers(0, world.n_emotions))
        speaker = int(rng.integers(0, world.n_speakers))
        tokens = rng.integers(0, world.vocab, size=8)
        samples.append(make_sample(world, speaker, emotion, tokens, seed=1000 + i))
    assert mw.eca_oracle(world, samples) > 95


def test_eca_neutral_samples_fail_happy_target(world):
    rng = np.random.default_rng(1)
    samples = []
    for i in range(200):
        speaker = int(rng.integers(0, world.n_speakers))
        tokens = rng.integers(0, world.vocab, size=8)
        samples.append(make_sample(world, speaker, 0, tokens, target=1, seed=2000 + i))
    assert mw.eca_oracle(world, samples) < 5


def test_eca_sample_at_exact_mean(world):
    tokens = np.array([1, 2, 3])
    frames = utterance_mean(world, 0, 1, tokens)
    sample = EvalSample(frames=frames, target_emotion=1, speaker=0, tokens=tokens)
    assert mw.eca_oracle(world, [sample]) == 100.0


def test_eca_rejects_empty(world):
    with pytest.raises(EvalError):
        mw.eca_oracle(world, [])


# ---------------------------------------------------------------------------
# secs


def test_secs_identical_is_one():
    v = np.array([1.0, 2.0, -1.0])
    assert mw.secs_analog(v, v) == pytest.approx(1.0)


def test_secs_negated_is_minus_one():
    v = np.array([1.0, 2.0, -1.0])
    assert mw.secs_analog(v, -v) == pytest.approx(-1.0)


def test_secs_orthogonal_is_zero():
    assert mw.secs_analog([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_secs_rejects_zero_vector():
    with pytest.raises(EvalError):
        mw.secs_analog([0.0, 0.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# content error


def test_content_error_zero_at_mean(world):
    tokens = np.array([4, 5])
    sample = EvalSample(frames=utterance_mean(world, 2, 1, tokens),
                        target_emotion=1, speaker=2, tokens=tokens)
    assert mw.content_error([sample], world) == 0.0


def test_content_error_matches_chi_square_expectation(world):
    # rows drawn from the true distribution average to frame_dim * tau^2
    rng = np.random.default_rng(2)
    samples = []
    for i in range(1250):
        speaker = int(rng.integers(0, world.n_speakers))
        emotion = int(rng.integers(0, world.n_emotions))
        tokens = rng.integers(0, world.vocab, size=8)
        samples.append(make_sample(world, speaker, emotion, tokens, seed=3000 + i))
    expected = world.frame_dim * world.tau ** 2
    assert mw.content_error(samples, world) == pytest.approx(expected, rel=0.05)


def test_content_error_all_zeros_sample(world):
    tokens = np.array([0, 1])
    mean = utterance_mean(world, 1, 2, tokens)
    sample = EvalSample(frames=np.zeros_like(mean), target_emotion=2, speaker=1,
                        tokens=tokens)
    expected = (mean ** 2).sum(axis=1).mean()
    assert mw.content_error([sample], world) == pytest.approx(expected)


def test_content_error_shape_mismatch(world):
    sample = EvalSample(frames=np.zeros((3, world.frame_dim)), target_emotion=0,
                        speaker=0, tokens=np.array([1, 2]))
    with pytest.raises(EvalError):
        mw.content_error([sample], world)


# ---------------------------------------------------------------------------
# probe


def test_probe_shuffled_labels_near_chance():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((400, 16))
    labels = rng.integers(0, 4, size=400)  # no relation to the vectors
    acc = mw.probe_disentanglement(vectors, labels, budget=500, seed=0)
    assert abs(acc - 25.0) <= 10.0


def test_probe_one_hot_vectors_perfect():
    labels = np.tile(np.arange(4), 100)
    vectors = np.eye(4)[labels]
    acc = mw.probe_disentanglement(vectors, labels, budget=1500, seed=0)
    assert acc == 100.0


def test_probe_rejects_small_classes():
    vectors = np.random.default_rng(4).standard_normal((25, 8))
    labels = np.array([0] * 20 + [1] * 5)
    with pytest.raises(EvalError):
        mw.probe_disentanglement(vectors, labels)


def test_probe_is_bitwise_the_graph_loop(monkeypatch):
    # the probe of C7, trained graph-free, against the loop that built a
    # graph per minibatch
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, size=120)
    vectors = rng.standard_normal((120, 8)) + 0.5 * labels[:, None]
    made = []

    class Kept(EmotionProbeHead):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(mx, "EmotionProbeHead", Kept)
    acc = mx.probe_disentanglement(vectors, labels, budget=200, seed=3)
    order = np.random.default_rng(3).permutation(120)
    train_idx, test_idx = order[:96], order[96:]
    reference = EmotionProbeHead(8, 4, seed=3)
    draws = np.random.default_rng(3)
    draws.permutation(120)
    for _ in range(200):
        pick = train_idx[draws.integers(0, 96, size=32)]
        loss = ad.softmax_cross_entropy(reference.logits_t(Tensor(vectors[pick])), labels[pick])
        reference.params.zero_grad()
        loss.backward()
        sgd_update([reference.params], 0.05)
    for name, tensor in reference.params.tensors().items():
        assert made[0].params[name].data.tobytes() == tensor.data.tobytes(), name
    pred = reference.posterior(vectors[test_idx]).argmax(axis=-1)
    assert acc == float(100.0 * (pred == labels[test_idx]).mean())


def test_probe_rejects_negative_labels():
    labels = np.repeat([-1, 0, 1], 10)
    with pytest.raises(EvalError, match="nonnegative"):
        mw.probe_disentanglement(np.zeros((30, 4)), labels)


def test_probe_deterministic():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((200, 8))
    labels = rng.integers(0, 2, size=200)
    a = mw.probe_disentanglement(vectors, labels, budget=300, seed=7)
    b = mw.probe_disentanglement(vectors, labels, budget=300, seed=7)
    assert a == b


# ---------------------------------------------------------------------------
# sweep protocol (untrained model: structure and determinism only)


@pytest.fixture(scope="module")
def ckpt(world):
    split = mw.split_speakers(world, 6, seed=0)
    return mw.train_model(world, split, mw.TrainConfig(steps=0)), split


def test_guidance_sweep_rows_and_csv(world, ckpt):
    checkpoint, split = ckpt
    rows = guidance_sweep(checkpoint.model, world, split.seen, [0.0, 1.0], "cfg",
                          n_samples=8, seed=0, steps=10)
    assert len(rows) == 2
    csv = sweep_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "gamma,mode,eca,content_error,secs_mean_frame,secs_style,n"
    assert len(lines) == 3


def test_guidance_sweep_deterministic_bytes(world, ckpt):
    checkpoint, split = ckpt
    a = guidance_sweep(checkpoint.model, world, split.seen, [0.0], "cfg", 6, seed=1, steps=8)
    b = guidance_sweep(checkpoint.model, world, split.seen, [0.0], "cfg", 6, seed=1, steps=8)
    assert sweep_csv(a) == sweep_csv(b)


def test_guidance_sweep_rejects_bad_gammas(world, ckpt):
    checkpoint, split = ckpt
    with pytest.raises(EvalError):
        guidance_sweep(checkpoint.model, world, split.seen, [], "cfg", 4, seed=0)
    with pytest.raises(EvalError):
        guidance_sweep(checkpoint.model, world, split.seen, [1.0, 0.5], "cfg", 4, seed=0)


def test_evaluate_cell_modes(world, ckpt):
    checkpoint, split = ckpt
    for mode, gamma in [("none", 0.0), ("cfg", 1.0), ("cg", 5.0)]:
        row = evaluate_cell(checkpoint.model, world, split.unseen, mode, gamma,
                            n_samples=4, seed=0, steps=8)
        assert row.n == 4
        assert 0.0 <= row.eca <= 100.0


def test_make_scripts_deterministic(world):
    a = make_scripts(world, 10, 8, seed=3)
    b = make_scripts(world, 10, 8, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (10, 8)


def test_collect_style_vectors_and_tsv(world, ckpt):
    checkpoint, split = ckpt
    vectors, labels = collect_style_vectors(world, checkpoint.model, split.seen,
                                            per_emotion=20, utt_len=4, seed=0)
    assert vectors.shape == (20 * world.n_emotions, 16)
    assert np.bincount(labels).tolist() == [20] * world.n_emotions
    tsv = styles_tsv(vectors, labels)
    lines = tsv.strip().split("\n")
    assert len(lines) == 1 + vectors.shape[0]
    assert lines[0].startswith("emotion\ts0")

