"""Style encoder, emotion table, and generator contracts."""

import numpy as np
import pytest

import melworld as mw
from melworld import autodiff as ad
from melworld.autodiff import Tensor
from melworld.training import sgd_update


@pytest.fixture
def encoder():
    return mw.StyleEncoder(8, seed=0)


@pytest.fixture
def table():
    return mw.EmotionTable(4, seed=1)


@pytest.fixture
def generator():
    return mw.Generator(10, 8, seed=2)


def test_encode_style_permutation_invariant_bitwise(encoder):
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((7, 8))
    base = encoder.encode(frames)
    for _ in range(5):
        shuffled = frames[rng.permutation(7)]
        assert np.array_equal(encoder.encode(shuffled), base)


def test_encode_style_single_row_equals_frame_output(encoder):
    row = np.random.default_rng(1).standard_normal((1, 8))
    pooled = encoder.encode(row)
    direct = ad.mlp_apply(encoder.params, "net", Tensor(row), encoder.n_layers).data[0]
    assert np.array_equal(pooled, direct)


def test_encode_style_rejects_empty(encoder):
    with pytest.raises(ValueError):
        encoder.encode(np.zeros((0, 8)))


def test_untrained_encoder_separates_distant_speakers(encoder):
    world = mw.make_world(seed=7)
    ref_a = mw.sample_utterance(world, 0, 0, [1, 2, 3, 4], seed=0).frames
    ref_b = mw.sample_utterance(world, 1, 0, [1, 2, 3, 4], seed=0).frames
    assert not np.array_equal(encoder.encode(ref_a), encoder.encode(ref_b))


def test_encoder_output_shape_independent_of_length(encoder):
    rng = np.random.default_rng(3)
    for length in (1, 4, 16):
        s = encoder.encode(rng.standard_normal((length, 8)))
        assert s.shape == (16,)


# ---------------------------------------------------------------------------
# emotion table


def test_null_sentinel_returns_null_row(table):
    assert np.array_equal(table.embed(None),
                          table.params["emb"].data[table.null_index])


def test_embed_deterministic(table):
    assert np.array_equal(table.embed(2), table.embed(2))


def test_embed_rejects_invalid_id(table):
    with pytest.raises(ValueError):
        table.embed(4)
    with pytest.raises(ValueError):
        table.embed(-1)


def test_null_row_never_aliases_real_rows(table):
    null_row = table.embed(None)
    for e in range(4):
        assert not np.array_equal(null_row, table.embed(e))


def test_gradient_step_touches_only_queried_rows(table):
    before = table.params["emb"].data.copy()
    emb = table.embed_t(np.array([1, 1]))
    loss = ad.tsum(ad.mul(emb, emb))
    table.params.zero_grad()
    loss.backward()
    sgd_update([table.params], lr=0.1)
    after = table.params["emb"].data
    assert not np.array_equal(after[1], before[1])
    for row in (0, 2, 3, table.null_index):
        assert np.array_equal(after[row], before[row])


# ---------------------------------------------------------------------------
# generator


def test_generate_mu_repeated_tokens_identical_rows(generator, table):
    s = np.random.default_rng(4).standard_normal(16)
    mu = generator.generate([3, 3, 3], s, table.embed(1))
    assert np.array_equal(mu[0], mu[1])
    assert np.array_equal(mu[1], mu[2])
    assert mu.shape == (3, 8)


def test_generate_mu_deterministic(generator, table):
    s = np.random.default_rng(5).standard_normal(16)
    a = generator.generate([0, 9, 2], s, table.embed(2))
    b = generator.generate([0, 9, 2], s, table.embed(2))
    assert np.array_equal(a, b)


def test_generate_mu_rejects_empty_tokens(generator, table):
    with pytest.raises(ValueError):
        generator.generate([], np.zeros(16), table.embed(0))


def test_generate_mu_rejects_bad_token(generator, table):
    with pytest.raises(ValueError):
        generator.generate([10], np.zeros(16), table.embed(0))


def test_batch_matches_single(generator, table):
    rng = np.random.default_rng(6)
    s = rng.standard_normal((2, 16))
    e = np.stack([table.embed(0), table.embed(3)])
    tokens = np.array([[1, 2], [3, 4]])
    batch = generator.generate(tokens, s, e)
    for i in range(2):
        single = generator.generate(tokens[i], s[i], e[i])
        assert np.array_equal(batch[i], single)


def test_emotion_changes_mu_but_not_style(generator, table):
    # the architectural seam: emotion conditioning enters after the encoder
    encoder = mw.StyleEncoder(8, seed=9)
    frames = np.random.default_rng(7).standard_normal((5, 8))
    s = encoder.encode(frames)
    mu_a = generator.generate([1, 2], s, table.embed(1))
    mu_b = generator.generate([1, 2], s, table.embed(2))
    assert not np.array_equal(mu_a, mu_b)
    assert np.array_equal(s, encoder.encode(frames))
