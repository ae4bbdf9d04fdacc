"""Checkpoint container: bit-exact round trips and error handling."""

import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import melworld as mw
from melworld import autodiff as ad
from melworld.checkpoint import CheckpointError, dump_stores, load_stores
from melworld.world import WorldConfig


def test_store_roundtrip_bit_exact():
    store = ad.ParamStore(5, "s")
    store.add("w", (3, 4))
    store.add("b", (4,), init="zeros")
    store["b"].data[:] = [1.0, -2.5, np.pi, 1e-300]
    raw = dump_stores({"s": store}, {"step": 3})
    states, seeds, meta = load_stores(raw)
    assert seeds["s"] == 5
    assert meta["step"] == 3
    assert np.array_equal(states["s"]["w"], store["w"].data)
    assert states["s"]["b"].tobytes() == store["b"].data.tobytes()


def test_serialize_load_serialize_byte_identical():
    store = ad.ParamStore(9, "a")
    store.add("w", (2, 2))
    raw1 = dump_stores({"a": store}, {"config": {"lr": 0.01, "steps": 5}, "tag": "x"})
    states, seeds, meta = load_stores(raw1)
    rebuilt = ad.ParamStore(seeds["a"], "a")
    rebuilt.add("w", (2, 2))
    rebuilt.load_state_dict(states["a"])
    meta2 = {k: v for k, v in meta.items() if k != "stores"}
    raw2 = dump_stores({"a": rebuilt}, meta2)
    assert raw1 == raw2


def test_load_rejects_bad_magic():
    with pytest.raises(CheckpointError):
        load_stores(b"NOPE" + b"\x00" * 32)


def test_load_rejects_truncation():
    store = ad.ParamStore(1, "s")
    store.add("w", (4,))
    raw = dump_stores({"s": store}, {})
    with pytest.raises(CheckpointError):
        load_stores(raw[:-5])


def test_load_rejects_trailing_bytes():
    store = ad.ParamStore(1, "s")
    store.add("w", (4,))
    raw = dump_stores({"s": store}, {})
    with pytest.raises(CheckpointError):
        load_stores(raw + b"\x00")


def test_load_rejects_non_utf8_name():
    store = ad.ParamStore(1, "s")
    store.add("w", (4,))
    raw = dump_stores({"s": store}, {})
    assert raw.count(b"\x01\x00w") == 1
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_stores(raw.replace(b"\x01\x00w", b"\x01\x00\xff"))


def test_from_bytes_rejects_shapes_the_config_does_not_build():
    world = mw.make_world(WorldConfig(), seed=7)
    ckpt = mw.Checkpoint(model=mw.build_model(world), train_config=mw.TrainConfig(),
                         world_hash="w", step=0)
    raw = ckpt.to_bytes()
    assert raw.count(b'"hidden":64') == 1
    with pytest.raises(CheckpointError, match="shape mismatch"):
        mw.Checkpoint.from_bytes(raw.replace(b'"hidden":64', b'"hidden":32'))


def test_full_checkpoint_roundtrip():
    world = mw.make_world(WorldConfig(), seed=7)
    split = mw.split_speakers(world, 6, seed=0)
    config = mw.TrainConfig(steps=0)
    ckpt = mw.train_model(world, split, config)
    raw = ckpt.to_bytes()
    loaded = mw.Checkpoint.from_bytes(raw)
    assert loaded.step == 0
    assert loaded.world_hash == ckpt.world_hash
    assert loaded.train_config == config
    for name, store in ckpt.model.stores().items():
        other = loaded.model.stores()[name]
        for pname, tensor in store.tensors().items():
            assert np.array_equal(tensor.data, other[pname].data)
    assert loaded.to_bytes() == raw


def test_roundtrip_keeps_a_reinitialised_probe_seed():
    world = mw.make_world(WorldConfig(), seed=7)
    split = mw.split_speakers(world, 6, seed=0)
    ckpt = mw.train_model(world, split, mw.TrainConfig(steps=12, dat_probe_reinit=5,
                                                       dat_probe_steps=1, batch_size=4))
    assert ckpt.model.probe.params.seed == 10  # reinitialised at step 10
    raw = ckpt.to_bytes()
    loaded = mw.Checkpoint.from_bytes(raw)
    assert loaded.model.probe.params.seed == 10
    assert loaded.to_bytes() == raw


def _mlp_shapes(prefix: str, sizes: list) -> dict:
    """Parameter shapes of an MLP with layer sizes ``sizes``."""
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes[f"{prefix}.w{i}"], shapes[f"{prefix}.b{i}"] = (n_in, n_out), (n_out,)
    return shapes


@pytest.mark.parametrize("n_hidden", [0, 3])
def test_every_store_has_the_shapes_and_seed_the_config_names(n_hidden):
    # every width distinct, clf_hidden != hidden, and world sizes off the defaults
    d, vocab, n_emo = 6, 9, 3
    world = mw.make_world(WorldConfig(frame_dim=d, vocab=vocab, n_emotions=n_emo), seed=1)
    s, e, tok, h, c = 5, 3, 7, 11, 6
    config = mw.ModelConfig(style_dim=s, emotion_dim=e, token_dim=tok, hidden=h,
                            clf_hidden=c, n_hidden=n_hidden, seed=13)
    hid = [h] * n_hidden
    expected = {
        "style_encoder": _mlp_shapes("net", [d] + hid + [s]),
        "emotion_table": {"emb": (n_emo + 1, e)},
        "generator": {"tok": (vocab, tok), **_mlp_shapes("net", [tok + s + e] + hid + [d])},
        "scorenet": {**_mlp_shapes("net", [d + 5 + d + s + e] + hid + [d]),
                     **_mlp_shapes("skip", [5, 16, 1])},
        "probe": _mlp_shapes("net", [s, 32, n_emo]),
        "noisy_clf": _mlp_shapes("net", [d + 5] + [c] * n_hidden + [n_emo]),
    }
    model = mw.build_model(world, config)
    assert list(model.stores()) == list(expected)
    for name, store in model.stores().items():
        assert store.seed == 13, name
        assert {p: t.data.shape for p, t in store.tensors().items()} == expected[name], name

    # a trained checkpoint of those sizes rebuilds every store bitwise
    split = mw.split_speakers(world, 6, seed=0)
    train_config = mw.TrainConfig(steps=2, batch_size=2, dat_probe_steps=1, clf_steps=2,
                                  clf_batch=2, utt_len=3)
    ckpt = mw.train_model(world, split, train_config, config)
    mw.train_noisy_classifier(world, split, ckpt.model, train_config)
    raw = ckpt.to_bytes()
    loaded = mw.Checkpoint.from_bytes(raw)
    assert loaded.model.config == config
    for name, store in ckpt.model.stores().items():
        other = loaded.model.stores()[name]
        assert other.seed == store.seed
        for pname, tensor in store.tensors().items():
            assert other[pname].data.tobytes() == tensor.data.tobytes(), (name, pname)
    assert loaded.to_bytes() == raw


@lru_cache(maxsize=None)
def _small_checkpoint() -> bytes:
    """A real checkpoint of one training step with every width at 2-3."""
    world = mw.make_world(WorldConfig(), seed=7)
    model_config = mw.ModelConfig(style_dim=2, emotion_dim=2, token_dim=2, hidden=3,
                                  clf_hidden=3, n_hidden=1)
    train_config = mw.TrainConfig(steps=1, batch_size=2, dat_probe_steps=1)
    return mw.train_model(world, mw.split_speakers(world, 6, seed=0), train_config,
                          model_config).to_bytes()


def _first_ndim_offset(raw: bytes) -> int:
    """Offset of the first parameter's ndim byte: after the header, the
    metadata, the store count, the store's name, seed and parameter count,
    and the parameter's name."""
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    at = 16 + meta_len + 4
    at += 2 + struct.unpack("<H", raw[at:at + 2])[0] + 8 + 4
    return at + 2 + struct.unpack("<H", raw[at:at + 2])[0]


@pytest.mark.parametrize("damage", [
    lambda raw, at: raw[:8] + b"\xff" * 8 + raw[16:],  # meta_len beyond sys.maxsize
    lambda raw, at: raw[:at] + bytes([200]) + raw[at + 1:],  # 200 dims
    # dims whose product, 2**64, wraps to 0 in int64
    lambda raw, at: raw[:at] + struct.pack("<B3I", 3, 2 ** 31, 2 ** 31, 4) + raw[at + 13:],
], ids=["meta-length", "ndim-200", "dims-product"])
def test_damaged_lengths_raise_checkpoint_error(damage):
    raw = _small_checkpoint()
    assert raw[_first_ndim_offset(raw)] == 2
    with pytest.raises(CheckpointError):
        mw.Checkpoint.from_bytes(damage(raw, _first_ndim_offset(raw)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_byte_edit_or_truncation_loads_or_raises_checkpoint_error(data):
    raw = bytearray(_small_checkpoint())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] = data.draw(
            st.integers(0, 255), label="byte")
    try:
        mw.Checkpoint.from_bytes(bytes(raw))
    except CheckpointError:
        pass
