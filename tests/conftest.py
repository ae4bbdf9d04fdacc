"""Shared fixtures. The trained checkpoints are session-scoped because the
acceptance criteria reuse them heavily; everything is seeded, so the suite
is bit-reproducible end to end."""

import numpy as np
import pytest

import melworld as mw
from melworld import autodiff as ad
from melworld.autodiff import Tensor
from melworld.diffusion import TIME_EMB_DIM, time_embedding


@pytest.fixture(scope="session")
def acc_world():
    return mw.make_world(seed=7)


@pytest.fixture(scope="session")
def acc_split(acc_world):
    return mw.split_speakers(acc_world, 6, seed=0)


@pytest.fixture(scope="session")
def acc_trace():
    return []


@pytest.fixture(scope="session")
def dat_checkpoint(acc_world, acc_split, acc_trace):
    """Default-config training (adversarial disentanglement on) plus the
    separately trained noisy classifier."""
    ckpt = mw.train_model(acc_world, acc_split, mw.TrainConfig(), trace=acc_trace)
    mw.train_noisy_classifier(acc_world, acc_split, ckpt.model, ckpt.train_config)
    return ckpt


@pytest.fixture(scope="session")
def nodat_checkpoint(acc_world, acc_split):
    """Same budget and seeds with the adversarial weight zeroed."""
    return mw.train_model(acc_world, acc_split, mw.TrainConfig(w_dat=0.0))


@pytest.fixture(scope="session")
def clf_logits_t():
    """The noisy classifier's logits as a graph of ``ad`` ops on frames
    ``y_t`` (a Tensor): the reference that its graph-free training step and
    its hand-written gradient must match bit for bit."""

    def pooled(y_t: Tensor) -> Tensor:
        # the mean over L as a node; its backward spreads g / L over L
        length = y_t.shape[-2]

        def backward(g):
            y_t._accumulate(np.broadcast_to(g[:, None, :] / length, y_t.shape).copy())

        return ad._make("mean", y_t.data.mean(axis=-2), (y_t,), backward)

    def logits_t(clf, y_t: Tensor, t) -> Tensor:
        temb = np.broadcast_to(time_embedding(t), (y_t.shape[0], TIME_EMB_DIM)).copy()
        x = ad.concat([pooled(y_t), Tensor(temb)])
        return ad.mlp_apply(clf.params, "net", [x])

    return logits_t
