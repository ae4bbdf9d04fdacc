"""Style-based generator pair: reference encoder, emotion table, generator.

The encoder pools a per-frame MLP over reference frames into a fixed-size
style vector, so its output is invariant to frame order and carries no
explicit speaker id anywhere (the zero-shot pathway). The generator maps
(token embedding, style vector, emotion embedding) per row to the prior
mean used by the diffusion decoder. The emotion table carries one extra
trainable null row used for the unconditional path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import MelworldError, ParamStore, Tensor

if TYPE_CHECKING:
    from .training import ModelConfig


class StyleError(MelworldError):
    """Raised for frames, tokens or emotion ids the style modules cannot take."""


class StyleEncoder:
    """Per-frame MLP followed by symmetric mean pooling."""

    def __init__(self, frame_dim: int, config: ModelConfig):
        self.frame_dim = frame_dim
        self.params = ParamStore(config.seed, "style_encoder")
        sizes = [frame_dim] + [config.hidden] * config.n_hidden + [config.style_dim]
        ad.mlp_init(self.params, "net", sizes)

    def encode_t(self, frames) -> Tensor:
        """Graph path; frames (n, L, D) -> (n, style_dim)."""
        h = ad.mlp_apply(self.params, "net", [frames])
        return ad.symmetric_mean(h, axis=-2)

    def encode(self, frames) -> np.ndarray:
        """Style vector of each reference in a batch (n, L, D): a sorted-order
        mean, so invariant to the order of its frames; pure."""
        arr = np.asarray(frames, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[-1] != self.frame_dim:
            raise StyleError(f"expected a batch of frames (n, L, {self.frame_dim}), "
                             f"got {arr.shape}")
        if arr.shape[-2] == 0:
            raise StyleError("reference frames must be nonempty")
        h = ad.mlp_eval(self.params, "net", [arr])
        h.sort(axis=-2)
        return h.mean(axis=-2)


class EmotionTable:
    """Trainable emotion embeddings plus one distinguished null row, stored
    at index ``n_emotions`` and never aliased to a real emotion row. Every
    lookup goes through the methods below; they own that row layout."""

    def __init__(self, n_emotions: int, config: ModelConfig):
        self.n_emotions = n_emotions
        self.params = ParamStore(config.seed, "emotion_table")
        self.params.add("emb", (n_emotions + 1, config.emotion_dim))

    @property
    def null_index(self) -> int:
        return self.n_emotions

    def row_indices(self, labels, null_mask=None) -> np.ndarray:
        """Table rows of emotion ids (n,), each range-checked; the null row
        where ``null_mask`` is set."""
        idx = np.asarray(labels, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= self.n_emotions)]
        if bad.size:
            raise StyleError(f"emotion label {bad[0]} out of range [0, {self.n_emotions})")
        if null_mask is not None:
            idx = np.where(np.asarray(null_mask, dtype=bool), self.null_index, idx)
        return idx

    def embed_t(self, indices) -> Tensor:
        return ad.gather_rows(self.params["emb"], np.asarray(indices, dtype=np.int64))

    def embed(self, labels) -> np.ndarray:
        """Embedding rows of emotion ids (n,), shape (n, emotion_dim)."""
        return self.params["emb"].data[self.row_indices(labels)]

    def embed_null(self, n: int) -> np.ndarray:
        """The null row, once per utterance: shape (n, emotion_dim)."""
        return self.params["emb"].data[np.full(n, self.null_index)]


class Generator:
    """Per-token MLP from concat(token embedding, style, emotion) to a prior-mean row."""

    def __init__(self, vocab: int, frame_dim: int, config: ModelConfig):
        self.vocab = vocab
        self.params = ParamStore(config.seed, "generator")
        self.params.add("tok", (vocab, config.token_dim))
        sizes = ([config.token_dim + config.style_dim + config.emotion_dim]
                 + [config.hidden] * config.n_hidden + [frame_dim])
        ad.mlp_init(self.params, "net", sizes)

    def _blocks(self, tokens, style, emotion_emb, graph: bool) -> list:
        """The MLP's row blocks, once the tokens (n, L) are checked: their
        embeddings (a gather node on the graph path), style (n, style_dim)
        and emotion (n, emotion_dim)."""
        toks = np.asarray(tokens, dtype=np.int64)
        if toks.ndim != 2:
            raise StyleError(f"expected a batch of tokens (n, L), got shape {toks.shape}")
        if toks.size == 0:
            raise StyleError("token sequence must be nonempty")
        if toks.min() < 0 or toks.max() >= self.vocab:
            raise StyleError(f"token id out of range [0, {self.vocab})")
        table = self.params["tok"]
        return [ad.gather_rows(table, toks) if graph else table.data[toks], style, emotion_emb]

    def generate_t(self, tokens, style: Tensor, emotion_emb: Tensor) -> Tensor:
        """Graph path: tokens (n, L) with style (n, style_dim) and emotion
        (n, emotion_dim) give (n, L, frame_dim). Each row depends only on
        its own token plus its utterance's conditioning."""
        blocks = self._blocks(tokens, style, emotion_emb, graph=True)
        return ad.mlp_apply(self.params, "net", blocks)

    def generate(self, tokens, style, emotion_emb) -> np.ndarray:
        """Prior mean mu, one row per token; pure, bitwise the graph path's."""
        style, emotion_emb = (np.asarray(a, dtype=np.float64) for a in (style, emotion_emb))
        blocks = self._blocks(tokens, style, emotion_emb, graph=False)
        return ad.mlp_eval(self.params, "net", blocks)
