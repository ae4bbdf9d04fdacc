"""Style-based generator pair: reference encoder, emotion table, generator.

The encoder pools a per-frame MLP over reference frames into a fixed-size
style vector, so its output is invariant to frame order and carries no
explicit speaker id anywhere (the zero-shot pathway). The generator maps
(token embedding, style vector, emotion embedding) per row to the prior
mean used by the diffusion decoder. The emotion table carries one extra
trainable null row used for the unconditional path.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor


class StyleEncoder:
    """Per-frame MLP followed by symmetric mean pooling."""

    def __init__(self, frame_dim: int, style_dim: int = 16, hidden: int = 64,
                 n_hidden: int = 2, seed: int = 0):
        self.frame_dim = frame_dim
        self.style_dim = style_dim
        self.n_layers = n_hidden + 1
        self.params = ParamStore(seed, "style_encoder")
        sizes = [frame_dim] + [hidden] * n_hidden + [style_dim]
        ad.mlp_init(self.params, "net", sizes)

    def encode_t(self, frames: Tensor) -> Tensor:
        """Graph path; frames (L, D) -> (style_dim,) or (n, L, D) -> (n, style_dim)."""
        h = ad.mlp_apply(self.params, "net", frames, self.n_layers)
        return ad.symmetric_mean(h, axis=-2)

    def encode(self, frames) -> np.ndarray:
        """Style vector of a reference; permutation-invariant over rows, pure."""
        arr = np.asarray(frames, dtype=np.float64)
        if arr.ndim not in (2, 3) or arr.shape[-1] != self.frame_dim:
            raise ValueError(f"expected (L, {self.frame_dim}) or (n, L, {self.frame_dim}) "
                             f"frames, got {arr.shape}")
        if arr.shape[-2] == 0:
            raise ValueError("reference frames must be nonempty")
        return self.encode_t(Tensor(arr)).data


class EmotionTable:
    """Trainable emotion embeddings plus one distinguished null row.

    ``None`` is the null sentinel; the null row is stored at index
    ``n_emotions`` and is never aliased to a real emotion row.
    """

    def __init__(self, n_emotions: int, dim: int = 8, seed: int = 0):
        self.n_emotions = n_emotions
        self.dim = dim
        self.params = ParamStore(seed, "emotion_table")
        self.params.add("emb", (n_emotions + 1, dim))

    @property
    def null_index(self) -> int:
        return self.n_emotions

    def row_index(self, label) -> int:
        if label is None:
            return self.null_index
        label = int(label)
        if not 0 <= label < self.n_emotions:
            raise ValueError(f"emotion label {label} out of range [0, {self.n_emotions})")
        return label

    def row_indices(self, labels, null_mask=None) -> np.ndarray:
        idx = np.array([self.row_index(lab) for lab in labels], dtype=np.int64)
        if null_mask is not None:
            idx = np.where(np.asarray(null_mask, dtype=bool), self.null_index, idx)
        return idx

    def embed_t(self, indices) -> Tensor:
        return ad.gather_rows(self.params["emb"], np.asarray(indices, dtype=np.int64))

    def embed(self, label) -> np.ndarray:
        """Embedding row for an emotion id, or the null row for ``None``."""
        return self.params["emb"].data[self.row_index(label)].copy()


class Generator:
    """Per-token MLP from concat(token embedding, style, emotion) to a prior-mean row."""

    def __init__(self, vocab: int, frame_dim: int, style_dim: int = 16,
                 emotion_dim: int = 8, token_dim: int = 8, hidden: int = 64,
                 n_hidden: int = 2, seed: int = 0):
        self.vocab = vocab
        self.frame_dim = frame_dim
        self.style_dim = style_dim
        self.emotion_dim = emotion_dim
        self.token_dim = token_dim
        self.n_layers = n_hidden + 1
        self.params = ParamStore(seed, "generator")
        self.params.add("tok", (vocab, token_dim))
        sizes = [token_dim + style_dim + emotion_dim] + [hidden] * n_hidden + [frame_dim]
        ad.mlp_init(self.params, "net", sizes)

    def _check_tokens(self, tokens) -> np.ndarray:
        toks = np.asarray(tokens, dtype=np.int64)
        if toks.size == 0:
            raise ValueError("token sequence must be nonempty")
        if toks.min() < 0 or toks.max() >= self.vocab:
            raise ValueError(f"token id out of range [0, {self.vocab})")
        return toks

    def generate_t(self, tokens, style: Tensor, emotion_emb: Tensor) -> Tensor:
        """Graph path.

        tokens (L,) with style (style_dim,) gives (L, frame_dim); tokens
        (n, L) with style (n, style_dim) gives (n, L, frame_dim). Each row
        depends only on its own token plus the shared conditioning.
        """
        toks = self._check_tokens(tokens)
        tok_emb = ad.gather_rows(self.params["tok"], toks)
        if toks.ndim == 1:
            length = toks.shape[0]
            s_rows = ad.broadcast_to(ad.reshape(style, (1, self.style_dim)),
                                     (length, self.style_dim))
            e_rows = ad.broadcast_to(ad.reshape(emotion_emb, (1, self.emotion_dim)),
                                     (length, self.emotion_dim))
        elif toks.ndim == 2:
            n, length = toks.shape
            s_rows = ad.broadcast_to(ad.reshape(style, (n, 1, self.style_dim)),
                                     (n, length, self.style_dim))
            e_rows = ad.broadcast_to(ad.reshape(emotion_emb, (n, 1, self.emotion_dim)),
                                     (n, length, self.emotion_dim))
        else:
            raise ValueError(f"tokens must be 1-D or 2-D, got shape {toks.shape}")
        rows = ad.concat([tok_emb, s_rows, e_rows], axis=-1)
        return ad.mlp_apply(self.params, "net", rows, self.n_layers)

    def generate(self, tokens, style, emotion_emb) -> np.ndarray:
        """Prior mean mu, one row per token; deterministic and pure."""
        return self.generate_t(tokens, Tensor(style), Tensor(emotion_emb)).data
