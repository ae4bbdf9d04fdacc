"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Supports exactly the operations needed for small MLPs, softmax classifiers,
and gradient reversal: affine, tanh, relu, softmax (plus a fused
softmax/cross-entropy), log, elementwise add/sub/mul, concat, row gather,
sum/mean, squared error, and ``grad_reverse``. A whole tanh MLP is one node
(:func:`mlp_apply`) on a list of row blocks, which it lines up itself; its
backward, :func:`mlp_backward`, is also what graph-free callers run.

Graphs are built define-by-run: every operation appends a node with a
monotonically increasing id, so construction order is a topological order
and the backward pass visits nodes in exact reverse construction order.
That makes forward and backward results bitwise reproducible for identical
inputs. All data is float64; in a graph, non-finite values are rejected at
every node boundary with an error naming the offending node, and inside
an MLP node at every layer. Inference builds no graph (:func:`mlp_eval`);
samplers check finiteness per step.
"""

from __future__ import annotations

import itertools

import numpy as np

_node_counter = itertools.count()


class MelworldError(Exception):
    """Base of every melworld error: bad input or a run that cannot go on,
    which the CLI reports in one line with exit code 2."""


class GraphError(MelworldError):
    """Raised for structural problems in a graph: shape mismatches,
    non-finite intermediates, or backward from a non-scalar node. The
    message names the node where the problem occurred."""


def _check_finite(data: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(data)):
        raise GraphError(f"non-finite values in node '{name}'")


class Tensor:
    """Dense float64 array plus the bookkeeping for reverse-mode autodiff.

    ``grad`` accumulates across backward passes until explicitly zeroed,
    which is what parameter tensors rely on. Intermediate tensors are
    created fresh per graph, so their accumulators never alias.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_nid")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name if name is not None else f"tensor#{next(_node_counter)}"
        _check_finite(self.data, self.name)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._nid = next(_node_counter)

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar tensor, which
        seeds its own gradient with 1.0."""
        if self.size != 1:
            raise GraphError(f"backward needs a scalar node, '{self.name}' has shape "
                             f"{self.data.shape}")
        nodes = _reachable(self)
        self._accumulate(np.ones_like(self.data))
        # Reverse construction order is a reverse topological order.
        for node in sorted(nodes, key=lambda n: n._nid, reverse=True):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.data.shape})"


def _reachable(root: Tensor) -> list[Tensor]:
    seen: set[int] = set()
    out: list[Tensor] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        for parent in node._parents:
            if parent.requires_grad:
                stack.append(parent)
    return out


def _constant(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(op: str, data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    name = f"{op}#{next(_node_counter)}"
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, name=name, _parents=parents,
                  _backward=backward if requires else None)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural operations


def add(a, b) -> Tensor:
    a, b = _constant(a), _constant(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make("add", out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _constant(a), _constant(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make("sub", out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _constant(a), _constant(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make("mul", out_data, (a, b), backward)


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` where x is (..., fan_in), w is (fan_in, fan_out), b is (fan_out,)."""
    x, w, b = _constant(x), _constant(w), _constant(b)
    if x.data.shape[-1] != w.data.shape[0]:
        raise GraphError(
            f"affine shape mismatch: input has {x.data.shape[-1]} features, "
            f"weight '{w.name}' expects {w.data.shape[0]}")
    if b.data.shape != (w.data.shape[1],):
        raise GraphError(f"affine bias '{b.name}' shape {b.data.shape} does not match "
                         f"fan_out {w.data.shape[1]}")
    out_data = x.data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            gm = g.reshape(-1, g.shape[-1])
            xm = x.data.reshape(-1, x.data.shape[-1])
            w._accumulate(xm.T @ gm)
        if b.requires_grad:
            b._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make("affine", out_data, (x, w, b), backward)


def tanh(x) -> Tensor:
    x = _constant(x)
    out_data = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - out_data * out_data))

    return _make("tanh", out_data, (x,), backward)


def relu(x) -> Tensor:
    x = _constant(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0.0))

    return _make("relu", out_data, (x,), backward)


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _constant(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            inner = (g * out_data).sum(axis=-1, keepdims=True)
            x._accumulate(out_data * (g - inner))

    return _make("softmax", out_data, (x,), backward)


def log(x) -> Tensor:
    x = _constant(x)
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out_data = np.log(x.data)
        except FloatingPointError as exc:
            raise GraphError(f"log of non-positive value in node '{x.name}'") from exc

    def backward(g):
        if x.requires_grad:
            x._accumulate(g / x.data)

    return _make("log", out_data, (x,), backward)


def concat(tensors) -> Tensor:
    """Tensors side by side along the last axis."""
    tensors = tuple(_constant(t) for t in tensors)
    if not tensors:
        raise GraphError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=-1)
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[..., lo:hi])

    return _make("concat", out_data, tensors, backward)


def gather_rows(table, indices) -> Tensor:
    """Row lookup ``table[indices]`` for embedding tables.

    The backward pass accumulates only into the touched rows, so untouched
    rows keep an exactly-zero gradient.
    """
    table = _constant(table)
    idx = np.asarray(indices, dtype=np.int64)
    n_rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise GraphError(f"gather index out of range for table '{table.name}' "
                         f"with {n_rows} rows")
    out_data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
            table._accumulate(acc)

    return _make("gather", out_data, (table,), backward)


def symmetric_mean(x, axis: int) -> Tensor:
    """Mean along ``axis`` that is bitwise invariant to permutations of
    that axis: values are summed in sorted order. The gradient of a mean is
    uniform, so the backward pass needs no unsorting."""
    x = _constant(x)
    out_data = np.sort(x.data, axis=axis).mean(axis=axis)
    count = x.data.shape[axis]

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(np.expand_dims(g / count, axis), x.data.shape).copy())

    return _make("symmetric_mean", out_data, (x,), backward)


def tsum(x) -> Tensor:
    """Sum over all elements; scalar output."""
    x = _constant(x)
    out_data = x.data.sum()

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.data.shape).copy())

    return _make("sum", out_data, (x,), backward)


def tmean(x) -> Tensor:
    """Mean over all elements; scalar output."""
    x = _constant(x)
    out_data = x.data.mean()

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g / x.data.size, x.data.shape).copy())

    return _make("mean", out_data, (x,), backward)


def mse(a, b) -> Tensor:
    """Mean squared error over all elements; scalar output."""
    a, b = _constant(a), _constant(b)
    if a.data.shape != b.data.shape:
        raise GraphError(f"mse shape mismatch: {a.data.shape} vs {b.data.shape} "
                         f"(nodes '{a.name}', '{b.name}')")
    diff = a.data - b.data
    out_data = np.array((diff * diff).mean())
    scale = 2.0 / diff.size

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * scale * diff)
        if b.requires_grad:
            b._accumulate(-g * scale * diff)

    return _make("mse", out_data, (a, b), backward)


def softmax_ce_parts(logits: np.ndarray, labels, rows=None) -> tuple[np.ndarray, np.ndarray, float]:
    """The one softmax cross-entropy, on logits (n, K) and integer labels (n,):
    softmax(logits), that softmax minus the one-hot rows of ``labels`` (the
    cross-entropy's gradient per row), and the mean cross-entropy. The graph
    node scales the middle one by ``g / n``, the graph-free steps by ``1 / n``. Given
    ``rows``, a kept ``np.arange(n)``, no cross-entropy is taken (None in its place)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    total = p.sum(axis=-1, keepdims=True)
    loss = None
    if rows is None:
        rows = np.arange(len(p))
        loss = float((np.log(total[:, 0]) - shifted[rows, labels]).sum() / max(len(p), 1))
    p /= total
    softmax_rows = p.copy()
    p[rows, labels] -= 1.0
    return softmax_rows, p, loss


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Fused softmax + cross-entropy, mean over leading dimensions.

    ``logits`` is (..., K); ``labels`` holds integer class ids of shape
    (...). Fusing keeps the backward numerically stable: the input gradient
    is (softmax - onehot) / n (:func:`softmax_ce_parts`) without forming log
    of small probabilities.
    """
    logits = _constant(logits)
    labels_arr = np.asarray(labels, dtype=np.int64)
    k = logits.data.shape[-1]
    if labels_arr.shape != logits.data.shape[:-1]:
        raise GraphError(f"cross-entropy labels shape {labels_arr.shape} does not match "
                         f"logits '{logits.name}' leading shape {logits.data.shape[:-1]}")
    if labels_arr.size and (labels_arr.min() < 0 or labels_arr.max() >= k):
        raise GraphError(f"cross-entropy label out of range for {k} classes")
    _, delta, loss = softmax_ce_parts(logits.data.reshape(-1, k), labels_arr.reshape(-1))
    n = max(labels_arr.size, 1)

    def backward(g):
        if logits.requires_grad:
            logits._accumulate((g / n) * delta.reshape(logits.data.shape))

    return _make("softmax_ce", np.array(loss), (logits,), backward)


def grad_reverse(x, alpha: float = 1.0) -> Tensor:
    """Identity in the forward pass; multiplies the gradient by -alpha.

    Not a true derivative: a finite-difference check of a graph containing
    this node will (intentionally) disagree with the analytic gradient.
    """
    if alpha <= 0:
        raise ValueError(f"grad_reverse requires alpha > 0, got {alpha}")
    x = _constant(x)
    out_data = x.data.copy()

    def backward(g):
        if x.requires_grad:
            x._accumulate(-alpha * g)

    return _make("grad_reverse", out_data, (x,), backward)


# ---------------------------------------------------------------------------
# parameters


def glorot_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Uniform in [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]."""
    if len(shape) >= 2:
        fan_in, fan_out = shape[0], shape[1]
    else:
        fan_in = fan_out = shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ParamStore:
    """Named parameter tensors with gradient accumulators.

    Initialization is derived from ``(seed, parameter name)``, so the values
    of one parameter never depend on the order other parameters were added.
    """

    def __init__(self, seed: int, name: str = "params"):
        self.seed = int(seed)
        self.name = name
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple, init: str = "glorot") -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter '{name}' already exists in store '{self.name}'")
        if init == "glorot":
            rng = np.random.default_rng([self.seed, *f"{self.name}/{name}".encode()])
            data = glorot_uniform(rng, tuple(shape))
        elif init == "zeros":
            data = np.zeros(shape)
        else:
            raise ValueError(f"unknown init '{init}'")
        t = Tensor(data, requires_grad=True, name=f"{self.name}.{name}")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def tensors(self) -> dict[str, Tensor]:
        return dict(self._params)

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def grad_sq_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.grad is not None:
                total += float((t.grad * t.grad).sum())
        return total

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) ^ set(state)
        if missing:
            raise ValueError(f"state dict keys do not match store '{self.name}': {sorted(missing)}")
        for k, t in self._params.items():
            arr = np.asarray(state[k], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for '{k}': {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()


# ---------------------------------------------------------------------------
# gradient checking


# relative-error denominator floor: entries below this magnitude are
# compared on an absolute scale, which keeps near-zero gradients from
# inflating the ratio past any useful tolerance
_REL_FLOOR = 1e-4


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def gradcheck(loss, params: ParamStore, epsilon: float = 1e-5) -> dict[str, float]:
    """Maximum relative error per parameter of ``params`` between the
    analytic gradient and central finite differences.

    ``loss`` takes no arguments and returns a scalar Tensor; it is called
    once for the analytic gradient and twice per parameter entry. Entries
    are perturbed in place and restored, so the check is pure. ``epsilon``
    must lie in (1e-8, 1e-3); outside that window central differences are
    dominated by rounding or truncation error.
    """
    if not (1e-8 < epsilon < 1e-3):
        raise ValueError(f"epsilon must be in (1e-8, 1e-3), got {epsilon}")
    out = loss()
    if out.size != 1:
        raise GraphError(f"gradcheck requires a scalar output, got shape {out.data.shape}")
    params.zero_grad()
    out.backward()
    errors = {}
    for pname, tensor in params.tensors().items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(loss().data)
            flat[i] = orig - epsilon
            f_minus = float(loss().data)
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2.0 * epsilon)
        errors[pname] = _rel_err(analytic, numeric)
    params.zero_grad()
    return errors


# ---------------------------------------------------------------------------
# small MLP helpers shared by the encoder, generator, score net and classifiers


def mlp_init(store: ParamStore, prefix: str, sizes: list[int]) -> None:
    """Register weight/bias parameters for an MLP with the given layer sizes;
    :func:`mlp_eval` reads its depth back from them."""
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        store.add(f"{prefix}.w{i}", (n_in, n_out))
        store.add(f"{prefix}.b{i}", (n_out,), init="zeros")


def mlp_apply(store: ParamStore, prefix: str, blocks: list) -> Tensor:
    """The MLP of :func:`mlp_init` (tanh hidden layers, a linear final layer)
    on row blocks, arrays or Tensors (see :func:`mlp_eval`), as one graph
    node: bitwise the chain of nodes that would repeat, join and transform
    the blocks. A Tensor block takes its column slice of the input
    gradient, summed over L if it is per-utterance."""
    layers: list = []
    arrays = [b.data if isinstance(b, Tensor) else b for b in blocks]
    out = mlp_eval(store, prefix, arrays, layers, check=True)
    offsets = np.cumsum([0] + [a.shape[-1] for a in arrays])
    inputs = [(b, lo, hi) for b, lo, hi in zip(blocks, offsets[:-1], offsets[1:])
              if isinstance(b, Tensor) and b.requires_grad]

    def backward(g):
        gx, grads = mlp_backward(store, prefix, layers, g, bool(inputs))
        for b, lo, hi in inputs:
            gb = gx[..., lo:hi]
            b._accumulate(gb if b.data.ndim == gb.ndim else gb.sum(axis=-2))
        for name, grad in grads.items():
            store[name]._accumulate(grad)

    params = tuple(store[f"{prefix}.{p}{i}"] for i in range(len(layers)) for p in "wb")
    return _make("mlp", out, (*(b for b, _, _ in inputs), *params), backward)


def _rows(blocks: list) -> np.ndarray:
    """The MLP input of :func:`mlp_eval`'s row blocks, the first of which sets
    the row shape; a lone block as it is."""
    if len(blocks) == 1:
        return blocks[0]
    lead = blocks[0].shape[:-1]
    out = np.empty(lead + (sum(b.shape[-1] for b in blocks),))
    lo = 0
    for b in blocks:
        out[..., lo:lo + b.shape[-1]] = b if b.ndim == len(lead) + 1 else b[:, None, :]
        lo += b.shape[-1]
    return out


# rows per block of the graph-free per-frame forward (see mlp_eval): at 64 hidden units a
# block's layer outputs are 128 KiB each and its live arrays about 0.35 MB, inside the 2 MiB
# per-core L2 of the 2-vCPU Xeon that CHANGES.md measures on, and the allocator reuses them;
# a whole CFG batch (2 x 200 x 8 rows, 4.4 MB) trimmed and re-faulted its heap top per call
_BLOCK_ROWS = 256


def mlp_eval(store: ParamStore, prefix: str, blocks: list, layers: list | None = None,
             check: bool = False) -> np.ndarray:
    """The MLP on the parameters' arrays, in place and with no graph, on the
    row blocks side by side: per-frame (n, L, w) as they are, per-utterance
    (n, w) repeated over L. ``layers`` receives each layer's input for
    :func:`mlp_backward`. With ``check``, a non-finite pre-activation raises
    ``GraphError`` naming the store, ``prefix`` and the layer (``tanh`` would
    hide it). Without ``layers``, per-frame rows above :data:`_BLOCK_ROWS` run
    through every layer in blocks of utterances, bitwise the whole batch: a
    stacked matmul takes one product per utterance."""
    x = blocks[0]
    if any(len(b) != len(x) for b in blocks):
        raise GraphError(f"row blocks of shapes {[b.shape for b in blocks]} differ in rows")
    params = store._params
    h, w = _rows(blocks), params[f"{prefix}.w0"]
    fan_in = w.data.shape[0]
    if h.shape[-1] != fan_in:
        raise GraphError(f"'{store.name}.{prefix}' takes rows of width {fan_in}, got {h.shape[-1]}")
    if layers is None and h.ndim == 3 and len(h) > 1 and len(h) * h.shape[1] > _BLOCK_ROWS:
        per = max(1, _BLOCK_ROWS // h.shape[1])
        return np.concatenate([mlp_eval(store, prefix, [h[lo:lo + per]], None, check)
                               for lo in range(0, len(h), per)])
    # the layers run while the store holds their weights: w0, w1, ...
    for i in itertools.count():
        if layers is not None:
            layers.append(h)
        h = h @ w.data
        h += params[f"{prefix}.b{i}"].data
        if check:
            _check_finite(h, f"{store.name}.{prefix} layer {i}")
        w = params.get(f"{prefix}.w{i + 1}")
        if w is None:
            return h
        np.tanh(h, out=h)


def mlp_backward(store: ParamStore, prefix: str, layers: list, g: np.ndarray,
                 input_grad: bool = True,
                 param_grads: bool = True) -> tuple[np.ndarray | None, dict]:
    """The one layer backward, from the layer inputs :func:`mlp_eval` kept
    and the output gradient ``g``: the input gradient (if ``input_grad``) and
    the gradient per parameter name (if ``param_grads``). Per layer, in the
    ``affine`` and ``tanh`` nodes' operations: ``x.T @ g`` and ``g.sum(0)``
    over flattened rows, ``g @ w.T``, then ``g * (1 - h*h)``."""
    grads = {}
    for i in reversed(range(len(layers))):
        if param_grads:
            rows = g.reshape(-1, g.shape[-1])
            grads[f"{prefix}.w{i}"] = layers[i].reshape(-1, layers[i].shape[-1]).T @ rows
            grads[f"{prefix}.b{i}"] = rows.sum(axis=0)
        if i or input_grad:
            g = g @ store[f"{prefix}.w{i}"].data.T
        if i:
            g *= 1.0 - layers[i] * layers[i]
    return (g if input_grad else None), grads
