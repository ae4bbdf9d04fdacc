"""Autodiff core: forward/backward contracts, finite-difference oracle,
gradient reversal, determinism."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from melworld import autodiff as ad
from melworld.autodiff import GraphError, ParamStore, Tensor, gradcheck


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float((np.abs(a - b) / denom).max())


def finite_diff_params(loss, params, eps=1e-5):
    """Independent central-difference oracle over every parameter entry."""
    out = {}
    for name, tensor in params.tensors().items():
        num = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        num_flat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(loss().data)
            flat[i] = orig - eps
            fm = float(loss().data)
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2 * eps)
        out[name] = num
    return out


# ---------------------------------------------------------------------------
# forward


def test_affine_identity():
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    out = ad.affine(Tensor(np.array([2.0, 5.0])), w, b)
    assert np.array_equal(out.data, [2.0, 5.0])


def test_two_layer_matches_hand_composition():
    rng = np.random.default_rng(0)
    store = ParamStore(3, "net")
    ad.mlp_init(store, "net", [4, 6, 2])
    w0, b0 = store["net.w0"].data, store["net.b0"].data
    w1, b1 = store["net.w1"].data, store["net.b1"].data
    for _ in range(3):
        x = rng.standard_normal((5, 4))
        out = ad.mlp_apply(store, "net", [Tensor(x)])
        hand = np.tanh(x @ w0 + b0) @ w1 + b1
        assert np.abs(out.data - hand).max() < 1e-12


def test_forward_rejects_nonfinite_input():
    with pytest.raises(GraphError, match="non-finite"):
        Tensor(np.array([1.0, np.inf]))


def test_forward_shape_mismatch_names_node():
    w = Tensor(np.zeros((3, 2)), name="params.w")
    b = Tensor(np.zeros(2))
    with pytest.raises(GraphError, match="params.w"):
        ad.affine(Tensor(np.zeros(4)), w, b)


def test_forward_does_not_mutate_params():
    store = ParamStore(0, "p")
    ad.mlp_init(store, "net", [3, 4, 1])
    before = store.state_dict()
    ad.tsum(ad.mlp_apply(store, "net", [Tensor(np.ones((2, 3)))]))
    after = store.state_dict()
    for k in before:
        assert np.array_equal(before[k], after[k])


# ---------------------------------------------------------------------------
# backward


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    assert x.grad == pytest.approx(6.0, abs=0)


def test_backward_softmax_sum_is_zero():
    x = Tensor([0.4, -1.0, 2.2], requires_grad=True)
    loss = ad.tsum(ad.softmax(x))
    loss.backward()
    assert np.abs(x.grad).max() < 1e-15


def test_backward_nonscalar_needs_output_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, 2.0)
    with pytest.raises(GraphError, match="scalar"):
        y.backward()
    ad.tsum(ad.mul(y, Tensor([1.0, 1.0]))).backward()
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_backward_mlp_matches_finite_differences():
    store = ParamStore(11, "mlp")
    ad.mlp_init(store, "net", [3, 4, 1])  # ~20 params
    assert sum(t.size for t in store.tensors().values()) == 3 * 4 + 4 + 4 * 1 + 1

    x = Tensor(np.random.default_rng(5).standard_normal((6, 3)))

    def loss():
        return ad.tmean(ad.mul(ad.mlp_apply(store, "net", [x]),
                               ad.mlp_apply(store, "net", [x])))

    store.zero_grad()
    loss().backward()
    analytic = {k: t.grad.copy() for k, t in store.tensors().items()}
    numeric = finite_diff_params(loss, store)
    worst = max(rel_err(analytic[k], numeric[k]) for k in analytic)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# grad_reverse


def test_grad_reverse_forward_identity_bitwise():
    x = Tensor([4.0, -1.0])
    out = ad.grad_reverse(x, 1.0)
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("alpha,incoming,expected", [
    (1.0, [2.0, -3.0], [-2.0, 3.0]),
    (0.5, [2.0, -3.0], [-1.0, 1.5]),
])
def test_grad_reverse_backward_scales(alpha, incoming, expected):
    x = Tensor([0.0, 0.0], requires_grad=True)
    out = ad.grad_reverse(x, alpha)
    ad.tsum(ad.mul(out, Tensor(incoming))).backward()
    assert np.array_equal(x.grad, expected)


def test_grad_reverse_rejects_nonpositive_alpha():
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            ad.grad_reverse(Tensor([1.0]), alpha)


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_grad_reverse_equals_minus_alpha_times_unreversed(alpha):
    # power-of-two alphas make the scaling exact through downstream matmuls
    store = ParamStore(2, "enc")
    ad.mlp_init(store, "net", [3, 4])
    x = np.random.default_rng(1).standard_normal((5, 3))
    coeff = np.random.default_rng(2).standard_normal(4)

    def run(with_reversal):
        store.zero_grad()
        h = ad.mlp_apply(store, "net", [Tensor(x)])
        if with_reversal:
            h = ad.grad_reverse(h, alpha)
        loss = ad.tsum(ad.mul(h, Tensor(coeff)))
        loss.backward()
        return {k: t.grad.copy() for k, t in store.tensors().items()}

    plain = run(False)
    reversed_ = run(True)
    for k in plain:
        assert np.array_equal(reversed_[k], -alpha * plain[k])


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_linear_graph_nearly_exact():
    store = ParamStore(7, "lin")
    store.add("w", (4,))
    x = Tensor(np.array([0.5, -1.5, 2.0, 3.0]))
    errors = gradcheck(lambda: ad.tsum(ad.mul(store["w"], x)), store, epsilon=1e-5)
    assert max(errors.values()) < 1e-9


def test_gradcheck_tanh_mlp():
    store = ParamStore(9, "mlp")
    ad.mlp_init(store, "net", [2, 8, 1])
    x = Tensor(np.random.default_rng(4).standard_normal((3, 2)))
    errors = gradcheck(lambda: ad.tsum(ad.mlp_apply(store, "net", [x])), store,
                       epsilon=1e-5)
    assert max(errors.values()) < 1e-4


def test_gradcheck_flags_grad_reverse_mismatch():
    # loss = sum(grad_reverse(w)): analytic gradient is -1 per entry while
    # finite differences see +1 -- the reversal is not a true derivative
    store = ParamStore(1, "p")
    store.add("w", (3,))
    errors = gradcheck(lambda: ad.tsum(ad.grad_reverse(store["w"], 1.0)), store,
                       epsilon=1e-5)
    assert errors["w"] > 1.0
    assert max(errors.values()) >= 1e-4


def test_gradcheck_rejects_bad_epsilon():
    store = ParamStore(1, "p")
    store.add("w", (2,))
    for eps in (1e-9, 1e-2):
        with pytest.raises(ValueError):
            gradcheck(lambda: ad.tsum(store["w"]), store, epsilon=eps)


def test_gradcheck_rejects_nonscalar_output():
    store = ParamStore(1, "p")
    store.add("w", (2,))
    with pytest.raises(GraphError, match="scalar"):
        gradcheck(lambda: ad.mul(store["w"], 2.0), store, epsilon=1e-5)


def test_gradcheck_is_pure():
    store = ParamStore(1, "p")
    store.add("w", (3,))
    before = store.state_dict()
    gradcheck(lambda: ad.tsum(ad.mul(store["w"], store["w"])), store, epsilon=1e-5)
    assert np.array_equal(store["w"].data, before["w"])
    assert store["w"].grad is None


# ---------------------------------------------------------------------------
# op coverage against finite differences


@pytest.mark.parametrize("build", [
    lambda s, x: ad.tsum(ad.tanh(ad.affine(x, s["net.w0"], s["net.b0"]))),
    lambda s, x: ad.tsum(ad.relu(ad.affine(x, s["net.w0"], s["net.b0"]))),
    lambda s, x: ad.tsum(ad.softmax(ad.affine(x, s["net.w0"], s["net.b0"]))),
    lambda s, x: ad.tsum(ad.log(ad.add(ad.mul(ad.affine(x, s["net.w0"], s["net.b0"]),
                                              ad.affine(x, s["net.w0"], s["net.b0"])), 1.0))),
    lambda s, x: ad.mse(ad.affine(x, s["net.w0"], s["net.b0"]), ad.mul(x, 0.0)),
    lambda s, x: ad.tmean(ad.concat([ad.affine(x, s["net.w0"], s["net.b0"]), x])),
    lambda s, x: ad.tsum(ad.symmetric_mean(ad.tanh(ad.affine(x, s["net.w0"], s["net.b0"])), axis=0)),
])
def test_op_gradients_match_finite_differences(build):
    store = ParamStore(21, "ops")
    ad.mlp_init(store, "net", [3, 3])

    x = Tensor(np.random.default_rng(8).standard_normal((4, 3)) * 0.7)
    errors = gradcheck(lambda: build(store, x), store, epsilon=1e-5)
    assert max(errors.values()) < 1e-4


def test_softmax_cross_entropy_gradient():
    store = ParamStore(13, "ce")
    ad.mlp_init(store, "net", [3, 4])
    labels = np.array([0, 2, 1, 3, 3])

    x = Tensor(np.random.default_rng(3).standard_normal((5, 3)))

    def loss():
        return ad.softmax_cross_entropy(ad.mlp_apply(store, "net", [x]), labels)

    errors = gradcheck(loss, store, epsilon=1e-5)
    assert max(errors.values()) < 1e-4


def test_cross_entropy_node_is_the_shared_cross_entropy_scaled_by_g_over_n():
    # 3-D (n, L, K) logits under an upstream gradient of 0.37, as w_dat
    # scales the probe's loss in the joint step
    rng = np.random.default_rng(8)
    logits = Tensor(3.0 * rng.standard_normal((3, 4, 5)), requires_grad=True)
    labels = rng.integers(0, 5, size=(3, 4))
    loss = ad.softmax_cross_entropy(logits, labels)
    ad.mul(loss, 0.37).backward()
    softmax, delta, ce = ad.softmax_ce_parts(logits.data.reshape(-1, 5), labels.reshape(-1))
    assert loss.data.item() == ce
    assert logits.grad.tobytes() == ((0.37 / 12) * delta.reshape(3, 4, 5)).tobytes()
    onehot = np.eye(5)[labels.reshape(-1)]
    np.testing.assert_allclose(softmax.sum(axis=-1), 1.0, rtol=1e-15)
    np.testing.assert_array_equal(delta, softmax - onehot)
    np.testing.assert_allclose(ce, -np.log(softmax[np.arange(12), labels.reshape(-1)]).mean(),
                               rtol=1e-14)


def test_gather_rows_sparse_gradient():
    store = ParamStore(5, "table")
    table = store.add("emb", (6, 3))
    out = ad.tsum(ad.gather_rows(table, np.array([1, 1, 4])))
    out.backward()
    expected = np.zeros((6, 3))
    expected[1] = 2.0
    expected[4] = 1.0
    assert np.array_equal(table.grad, expected)


def test_cross_entropy_label_out_of_range():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(GraphError, match="label"):
        ad.softmax_cross_entropy(logits, np.array([0, 3]))


# ---------------------------------------------------------------------------
# invariants


def test_determinism_forward_backward_bitwise():
    def run():
        store = ParamStore(42, "det")
        ad.mlp_init(store, "net", [4, 8, 2])
        x = np.random.default_rng(0).standard_normal((5, 4))
        loss = ad.tmean(ad.mul(h := ad.mlp_apply(store, "net", [Tensor(x)]), h))
        store.zero_grad()
        loss.backward()
        return float(loss.data), {k: t.grad.copy() for k, t in store.tensors().items()}

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_composition_chain_rule(seed):
    # gradient of f(g(x)) equals the chain-rule product on random small graphs
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    x_val = rng.standard_normal(3)

    x = Tensor(x_val, requires_grad=True)
    inner = ad.tanh(ad.affine(x, Tensor(a), Tensor(b)))
    loss = ad.tsum(ad.mul(inner, inner))
    loss.backward()

    # hand chain rule: d/dx sum(tanh(xA+b)^2) = A @ (2*tanh*(1-tanh^2))
    h = np.tanh(x_val @ a + b)
    hand = a @ (2.0 * h * (1.0 - h * h))
    assert np.allclose(x.grad, hand, rtol=1e-12, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_graph_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed, "rand")
    ad.mlp_init(store, "net", [3, 5, 2])

    x = Tensor(rng.standard_normal((4, 3)))
    # a central difference that straddles relu's kink is no reference
    assume(np.abs(ad.mlp_apply(store, "net", [x]).data).min() >= 1e-3)

    def loss():
        h = ad.mlp_apply(store, "net", [x])
        return ad.add(ad.mse(h, Tensor(np.zeros((4, 2)))), ad.tmean(ad.relu(h)))

    errors = gradcheck(loss, store, epsilon=1e-5)
    assert max(errors.values()) < 1e-4


def test_param_store_roundtrip_and_named_init():
    s1 = ParamStore(123, "a")
    s1.add("w", (4, 3))
    s2 = ParamStore(123, "a")
    s2.add("w", (4, 3))
    assert np.array_equal(s1["w"].data, s2["w"].data)
    # different store name -> different values
    s3 = ParamStore(123, "b")
    s3.add("w", (4, 3))
    assert not np.array_equal(s1["w"].data, s3["w"].data)
    limit = np.sqrt(6.0 / (4 + 3))
    assert np.abs(s1["w"].data).max() <= limit


# ---------------------------------------------------------------------------
# the MLP node


def _chain(store, prefix, blocks, n_layers):
    """The MLP of one input block as a chain of affine and tanh nodes: the
    reference that mlp_apply's single node must match bit for bit."""
    (h,) = blocks
    for i in range(n_layers):
        h = ad.affine(h, store[f"{prefix}.w{i}"], store[f"{prefix}.b{i}"])
        if i < n_layers - 1:
            h = ad.tanh(h)
    return h


def _mlp_store(n_layers, seed=4):
    store = ParamStore(seed, "p")
    ad.mlp_init(store, "net", [3] + [5] * (n_layers - 1) + [2])
    return store


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("input_grad", [False, True])
def test_mlp_node_gradcheck(n_layers, input_grad):
    store = _mlp_store(n_layers)
    rng = np.random.default_rng(n_layers)
    # a batch of (n, L, D) rows, as the encoder, generator and score net feed it
    x = store.add("x", (2, 4, 3)) if input_grad else Tensor(rng.standard_normal((2, 4, 3)))
    coeff = Tensor(rng.standard_normal((2, 4, 2)))
    errors = gradcheck(lambda: ad.tsum(ad.mul(ad.mlp_apply(store, "net", [x]), coeff)),
                       store)
    assert set(errors) == set(store.tensors())
    assert max(errors.values()) < 1e-6


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_mlp_node_is_bitwise_the_affine_tanh_chain(n_layers):
    # one store under two nodes in one graph, as dsm and dsm_null share the
    # score net, and an input that takes a gradient from both
    rng = np.random.default_rng(10 + n_layers)
    x0, x1 = rng.standard_normal((6, 3)), rng.standard_normal((16, 8, 3))
    labels = rng.integers(0, 2, size=6)
    target = rng.standard_normal((16, 8, 2))
    results = []
    # the node reads its depth from the store; the reference chain is told it
    for mlp in (lambda *args: _chain(*args, n_layers), ad.mlp_apply):
        store = _mlp_store(n_layers, seed=7)
        x = Tensor(x0, requires_grad=True)
        first = mlp(store, "net", [x])
        second = mlp(store, "net", [Tensor(x1)])
        ad.add(ad.softmax_cross_entropy(first, labels), ad.mse(second, Tensor(target))).backward()
        results.append([first.data, second.data, x.grad]
                       + [t.grad for t in store.tensors().values()])
    for reference, node in zip(*results):
        assert reference.tobytes() == node.tobytes()


def test_mlp_repeats_per_utterance_blocks_over_the_frames():
    # per-frame (n, L, w) blocks and per-utterance (n, w) blocks, side by side
    store = _mlp_store(2)
    rng = np.random.default_rng(3)
    frames, cond = rng.standard_normal((4, 5, 1)), rng.standard_normal((4, 2))
    joined = np.concatenate([frames, np.broadcast_to(cond[:, None, :], (4, 5, 2))], axis=-1)
    assert (ad.mlp_eval(store, "net", [frames, cond]).tobytes()
            == ad.mlp_eval(store, "net", [joined]).tobytes())
    with pytest.raises(GraphError, match=r"\(4, 5, 1\), \(1, 2\)\] differ in rows"):
        ad.mlp_eval(store, "net", [frames, cond[:1]])


@pytest.mark.parametrize("per_row_t", [False, True])
def test_blocked_inference_is_bitwise_the_whole_batch(per_row_t):
    # inference runs per-frame rows in blocks of utterances; the layers path
    # (training's) runs the whole batch. Frames of length 5 leave a remainder
    # block of every size below, and frames longer than a block run one
    # utterance at a time; the per-utterance block stands for a time
    # embedding, one row broadcast (one t) or a row per utterance
    store = _mlp_store(3)
    per = ad._BLOCK_ROWS // 5
    rng = np.random.default_rng([20, per_row_t])
    for n, length in ((1, 5), (per, 5), (per + 1, 5), (2 * per + 3, 5), (2, ad._BLOCK_ROWS + 1)):
        frames = rng.standard_normal((n, length, 1))
        t_rows = rng.standard_normal((n, 2)) if per_row_t else np.broadcast_to(
            rng.standard_normal(2), (n, 2))
        for blocks in ([frames, t_rows], [np.concatenate(
                [frames, np.broadcast_to(t_rows[:, None, :], (n, length, 2))], axis=-1)]):
            whole = ad.mlp_eval(store, "net", blocks, [])
            blocked = ad.mlp_eval(store, "net", blocks)
            assert blocked.shape == (n, length, 2)
            assert blocked.tobytes() == whole.tobytes(), n


def test_mlp_input_width_is_checked_against_the_first_weight():
    store = _mlp_store(2)
    per = ad._BLOCK_ROWS // 4
    for blocks in ([np.zeros((3, 4))], [np.zeros((3, 4, 1)), np.zeros((3, 3))],
                   [np.zeros((per + 1, 4, 4))]):
        with pytest.raises(GraphError, match=r"'p\.net' takes rows of width 3, got 4"):
            ad.mlp_eval(store, "net", blocks)
        with pytest.raises(GraphError, match=r"'p\.net' takes rows of width 3, got 4"):
            ad.mlp_apply(store, "net", blocks)


def test_mlp_node_names_the_layer_of_an_infinite_pre_activation():
    # tanh maps the infinite pre-activation of layer 1 to 1, so the output
    # stays finite: only the check inside the node sees it
    store = _mlp_store(3)
    store["net.w0"].data[:] = 1.0
    store["net.w1"].data[:] = 1e308
    x = Tensor(np.ones((2, 3)))
    with np.errstate(over="ignore"):
        assert np.isfinite(ad.mlp_eval(store, "net", [x.data])).all()
        with pytest.raises(GraphError, match=r"non-finite values in node 'p\.net layer 1'"):
            ad.mlp_apply(store, "net", [x])
