"""Unit + gradient tests for layers, attention, transformer, RNN, optim."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    BiLSTMSummarizer,
    BilinearAttention,
    Dropout,
    Embedding,
    LSTMCell,
    LayerNorm,
    Linear,
    MLP,
    Module,
    MultiHeadSelfAttention,
    NEG_INF,
    ParamGroup,
    PointerNetwork,
    Tensor,
    TransformerEncoder,
    concat,
    inference_mode,
    load_module,
    log_softmax,
    save_module,
    sinusoidal_positions,
    softmax,
)
from repro.errors import ModelError

RNG = np.random.default_rng(11)


def gradcheck_params(fn, params, *, tol=2e-5, samples=10):
    """Spot-check analytic vs numeric gradients on random entries."""
    for parameter in params:
        parameter.zero_grad()
    fn().backward()
    rng = np.random.default_rng(3)
    for parameter in params:
        analytic = parameter.grad
        if analytic is None:
            analytic = np.zeros_like(parameter.data)
        flat = parameter.data.reshape(-1)
        indices = rng.choice(flat.size, size=min(flat.size, samples), replace=False)
        for i in indices:
            original = flat[i]
            eps = 1e-6
            flat[i] = original + eps
            upper = fn().item()
            flat[i] = original - eps
            lower = fn().item()
            flat[i] = original
            numeric = (upper - lower) / (2 * eps)
            assert abs(analytic.reshape(-1)[i] - numeric) < tol, (
                f"grad mismatch: {analytic.reshape(-1)[i]} vs {numeric}"
            )


def zero_state(cell):
    """A zero ``(h, c)`` state for one unbatched ``LSTMCell`` sequence."""
    return Tensor(np.zeros(cell.hidden_dim)), Tensor(np.zeros(cell.hidden_dim))


def summarize_span(summarizer, span):
    """One (n, d_in) span, one ``LSTMCell`` call per position and
    direction: the per-span oracle for ``BiLSTMSummarizer.summarize_spans``."""
    n = span.shape[0]
    forward = zero_state(summarizer.forward_cell)
    for t in range(n):
        forward = summarizer.forward_cell(span[t], forward)
    backward = zero_state(summarizer.backward_cell)
    for t in range(n - 1, -1, -1):
        backward = summarizer.backward_cell(span[t], backward)
    combined = concat([forward[0], backward[0]], axis=-1)
    return (combined @ summarizer.projection).tanh()


def masked_heads_attention(attention, x, mask):
    """A per-head loop over the padded batch with NEG_INF on padded keys:
    the oracle for ``MultiHeadSelfAttention``'s per-example heads."""
    q, k, v = attention.query(x), attention.key(x), attention.value(x)
    penalty = Tensor(np.where(mask, 0.0, NEG_INF)[..., None, :])
    heads = []
    for h in range(attention.num_heads):
        lo, hi = h * attention.head_dim, (h + 1) * attention.head_dim
        scores = (q[..., lo:hi] @ k[..., lo:hi].swapaxes(-1, -2)) * (
            1.0 / math.sqrt(attention.head_dim)
        )
        heads.append(softmax(scores + penalty, axis=-1) @ v[..., lo:hi])
    return attention.dropout(attention.output(concat(heads, axis=-1)))


class TestModuleSystem:
    def test_named_parameters_walks_tree(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(3, 4, RNG)
                self.layers = [Linear(4, 4, RNG), Linear(4, 2, RNG)]

        names = dict(Net().named_parameters())
        assert "layer.weight" in names
        assert "layers.0.weight" in names
        assert "layers.1.bias" in names

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.dropout = Dropout(0.5, RNG)
                self.inner = [Dropout(0.5, RNG)]

        net = Net()
        net.eval()
        assert not net.dropout.training
        assert not net.inner[0].training
        net.train()
        assert net.dropout.training

    def test_num_parameters(self):
        layer = Linear(3, 4, RNG)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        layer = Linear(2, 2, RNG)
        (layer(Tensor(np.ones(2))).sum()).backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_dropout_needs_training_flag_and_autograd(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = Tensor(np.ones(64))
        assert layer.training
        assert not np.array_equal(layer(x).data, x.data)
        with inference_mode():
            # Thread-local: another thread's train() cannot switch it on.
            assert layer(x) is x
        layer.eval()
        assert layer(x) is x

    def test_linear_shapes(self):
        layer = Linear(5, 7, RNG)
        assert layer(Tensor(np.ones(5))).shape == (7,)
        assert layer(Tensor(np.ones((3, 5)))).shape == (3, 7)

    def test_linear_no_bias(self):
        layer = Linear(5, 7, RNG, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_gradcheck(self):
        layer = Linear(4, 3, RNG)
        x = Tensor(RNG.normal(size=4))
        gradcheck_params(lambda: -log_softmax(layer(x))[1], layer.parameters())

    def test_embedding_lookup(self):
        embedding = Embedding(10, 4, RNG)
        out = embedding([1, 5, 1])
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.data[0], out.data[2])

    def test_embedding_gradient_accumulates_repeats(self):
        embedding = Embedding(10, 4, RNG)
        embedding([2, 2, 2]).sum().backward()
        np.testing.assert_allclose(embedding.weight.grad[2], 3.0)

    def test_layernorm_statistics(self):
        norm = LayerNorm(8)
        out = norm(Tensor(RNG.normal(size=(5, 8)) * 10 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), 1, atol=1e-4)

    def test_layernorm_gradcheck(self):
        norm = LayerNorm(6)
        x = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
        weights = Tensor(RNG.normal(size=(2, 6)))
        gradcheck_params(lambda: (norm(x) * weights).sum(), [x, *norm.parameters()])

    def test_layernorm_is_bit_identical_to_the_np_var_formula(self):
        norm = LayerNorm(8)
        norm.gain.data[:] = RNG.normal(size=8)
        norm.shift.data[:] = RNG.normal(size=8)
        x = RNG.normal(size=(3, 5, 8)) * 10 + 3
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        want = (x - mean) * (1.0 / np.sqrt(var + 1e-5)) * norm.gain.data + norm.shift.data
        np.testing.assert_array_equal(norm(Tensor(x)).data, want)

    def test_mlp_forward(self):
        mlp = MLP(4, 8, 2, RNG)
        assert mlp(Tensor(np.ones(4))).shape == (2,)


class TestAttention:
    def test_self_attention_shape(self):
        attention = MultiHeadSelfAttention(8, 2, RNG, dropout_rate=0.0)
        out = attention(Tensor(RNG.normal(size=(5, 8))))
        assert out.shape == (5, 8)

    def test_dim_head_mismatch_raises(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2, RNG)

    def test_self_attention_gradcheck(self):
        attention = MultiHeadSelfAttention(6, 2, RNG, dropout_rate=0.0)
        attention.eval()
        x = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
        gradcheck_params(
            lambda: -log_softmax(attention(x).sum(axis=0))[2],
            [x] + attention.parameters()[:2],
        )

    @settings(max_examples=40)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=4), st.integers(0, 2**16))
    def test_unequal_lengths_equal_the_masked_per_head_loop(self, lengths, seed):
        rng = np.random.default_rng(seed)
        attention = MultiHeadSelfAttention(8, 2, rng, dropout_rate=0.0)
        attention.output.bias.data[:] = rng.normal(size=8)
        lengths = np.array(lengths)
        n = int(lengths.max())
        x = Tensor(rng.normal(size=(len(lengths), n, 8)))
        got = attention(x, lengths=lengths).data
        want = masked_heads_attention(attention, x, np.arange(n) < lengths[:, None]).data
        for row, m in enumerate(lengths):
            np.testing.assert_allclose(got[row, :m], want[row, :m], rtol=0, atol=1e-12)
            # A padded row's heads are zeros: only the output bias is left.
            np.testing.assert_array_equal(
                got[row, m:], np.broadcast_to(attention.output.bias.data, (n - m, 8))
            )

    def test_equal_lengths_take_the_one_matmul_path(self):
        attention = MultiHeadSelfAttention(8, 2, RNG, dropout_rate=0.0)
        x = Tensor(RNG.normal(size=(3, 5, 8)))
        batched = attention(x, lengths=np.array([5, 5, 5])).data
        np.testing.assert_array_equal(batched, attention(x).data)
        for row in range(3):
            np.testing.assert_allclose(
                batched[row], attention(x[row]).data, rtol=0, atol=1e-12
            )

    def test_self_attention_gradcheck_through_unequal_lengths(self):
        attention = MultiHeadSelfAttention(6, 2, np.random.default_rng(4), dropout_rate=0.0)
        lengths = np.array([2, 4, 3])
        x = Tensor(RNG.normal(size=(3, 4, 6)), requires_grad=True)
        # Zero weight on padded rows: only real positions are read downstream.
        weights = Tensor(RNG.normal(size=(3, 4, 6)) * (np.arange(4) < lengths[:, None])[..., None])
        gradcheck_params(
            lambda: (attention(x, lengths=lengths) * weights).sum(),
            [x] + attention.parameters(),
        )

    def test_pointer_network_scores(self):
        pointer = PointerNetwork(6, 8, 10, RNG)
        scores = pointer(Tensor(RNG.normal(size=6)), Tensor(RNG.normal(size=(5, 8))))
        assert scores.shape == (5,)

    def test_pointer_gradcheck(self):
        pointer = PointerNetwork(4, 5, 6, RNG)
        q = Tensor(RNG.normal(size=4), requires_grad=True)
        memory = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        gradcheck_params(
            lambda: -log_softmax(pointer(q, memory))[1],
            [q, memory] + pointer.parameters(),
        )

    def test_stacked_pointer_scores_each_query_against_its_own_bank(self):
        pointer = PointerNetwork(4, 5, 6, RNG)
        q = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        memory = Tensor(RNG.normal(size=(3, 7, 5)), requires_grad=True)
        stacked = pointer(q, memory)
        assert stacked.shape == (3, 7)
        for row in range(3):
            np.testing.assert_allclose(
                stacked.data[row], pointer(q[row], memory[row]).data, rtol=0, atol=1e-12
            )
        gradcheck_params(
            lambda: -log_softmax(pointer(q, memory))[(np.arange(3), [1, 4, 6])].sum(),
            [q, memory] + pointer.parameters(),
        )

    def test_bilinear_attention(self):
        attention = BilinearAttention(4, 6, RNG)
        scores = attention(Tensor(RNG.normal(size=4)), Tensor(RNG.normal(size=(5, 6))))
        assert scores.shape == (5,)


class TestTransformer:
    def test_encoder_shape_preserved(self):
        encoder = TransformerEncoder(8, 2, 2, 16, RNG, dropout_rate=0.0)
        out = encoder(Tensor(RNG.normal(size=(7, 8))))
        assert out.shape == (7, 8)

    def test_encoder_gradcheck(self):
        encoder = TransformerEncoder(8, 1, 2, 12, RNG, dropout_rate=0.0)
        encoder.eval()
        x = Tensor(RNG.normal(size=(4, 8)), requires_grad=True)
        gradcheck_params(
            lambda: -log_softmax(encoder(x).sum(axis=0))[1],
            [x] + encoder.parameters()[:3],
            tol=5e-5,
        )

    def test_sinusoidal_positions(self):
        positions = sinusoidal_positions(10, 8)
        assert positions.shape == (10, 8)
        assert np.abs(positions).max() <= 1.0
        # distinct positions get distinct encodings
        assert not np.allclose(positions[0], positions[5])


class TestRnn:
    def test_cell_shapes(self):
        cell = LSTMCell(4, 6, RNG)
        h, c = cell(Tensor(np.ones(4)), zero_state(cell))
        assert h.shape == (6,) and c.shape == (6,)

    def test_forget_bias_initialized(self):
        cell = LSTMCell(4, 6, RNG)
        np.testing.assert_array_equal(cell.bias.data[6:12], 1.0)

    def test_lstm_gradcheck(self):
        cell = LSTMCell(3, 4, RNG)
        sequence = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)

        def run():
            state = zero_state(cell)
            for t in range(3):
                state = cell(sequence[t], state)
            return (state[0] * state[0]).sum()

        gradcheck_params(run, [sequence] + cell.parameters(), tol=5e-5)

    def test_bilstm_summary_shape(self):
        summarizer = BiLSTMSummarizer(4, 5, 6, RNG)
        contextual = Tensor(RNG.normal(size=(1, 3, 4)))
        summary = summarizer.summarize_spans(contextual, *_span_arrays([(0, 0, 3)]))
        assert summary.shape == (1, 6)

    def test_bilstm_single_token(self):
        summarizer = BiLSTMSummarizer(4, 5, 6, RNG)
        contextual = Tensor(RNG.normal(size=(1, 1, 4)))
        summary = summarizer.summarize_spans(contextual, *_span_arrays([(0, 0, 1)]))
        assert summary.shape == (1, 6)

    def test_bilstm_direction_sensitivity(self):
        summarizer = BiLSTMSummarizer(4, 5, 6, RNG)
        span = RNG.normal(size=(3, 4))
        contextual = Tensor(np.stack([span, span[::-1]]))
        forward, backward = summarizer.summarize_spans(
            contextual, *_span_arrays([(0, 0, 3), (1, 0, 3)])
        ).data
        assert not np.allclose(forward, backward)


def _span_arrays(spans):
    """``(row, start, length)`` triples -> the three index arrays."""
    return tuple(np.array(spans, dtype=np.int64).T)


@st.composite
def _padded_batch_and_spans(draw):
    """A (batch, T, d) input and 1..12 spans ``(row, start, length)`` over it:
    any lengths 1..T, overlapping and duplicated, in any order."""
    batch = draw(st.integers(1, 3))
    length = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**16))
    span = st.integers(1, length).flatmap(
        lambda n: st.tuples(
            st.integers(0, batch - 1), st.integers(0, length - n), st.just(n)
        )
    )
    spans = draw(st.lists(span, min_size=1, max_size=12))
    if draw(st.booleans()):  # the all-lengths-equal case, on purpose
        n = spans[0][2]
        spans = [(row, min(start, length - n), n) for row, start, _ in spans]
    return np.random.default_rng(seed).normal(size=(batch, length, 4)), spans


class TestPackedSummarizer:
    """``summarize_spans`` against the per-span oracle."""

    @settings(max_examples=60)
    @given(_padded_batch_and_spans())
    def test_rows_equal_the_per_span_summarizer_in_input_order(self, case):
        data, spans = case
        summarizer = BiLSTMSummarizer(4, 5, 6, np.random.default_rng(5))
        contextual = Tensor(data)
        packed = summarizer.summarize_spans(contextual, *_span_arrays(spans))
        assert packed.shape == (len(spans), 6)
        for got, (row, start, n) in zip(packed.data, spans):
            want = summarize_span(summarizer, contextual[row, start:start + n])
            np.testing.assert_allclose(got, want.data, rtol=0, atol=1e-9)

    def test_gradcheck_through_unequal_lengths(self):
        # Lengths 1, 3, 2, 3 given out of order: the finished-rows concat
        # and the un-sort gather both sit on the differentiated path.
        summarizer = BiLSTMSummarizer(3, 4, 5, np.random.default_rng(7))
        contextual = Tensor(RNG.normal(size=(2, 4, 3)), requires_grad=True)
        arrays = _span_arrays([(1, 2, 1), (0, 0, 3), (1, 1, 2), (0, 1, 3)])
        weights = Tensor(RNG.normal(size=(4, 5)))

        def run():
            return (summarizer.summarize_spans(contextual, *arrays) * weights).sum()

        gradcheck_params(run, [contextual] + summarizer.parameters(), tol=5e-5)


class TestOptim:
    def test_adam_minimizes_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = Adam.single_group([x], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            (x * x).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(x.data, 0.0, atol=1e-2)

    def test_param_groups_have_independent_rates(self):
        fast = Tensor(np.array([1.0]), requires_grad=True)
        slow = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam(
            [ParamGroup([fast], lr=0.1), ParamGroup([slow], lr=0.0001)]
        )
        optimizer.zero_grad()
        ((fast * fast).sum() + (slow * slow).sum()).backward()
        optimizer.step()
        assert abs(1.0 - fast.data[0]) > abs(1.0 - slow.data[0])

    def test_gradient_clipping(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam.single_group([x], lr=0.1, max_grad_norm=1.0)
        optimizer.zero_grad()
        (x * 1e6).sum().backward()
        norm = optimizer.step()
        assert norm > 1.0  # pre-clip norm reported
        assert np.isfinite(x.data).all()

    def test_none_gradients_skipped(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam.single_group([x], lr=0.1)
        optimizer.step()  # no backward happened; must not crash
        np.testing.assert_array_equal(x.data, [1.0])


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        layer = Linear(3, 4, RNG)
        save_module(layer, tmp_path / "m.npz")
        other = Linear(3, 4, np.random.default_rng(99))
        assert not np.allclose(other.weight.data, layer.weight.data)
        load_module(other, tmp_path / "m.npz")
        np.testing.assert_array_equal(other.weight.data, layer.weight.data)

    def test_shape_mismatch_raises(self, tmp_path):
        save_module(Linear(3, 4, RNG), tmp_path / "m.npz")
        with pytest.raises(ModelError):
            load_module(Linear(3, 5, RNG), tmp_path / "m.npz")

    def test_missing_parameter_raises(self, tmp_path):
        save_module(Linear(3, 4, RNG, bias=False), tmp_path / "m.npz")
        with pytest.raises(ModelError):
            load_module(Linear(3, 4, RNG), tmp_path / "m.npz")
