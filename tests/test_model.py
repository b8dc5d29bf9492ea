"""Model forward/backward tests.

The backward pass is verified against central finite differences of the
scalar objective dz . logits(theta), treating the whole parameter set as one
flat vector. That oracle exercises every weight block at once and would
catch a wrong transpose, a dropped term, or a stale cache slot. A stack of
windows is checked against the same windows passed one at a time, and one window
against a stack of one, bit for bit. The stages' properties are read from the
cache, which holds every stage's output.
"""

import re
import tracemalloc
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contention.train as train_module
from contention.data import NUM_CLASSES
from contention.errors import ConfigError, ShapeError
from contention.graph import MetricGraph, identity_graph
from contention.model import (
    MAX_PARAMETERS,
    ModelConfig,
    ForwardCache,
    ModelParams,
    backward,
    forward,
    init_params,
    predict,
)
from contention.rng import RngStream

from conftest import TINY_T, finite_diff_check, random_dataset, random_graph


def _window(t, d, seed):
    return RngStream(seed, (20,)).generator().normal(size=(t, d))


class TestConfigAndParams:
    def test_defaults(self):
        """Four layer widths; T is no setting but the weights' own, taken from the data."""
        cfg = ModelConfig()
        assert [f.name for f in fields(cfg)] == [
            "encoder_hidden", "embed_width", "propagation_width", "head_hidden"
        ]
        shapes = {name: shape for name, shape, _ in ModelParams.layout(cfg, 32)}
        assert shapes["enc_w1"] == (32, 64)
        assert shapes["head_c"] == (NUM_CLASSES,)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigError, match="head_hidden"):
            ModelConfig(head_hidden=0)

    def test_parameter_count_is_bounded_before_allocation(self):
        """Widths or a window length asking for ~10**12 parameters (7.28 TiB)
        fail on the count alone, whichever of them is large, in the layout as
        in init_params."""
        huge = ModelConfig(encoder_hidden=1_000_000, embed_width=1_000_000)  # widths alone pass
        tracemalloc.start()
        try:
            for cfg, t in ((huge, 32), (ModelConfig(), 10**10)):
                for build in (ModelParams.layout, lambda c, t: init_params(c, t, RngStream(0))):
                    with pytest.raises(ConfigError, match=f"limit of {MAX_PARAMETERS}"):
                        build(cfg, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        layout = ModelParams.layout(ModelConfig(), 32)
        count = sum(int(np.prod(shape)) for _, shape, _ in layout)
        assert ModelParams.zeros(ModelConfig(), 32).flat.size == count

    def test_shapes_have_no_metric_dimension(self, tiny_model_cfg):
        """Weight shapes depend on T and widths only, never on D."""
        layout = ModelParams.layout(tiny_model_cfg, TINY_T)
        dims = {n for _, shape, _ in layout for n in shape}
        assert dims == {
            TINY_T,
            NUM_CLASSES,
            tiny_model_cfg.encoder_hidden,
            tiny_model_cfg.embed_width,
            tiny_model_cfg.propagation_width,
            tiny_model_cfg.head_hidden,
        }

    def test_vector_round_trip(self, tiny_model_cfg):
        """Params built on a flat vector share its memory: no copy either way."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(0))
        q = ModelParams(tiny_model_cfg, TINY_T, p.flat)
        assert q.flat is p.flat
        for name, _, _ in ModelParams.layout(tiny_model_cfg, TINY_T):
            assert np.shares_memory(getattr(q, name), p.flat)
            assert np.array_equal(getattr(p, name), getattr(q, name))
        p.flat[0] += 1.0
        assert q.enc_w1[0, 0] == p.flat[0]

    def test_from_vector_wrong_length(self, tiny_model_cfg):
        with pytest.raises(ShapeError, match="flat vector"):
            ModelParams(tiny_model_cfg, TINY_T, np.zeros(7))

    def test_blocks_cannot_be_rebound(self, tiny_model_cfg):
        """Rebinding a block would detach it from the flat buffer."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(0))
        with pytest.raises(AttributeError):
            p.prop_w2 = np.zeros_like(p.prop_w2)

    def test_block_slices_partition_the_vector(self, tiny_model_cfg):
        """The layout's slices tile the buffer in order, each as long as its shape."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(1))
        vec = p.flat
        layout = ModelParams.layout(tiny_model_cfg, TINY_T)
        assert layout[0][2].start == 0
        assert layout[-1][2].stop == vec.size
        for (_, _, a), (_, _, b) in zip(layout, layout[1:]):
            assert a.stop == b.start
        for name, shape, s in layout:
            assert s.stop - s.start == int(np.prod(shape))
            assert np.array_equal(vec[s].reshape(shape), getattr(p, name))

    def test_copy_is_deep(self, tiny_model_cfg):
        a = init_params(tiny_model_cfg, TINY_T, RngStream(4))
        b = a.copy()
        b.enc_w1[0, 0] += 1.0
        assert a.enc_w1[0, 0] != b.enc_w1[0, 0]


class TestInit:
    def test_deterministic(self, tiny_model_cfg):
        a = init_params(tiny_model_cfg, TINY_T, RngStream(7))
        b = init_params(tiny_model_cfg, TINY_T, RngStream(7))
        assert np.array_equal(a.flat, b.flat)

    def test_seed_changes_weights(self, tiny_model_cfg):
        a = init_params(tiny_model_cfg, TINY_T, RngStream(7))
        b = init_params(tiny_model_cfg, TINY_T, RngStream(8))
        assert not np.array_equal(a.flat, b.flat)

    def test_biases_zero_weights_bounded(self, tiny_model_cfg):
        cfg = tiny_model_cfg
        p = init_params(cfg, TINY_T, RngStream(9))
        for name in ("enc_b1", "enc_b2", "prop_b1", "prop_b2", "head_b", "head_c"):
            assert np.all(getattr(p, name) == 0.0)
        bounds = {
            "enc_w1": (cfg.encoder_hidden, TINY_T),
            "enc_w2": (cfg.embed_width, cfg.encoder_hidden),
            "prop_w1": (cfg.embed_width, cfg.propagation_width),
            "prop_w2": (cfg.propagation_width, cfg.propagation_width),
            "head_w": (cfg.head_hidden, cfg.propagation_width),
            "head_u": (1, cfg.head_hidden),  # drawn one row per head
        }
        for name, (rows, cols) in bounds.items():
            w = getattr(p, name)
            a = np.sqrt(6.0 / (rows + cols))
            assert np.all(np.abs(w) < a), name
            assert np.any(w != 0.0)

    def test_heads_initialized_independently(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(10))
        for i in range(NUM_CLASSES):
            for j in range(i + 1, NUM_CLASSES):
                assert not np.array_equal(p.head_w[i], p.head_w[j])
                assert not np.array_equal(p.head_u[i], p.head_u[j])


class TestEncode:
    """The shared encoder's output, `cache.h`."""

    def test_shape_and_stage(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(0))
        x = _window(8, 4, 1)
        assert forward(x, identity_graph(4), p)[1].h.shape == (4, tiny_model_cfg.embed_width)
        stacked = forward(np.stack([x, x, x]), identity_graph(4), p)[1].h
        assert stacked.shape == (3, 4, tiny_model_cfg.embed_width)

    def test_columns_encoded_independently(self, tiny_model_cfg):
        """Shared encoder: batch output equals one-column-at-a-time output."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(1))
        x = _window(8, 5, 2)
        h = forward(x, random_graph(5, seed=2), p)[1].h
        for j in range(5):
            single = forward(x[:, j : j + 1], identity_graph(1), p)[1].h
            assert np.max(np.abs(single[0] - h[j])) <= 1e-15

    def test_metric_permutation_equivariance(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(2))
        x = _window(8, 6, 3)
        perm = np.array([3, 0, 5, 1, 4, 2])
        a = forward(x, identity_graph(6), p)[1].h[perm]
        b = forward(x[:, perm], identity_graph(6), p)[1].h
        assert np.array_equal(a, b)

    def test_wrong_window_len(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(3))
        for lead in ((), (3,)):
            with pytest.raises(ShapeError, match="^window has 9 timesteps, encoder expects 8$"):
                forward(np.zeros(lead + (9, 5)), identity_graph(4), p)

    def test_rejects_1d(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(3))
        for shape in ((8,), (2, 2, 8, 4)):
            with pytest.raises(ShapeError, match=re.escape(
                    f"expected a (T, D) window or an (N, T, D) stack, got shape {shape}")):
                forward(np.zeros(shape), identity_graph(4), p)


class TestPropagate:
    """The two propagation hops' output, `cache.ht`."""

    def test_stage_and_shape(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(0))
        g = random_graph(4, seed=0)
        _, cache = forward(_window(8, 4, 1), g, p)
        assert cache.ht.shape == (4, tiny_model_cfg.propagation_width)

    def test_dim_mismatch(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(0))
        for lead in ((), (3,)):
            with pytest.raises(ShapeError, match=(
                    "^graph has 5 vertices but the embeddings cover 4 metrics$")):
                forward(np.zeros(lead + (8, 4)), random_graph(5, seed=0), p)

    def test_identity_graph_keeps_nodes_independent(self, tiny_model_cfg):
        """With no edges each node's output depends only on its own series."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(4))
        x = _window(8, 4, 5)
        y = x.copy()
        y[:, 2] += 10.0
        a = forward(x, identity_graph(4), p)[1].ht
        b = forward(y, identity_graph(4), p)[1].ht
        changed = np.abs(a - b).max(axis=1)
        assert changed[2] > 1e-6
        for j in (0, 1, 3):
            assert changed[j] == 0.0

    def test_edges_mix_information(self, tiny_model_cfg):
        """With an edge 0-2 a perturbation of metric 2 reaches node 0."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(4))
        adj = np.zeros((4, 4))
        adj[0, 2] = adj[2, 0] = 1.0
        g = MetricGraph(adj)
        x = _window(8, 4, 5)
        y = x.copy()
        y[:, 2] += 10.0
        a = forward(x, g, p)[1].ht
        b = forward(y, g, p)[1].ht
        changed = np.abs(a - b).max(axis=1)
        assert changed[0] > 1e-9 and changed[2] > 1e-9
        # 1 and 3 are two hops away from nothing: untouched
        assert changed[1] == 0.0 and changed[3] == 0.0


class TestHeadsAndPredict:
    def test_logit_count(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(0))
        g = random_graph(4, seed=1)
        pred, _ = forward(_window(8, 4, 2), g, p)
        assert pred.logits.shape == (NUM_CLASSES,) and isinstance(pred.label, int)

    def test_heads_are_parameter_disjoint(self, tiny_model_cfg):
        """Perturbing head j's weights must not move any other logit."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(1))
        g = random_graph(4, seed=2)
        x = _window(8, 4, 3)
        before = forward(x, g, p)[0].logits
        q = p.copy()
        q.head_w[1] += 0.5
        q.head_u[1] -= 0.25
        q.head_c[1] += 1.0
        after = forward(x, g, q)[0].logits
        assert after[1] != before[1]
        for k in (0, 2, 3, 4):
            assert after[k] == before[k]

    def test_readout_is_node_mean(self, tiny_model_cfg):
        """The readout is the mean of the propagated node rows, for a window and a stack."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(2))
        for shape in ((8, 4), (3, 8, 4)):
            x = RngStream(3, (21,)).generator().normal(size=shape)
            _, cache = forward(x, random_graph(4, seed=3), p)
            assert cache.r.shape == shape[:-2] + (tiny_model_cfg.propagation_width,)
            assert np.array_equal(cache.r, cache.ht.mean(axis=-2))

    def test_predict_fields(self):
        z = np.array([0.2, 1.4, -0.3])
        pred = predict(z)
        assert pred.label == 1
        assert np.array_equal(pred.logits, z)

    def test_predict_tie_breaks_low(self):
        assert predict(np.array([2.0, 2.0, 1.0])).label == 0
        assert predict(np.array([[2.0, 2.0, 1.0], [0.0, 3.0, 3.0]])).label.tolist() == [0, 1]


class TestForward:
    def test_metric_count_agnostic(self, tiny_model_cfg):
        """One parameter set serves windows of any D without reshaping."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(6))
        for d in (1, 3, 4, 9):
            pred, _ = forward(_window(8, d, d), identity_graph(d), p)
            assert pred.logits.shape == (NUM_CLASSES,)

    def test_permutation_invariance(self, tiny_model_cfg):
        """Relabeling metrics (and the graph with them) keeps logits fixed."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(7))
        g = random_graph(6, seed=4, threshold=0.2)
        x = _window(8, 6, 8)
        perm = np.array([4, 2, 0, 5, 3, 1])
        adj_p = g.adjacency[np.ix_(perm, perm)]
        g_p = MetricGraph(adj_p)
        a, _ = forward(x, g, p)
        b, _ = forward(x[:, perm], g_p, p)
        assert np.max(np.abs(a.logits - b.logits)) <= 1e-12

    def test_graph_window_mismatch(self, tiny_model_cfg):
        """The checks run rank, then T, then D, on a window and on a stack."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(8))
        with pytest.raises(ShapeError, match="expected a"):
            forward(np.zeros((2, 2, 9, 4)), identity_graph(5), p)
        for lead in ((), (3,)):
            with pytest.raises(ShapeError, match="timesteps"):
                forward(np.zeros(lead + (9, 4)), identity_graph(5), p)
            with pytest.raises(ShapeError, match="metrics"):
                forward(np.zeros(lead + (8, 4)), identity_graph(5), p)


class TestBackward:
    def _setup(self, cfg, d=4, seed=0):
        p = init_params(cfg, TINY_T, RngStream(seed))
        g = random_graph(d, seed=seed, threshold=0.25)
        x = _window(TINY_T, d, seed + 50)
        return p, g, x

    def test_matches_finite_differences(self, tiny_model_cfg):
        cfg = tiny_model_cfg
        p, g, x = self._setup(cfg)
        dz = RngStream(1, (22,)).generator().normal(size=NUM_CLASSES)

        _, cache = forward(x, g, p)
        analytic = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len)).flat

        def objective(vec):
            q = ModelParams(cfg, TINY_T, vec)
            pred, _ = forward(x, g, q)
            return float(dz @ pred.logits)

        err = finite_diff_check(objective, p.flat, analytic)
        assert err <= 1e-4, f"max relative gradient error {err}"

    def test_finite_differences_identity_graph(self, tiny_model_cfg):
        cfg = tiny_model_cfg
        p = init_params(cfg, TINY_T, RngStream(3))
        g = identity_graph(4)
        x = _window(TINY_T, 4, 60)
        dz = np.array([1.0, -2.0, 0.5, 0.75, -1.5])
        _, cache = forward(x, g, p)
        analytic = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len)).flat

        def objective(vec):
            pred, _ = forward(x, g, ModelParams(cfg, TINY_T, vec))
            return float(dz @ pred.logits)

        assert finite_diff_check(objective, p.flat, analytic) <= 1e-4

    def test_zero_sensitivity_heads_get_zero_gradient(self, tiny_model_cfg):
        p, g, x = self._setup(tiny_model_cfg, seed=1)
        _, cache = forward(x, g, p)
        dz = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        grads = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len))
        for k in (0, 2, 3, 4):
            assert np.all(grads.head_w[k] == 0.0)
            assert np.all(grads.head_b[k] == 0.0)
            assert np.all(grads.head_u[k] == 0.0)
            assert grads.head_c[k] == 0.0
        assert np.any(grads.head_w[1] != 0.0)

    def test_linearity_in_upstream_gradient(self, tiny_model_cfg):
        p, g, x = self._setup(tiny_model_cfg, seed=2)
        _, cache = forward(x, g, p)
        gen = RngStream(4, (23,)).generator()
        dz1 = gen.normal(size=NUM_CLASSES)
        dz2 = gen.normal(size=NUM_CLASSES)
        ga = backward(cache, dz1, ModelParams.zeros(p.cfg, p.window_len)).flat
        gb = backward(cache, dz2, ModelParams.zeros(p.cfg, p.window_len)).flat
        gsum = backward(cache, dz1 + dz2, ModelParams.zeros(p.cfg, p.window_len)).flat
        assert np.max(np.abs(gsum - (ga + gb))) <= 1e-12
        gscaled = backward(cache, 3.0 * dz1, ModelParams.zeros(p.cfg, p.window_len)).flat
        assert np.max(np.abs(gscaled - 3.0 * ga)) <= 1e-12

    def test_reused_dirty_buffer_equals_fresh_buffer(self, tiny_model_cfg):
        """backward overwrites every block, so a reused buffer holds no stale value."""
        p = init_params(tiny_model_cfg, TINY_T, RngStream(7))
        g = random_graph(4, seed=7, threshold=0.25)
        gen = RngStream(7, (28,)).generator()
        xs = gen.normal(size=(5, TINY_T, 4))
        dz = gen.normal(size=(5, NUM_CLASSES))
        _, cache = forward(xs, g, p)
        fresh = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len)).flat
        buf = ModelParams(p.cfg, p.window_len, np.full(p.flat.size, np.nan))
        _, other = forward(xs[:2] + 1.0, g, p)
        backward(other, dz[:2] * 3.0, buf)
        buf.flat[::3] = np.nan
        assert backward(cache, dz, buf) is buf
        assert np.array_equal(buf.flat, fresh)

    def test_rejects_gradient_buffer_of_another_config(self, tiny_model_cfg):
        p, g, x = self._setup(tiny_model_cfg, seed=6)
        _, cache = forward(x, g, p)
        other = ModelConfig(encoder_hidden=6, embed_width=5, propagation_width=5, head_hidden=3)
        for buf in (ModelParams.zeros(other, TINY_T), ModelParams.zeros(p.cfg, TINY_T + 1)):
            with pytest.raises(ShapeError, match="gradient buffer"):
                backward(cache, np.ones(NUM_CLASSES), buf)

    def test_rejects_wrong_dz_shape(self, tiny_model_cfg):
        p, g, x = self._setup(tiny_model_cfg, seed=6)
        _, cache = forward(x, g, p)
        with pytest.raises(ShapeError, match="logits' shape"):
            backward(cache, np.ones(NUM_CLASSES + 1), ModelParams.zeros(p.cfg, p.window_len))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_gradient_check_random_configs(self, seed):
        """Finite differences across random tiny shapes, not just the fixture."""
        gen = RngStream(seed, (24,)).generator()
        t = int(gen.integers(2, 7))
        cfg = ModelConfig(
            encoder_hidden=int(gen.integers(2, 5)),
            embed_width=int(gen.integers(2, 5)),
            propagation_width=int(gen.integers(2, 5)),
            head_hidden=int(gen.integers(2, 4)),
        )
        d = int(gen.integers(1, 5))
        p = init_params(cfg, t, RngStream(seed, (25,)))
        g = random_graph(d, seed=seed, threshold=0.3)
        x = gen.normal(size=(t, d))
        dz = gen.normal(size=NUM_CLASSES)
        _, cache = forward(x, g, p)
        analytic = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len)).flat

        def objective(vec):
            pred, _ = forward(x, g, ModelParams(cfg, t, vec))
            return float(dz @ pred.logits)

        assert finite_diff_check(objective, p.flat, analytic) <= 1e-4


STACK_OR_WINDOW = pytest.mark.parametrize("shape", [(3, 8, 4), (8, 4)], ids=["stack", "window"])


def _inputs(cfg, shape):
    """Parameters, a graph, a window or stack of the given shape, and a dz for it."""
    p = init_params(cfg, TINY_T, RngStream(12))
    g = random_graph(shape[-1], seed=12, threshold=0.25)
    gen = RngStream(12, (28,)).generator()
    x = gen.normal(size=shape)
    dz = gen.normal(size=shape[:-2] + (NUM_CLASSES,))
    return p, g, x, dz


class TestInPlaceKernels:
    """The activations and derivatives are built in place; nothing shared is written."""

    @STACK_OR_WINDOW
    def test_forward_leaves_input_and_params_unchanged(self, tiny_model_cfg, shape):
        p, g, x, _ = _inputs(tiny_model_cfg, shape)
        x0, flat0 = x.copy(), p.flat.copy()
        forward(x, g, p)
        assert np.array_equal(x, x0)
        assert np.array_equal(p.flat, flat0)

    @STACK_OR_WINDOW
    def test_activations_equal_the_out_of_place_expressions(self, tiny_model_cfg, shape):
        """Each activation has the bits of tanh(a @ W + b), each operator product of A @ h."""
        p, g, x, _ = _inputs(tiny_model_cfg, shape)
        _, c = forward(x, g, p)
        assert np.array_equal(c.xt, x.swapaxes(-1, -2))
        assert np.array_equal(c.z1, np.tanh(c.xt @ p.enc_w1 + p.enc_b1))
        assert np.array_equal(c.h, np.tanh(c.z1 @ p.enc_w2.T + p.enc_b2))
        assert np.array_equal(c.ah, g.normalized @ c.h)
        assert np.array_equal(c.h1, np.tanh(c.ah @ p.prop_w1 + p.prop_b1))
        assert np.array_equal(c.ah1, g.normalized @ c.h1)
        assert np.array_equal(c.ht, np.tanh(c.ah1 @ p.prop_w2 + p.prop_b2))
        k, dd, dp = p.head_w.shape
        t = (c.r @ p.head_w.reshape(k * dd, dp).T).reshape(c.r.shape[:-1] + (k, dd))
        assert np.array_equal(c.head_tanh, np.tanh(t + p.head_b))

    @STACK_OR_WINDOW
    def test_backward_reads_the_cache_without_writing_it(self, tiny_model_cfg, shape):
        p, g, x, dz = _inputs(tiny_model_cfg, shape)
        _, cache = forward(x, g, p)
        arrays = {f.name: getattr(cache, f.name) for f in fields(ForwardCache)
                  if isinstance(getattr(cache, f.name), np.ndarray)}
        before = {name: a.copy() for name, a in arrays.items()}
        first = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len)).flat
        second = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len)).flat
        assert np.array_equal(first, second)
        assert set(arrays) == {"x", "xt", "z1", "h", "ah", "h1", "ah1", "ht", "r", "head_tanh"}
        for name, a in arrays.items():
            assert np.array_equal(a, before[name]), name


class TestForwardCache:
    """forward builds the record once, with every field set; no field has a default."""

    @STACK_OR_WINDOW
    def test_forward_leaves_no_field_empty(self, tiny_model_cfg, shape):
        p, g, x, _ = _inputs(tiny_model_cfg, shape)
        _, cache = forward(x, g, p)
        assert [f.name for f in fields(ForwardCache) if getattr(cache, f.name) is None] == []
        assert [f.name for f in fields(ForwardCache)
                if f.default is not MISSING or f.default_factory is not MISSING] == []
        assert cache.x.shape == shape and cache.params is p and cache.graph is g


class TestSingleWindowKernel:
    """One (T, D) window takes `np.dot` products and gets the bits of a stack of one."""

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 9), d=st.integers(1, 6), widths=st.tuples(*[st.integers(1, 7)] * 4),
           graph=st.sampled_from(["random", "identity", "complete"]),
           layout=st.sampled_from(["C", "F", "strided"]), seed=st.integers(0, 10_000))
    def test_window_equals_a_stack_of_one_bit_for_bit(self, t, d, widths, graph, layout, seed):
        p = init_params(ModelConfig(*widths), t, RngStream(seed))
        g = {"random": lambda: random_graph(d, seed=seed),
             "identity": lambda: identity_graph(d),
             "complete": lambda: MetricGraph(np.ones((d, d)) - np.eye(d))}[graph]()
        gen = RngStream(seed, (28,)).generator()
        x = gen.normal(size=(t, d))
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "strided":  # window 1 of a stack stored metric-major
            buf = gen.normal(size=(d, t, 3))
            buf[:, :, 1] = x.T
            x = buf.transpose(2, 1, 0)[1]
        dz = gen.normal(size=NUM_CLASSES)
        one, one_cache = forward(x, g, p)
        stack, stack_cache = forward(x[None], g, p)
        assert one.logits.tobytes() == stack.logits[0].tobytes()
        assert isinstance(one.label, int) and one.label == stack.label[0]
        for f in fields(ForwardCache):
            a, b = getattr(one_cache, f.name), getattr(stack_cache, f.name)
            if isinstance(b, np.ndarray):
                assert a.shape == b.shape[1:] and a.tobytes() == b[0].tobytes(), f.name
            else:
                assert a is b, f.name
        grads = backward(one_cache, dz, ModelParams.zeros(p.cfg, t)).flat
        assert grads.tobytes() == backward(
            stack_cache, dz[None], ModelParams.zeros(p.cfg, t)).flat.tobytes()

    def test_shape_errors_of_one_window(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(12))
        with pytest.raises(ShapeError, match="window has 9 timesteps, encoder expects 8"):
            forward(_window(9, 4, 1), identity_graph(4), p)
        with pytest.raises(ShapeError, match="graph has 5 vertices but the embeddings cover 4"):
            forward(_window(8, 4, 1), identity_graph(5), p)
        for shape in ((8,), (2, 2, 8, 4)):
            with pytest.raises(ShapeError, match=r"expected a \(T, D\) window or an \(N, T, D\)"):
                forward(np.zeros(shape), identity_graph(4), p)

    def test_lists_and_int_arrays_are_read_as_float64(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(13))
        g = random_graph(4, seed=6)
        x = _window(8, 4, 2)
        ints = np.arange(32).reshape(8, 4) % 5 - 2
        for given_as, as_float in ((x.tolist(), x), (ints, ints.astype(np.float64)),
                                   (ints.tolist(), ints.astype(np.float64))):
            got, cache = forward(given_as, g, p)
            want, _ = forward(as_float, g, p)
            assert cache.x.dtype == np.float64
            assert got.logits.tobytes() == want.logits.tobytes() and got.label == want.label


class TestBatched:
    """A stack of windows scores each window as one window alone does."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 6), st.integers(0, 10_000))
    def test_stack_forward_matches_each_window(self, n, d, seed):
        cfg = ModelConfig(encoder_hidden=6, embed_width=5, propagation_width=4, head_hidden=3)
        p = init_params(cfg, 8, RngStream(seed))
        g = random_graph(d, seed=seed, threshold=0.3)
        xs = RngStream(seed, (26,)).generator().normal(size=(n, p.window_len, d))
        pred, cache = forward(xs, g, p)
        assert pred.logits.shape == (n, NUM_CLASSES)
        assert cache.x.shape == (n, p.window_len, d)
        for i in range(n):
            one, _ = forward(xs[i], g, p)
            assert np.max(np.abs(pred.logits[i] - one.logits)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 6), st.integers(0, 10_000))
    def test_stack_backward_is_sum_of_window_gradients(self, n, d, seed):
        cfg = ModelConfig(encoder_hidden=6, embed_width=5, propagation_width=4, head_hidden=3)
        p = init_params(cfg, 8, RngStream(seed))
        g = random_graph(d, seed=seed, threshold=0.3)
        gen = RngStream(seed, (27,)).generator()
        xs = gen.normal(size=(n, p.window_len, d))
        dz = gen.normal(size=(n, NUM_CLASSES))
        _, cache = forward(xs, g, p)
        stacked = backward(cache, dz, ModelParams.zeros(p.cfg, p.window_len)).flat
        summed = np.zeros_like(stacked)
        for i in range(n):
            _, one = forward(xs[i], g, p)
            summed += backward(one, dz[i], ModelParams.zeros(p.cfg, p.window_len)).flat
        assert np.max(np.abs(stacked - summed)) <= 1e-12

    def test_stack_backward_rejects_window_shaped_dz(self, tiny_model_cfg):
        p = init_params(tiny_model_cfg, TINY_T, RngStream(0))
        g = random_graph(4, seed=0)
        _, cache = forward(np.stack([_window(8, 4, 1), _window(8, 4, 2)]), g, p)
        with pytest.raises(ShapeError, match="logits' shape"):
            backward(cache, np.ones(NUM_CLASSES), ModelParams.zeros(p.cfg, p.window_len))

    def test_chunked_scoring_does_not_depend_on_n(self, tiny_model_cfg, monkeypatch):
        """Scores of a window are the same whatever else is scored with it."""
        monkeypatch.setattr(train_module, "SCORE_CHUNK", 4)
        p = init_params(tiny_model_cfg, TINY_T, RngStream(11))
        g = random_graph(4, seed=5)
        data = random_dataset(11, 8, 4, seed=3)
        full = train_module.score(p, g, data)
        assert full.logits.shape == (11, NUM_CLASSES) and full.label.shape == (11,)
        for n in (1, 4, 5, 10):
            part = train_module.score(p, g, data.subset(np.arange(n)))
            assert np.max(np.abs(part.logits - full.logits[:n])) <= 1e-12
            assert np.array_equal(part.label, full.label[:n])
        for i, x in enumerate(data.values):
            one, _ = forward(x, g, p)
            assert np.max(np.abs(full.logits[i] - one.logits)) <= 1e-12
            assert full.label[i] == one.label
