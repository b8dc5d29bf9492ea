"""Checkpoint and run-config serialization tests.

The load-save-load identity is checked at the byte level: the base64 of
the float64 bytes round-trips IEEE doubles exactly, so resaving a loaded checkpoint must reproduce the file
bit for bit, and reloaded parameters must produce bitwise-identical logits.
"""

import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from contention.config import (
    RunConfig,
    config_digest,
    load_run_config,
    resolve_out_dir,
    run_config_from_dict,
)
from contention.data import NormStats
from contention.errors import ConfigError, DataError, SchemaError
from contention.graph import normalize_adjacency
from contention.model import ModelConfig, ModelParams, forward, init_params
from contention.rng import RngStream

from conftest import random_graph


def _floats(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _checkpoint(seed=0, dim=4):
    cfg = ModelConfig(encoder_hidden=6, embed_width=5, propagation_width=5, head_hidden=4)
    params = init_params(cfg, 8, RngStream(seed))
    # nudge weights off the clean init so we serialize post-training values
    params.enc_w1[...] += 1e-13 * RngStream(seed, (70,)).generator().normal(
        size=params.enc_w1.shape
    )
    graph = random_graph(dim, seed=seed, threshold=0.25)
    gen = RngStream(seed, (71,)).generator()
    norm = NormStats(mean=gen.normal(size=dim), std=np.abs(gen.normal(size=dim)) + 0.1)
    return Checkpoint(
        params=params,
        graph=graph,
        norm=norm,
        metric_names=tuple(f"m{i}" for i in range(dim)),
        train_seed=seed,
        config_digest="d" * 64,
    )


class TestRoundTrip:
    def test_values_exact(self, tmp_path):
        ckpt = _checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.params.cfg == ckpt.params.cfg
        assert back.params.window_len == ckpt.params.window_len == 8
        assert np.array_equal(back.params.flat, ckpt.params.flat)
        assert np.array_equal(back.graph.adjacency, ckpt.graph.adjacency)
        assert np.array_equal(back.norm.mean, ckpt.norm.mean)
        assert np.array_equal(back.norm.std, ckpt.norm.std)
        assert back.metric_names == ckpt.metric_names
        assert back.train_seed == ckpt.train_seed
        assert back.config_digest == ckpt.config_digest

    def test_params_are_the_layout_blocks_in_order(self, tmp_path):
        """`params` is one string: the little-endian float64 bytes of every layout block,
        in the layout's order, each in its layout shape."""
        ckpt = _checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        flat = _floats(json.loads(path.read_text())["params"])
        layout = ModelParams.layout(ckpt.params.cfg, ckpt.params.window_len)
        assert flat.size == layout[-1][2].stop
        for name, shape, sl in layout:
            assert np.array_equal(flat[sl].reshape(shape), getattr(ckpt.params, name)), name

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                     np.finfo(float).max, -np.finfo(float).max,
                                     np.finfo(float).tiny, 1.0 / 3.0])
                    | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=3))
    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path_factory, extremes):
        """-0.0, subnormals and the largest doubles come back with the same bits, in the
        weights and the normalization mean, and saving them again gives the same bytes."""
        ckpt = _checkpoint()
        ckpt.params.flat[:3] = extremes
        ckpt.params.flat[-3:] = extremes[::-1]
        ckpt.norm.mean[:3] = extremes
        path = tmp_path_factory.mktemp("extremes") / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        for got, want in ((back.params.flat, ckpt.params.flat), (back.norm.mean, ckpt.norm.mean),
                          (back.norm.std, ckpt.norm.std)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        again = path.with_name("again.json")
        save_checkpoint(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_arrays_are_writable_native_float64(self, tmp_path):
        """np.frombuffer over the decoded bytes is read-only; the loader hands out copies
        that training and normalization may write in place."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(_checkpoint(), path)
        back = load_checkpoint(path)
        for arr in (back.params.flat, back.norm.mean, back.norm.std):
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
            assert arr.dtype == np.float64 and arr.dtype.isnative
        back.params.enc_w1[0, 0] = 1.5
        assert back.params.flat[0] == 1.5

    def test_default_model_checkpoint_size(self, tmp_path):
        """The default model at the default T and D: 9029 weights as base64 take about a
        third of the 299,006 bytes they took as 17-digit decimal cells."""
        run = RunConfig()
        params = init_params(run.model, run.scenario.window_len, RngStream(0))
        dim = run.scenario.metric_count
        ckpt = Checkpoint(params=params, graph=random_graph(dim, seed=0, threshold=0.3),
                          norm=NormStats(mean=np.full(dim, 0.5), std=np.full(dim, 0.25)),
                          metric_names=tuple(f"m{i}" for i in range(dim)),
                          config_digest=config_digest(run))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(ckpt, path)
        assert params.flat.size == 9029
        assert path.stat().st_size < 110_000

    def test_resave_is_byte_identical(self, tmp_path):
        ckpt = _checkpoint(seed=1)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_checkpoint(ckpt, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_reloaded_params_give_bitwise_logits(self, tmp_path):
        ckpt = _checkpoint(seed=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        x = RngStream(5, (72,)).generator().normal(size=(8, 4))
        a, _ = forward(x, ckpt.graph, ckpt.params)
        b, _ = forward(x, back.graph, back.params)
        assert np.array_equal(a.logits, b.logits)

    def test_normalized_operator_recomputed(self, tmp_path):
        ckpt = _checkpoint(seed=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        want = normalize_adjacency(back.graph.adjacency)
        assert np.array_equal(back.graph.normalized, want)

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(_checkpoint(), path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert isinstance(payload["params"], str)
        assert isinstance(payload["normalization"]["mean"], str)
        assert isinstance(payload["normalization"]["std"], str)
        # the graph stays readable: 0/1 integers, and no threshold, a constant
        assert payload["graph"]["adjacency"][0][0] in (0, 1)
        assert set(payload["graph"]) == {"dim", "adjacency"}
        assert payload["window_len"] == 8
        assert "window_len" not in payload["model"]


class TestLoadValidation:
    def _saved(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(_checkpoint(), path)
        return path

    def _rewrite(self, path, mutate):
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_checkpoint(tmp_path / "none.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        with pytest.raises(SchemaError, match="JSON"):
            load_checkpoint(path)

    def test_missing_top_key(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite(path, lambda p: p.pop("normalization"))
        with pytest.raises(SchemaError, match="normalization"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 99, 4.0, 5.0, 6.0])
    def test_version_mismatch(self, tmp_path, version):
        """Version 1 stored enc_w1 transposed, version 2 a class count and class
        names, version 3 the window length in the model section, version 4
        every float as a decimal string in nested lists, and version 5 the graph's
        correlation threshold; their checkpoints must be retrained. The version is
        read before any other key, and it is an integer: 6.0 is refused too."""
        path = self._saved(tmp_path)

        def older(p):
            p["format_version"] = version
            del p["window_len"]  # which no version before 4 wrote

        self._rewrite(path, older)
        # a SchemaError is a DataError, which the CLI maps to exit 3
        message = rf"ckpt\.json has format_version {version}, not 6; regenerate it"
        with pytest.raises(SchemaError, match=message):
            load_checkpoint(path)

    def test_missing_param_block(self, tmp_path):
        """Weights without the last layout block (the five head_c biases) are refused by
        the length of `params`."""
        path = self._saved(tmp_path)
        self._rewrite(path, lambda p: p.update(params=_b64(_floats(p["params"])[:-5])))
        n = _checkpoint().params.flat.size
        chars = 4 * -(-8 * (n - 5) // 3)
        with pytest.raises(SchemaError, match=rf"ckpt\.json: 'params' has {chars} characters, "
                                              rf"not the .* that encode {n} float64 values"):
            load_checkpoint(path)

    def test_wrong_param_shape(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite(path, lambda p: p.update(params=_b64([1.0, 2.0])))
        with pytest.raises(SchemaError, match=r"ckpt\.json: 'params' has 24 characters, not the"):
            load_checkpoint(path)
        # a window length the weights were not trained for: enc_w1 has 8 more rows of 6
        path = self._saved(tmp_path)
        self._rewrite(path, lambda p: p.update(window_len=16))
        n = _checkpoint().params.flat.size + 8 * 6
        with pytest.raises(SchemaError, match=f"that encode {n} float64 values"):
            load_checkpoint(path)

    def test_length_is_checked_before_decoding(self, tmp_path, monkeypatch):
        """A string of 10^6 characters is refused by its length alone."""
        path = self._saved(tmp_path)
        self._rewrite(path, lambda p: p.update(params="A" * 10**6))

        def refuse(*args, **kwargs):
            raise AssertionError("decoded a field of the wrong length")

        monkeypatch.setattr(base64, "b64decode", refuse)
        with pytest.raises(SchemaError, match=r"ckpt\.json: 'params' has 1000000 characters"):
            load_checkpoint(path)

    def test_nonfinite_param(self, tmp_path):
        for value in (np.inf, -np.inf, np.nan):
            ckpt = _checkpoint()
            ckpt.params.enc_b1[0] = value
            path = tmp_path / "ckpt.json"
            save_checkpoint(ckpt, path)
            with pytest.raises(DataError, match="'params' contains non-finite values"):
                load_checkpoint(path)

    def test_asymmetric_adjacency(self, tmp_path):
        path = self._saved(tmp_path)

        def poison(p):
            p["graph"]["adjacency"][0][1] = 1
            p["graph"]["adjacency"][1][0] = 0

        self._rewrite(path, poison)
        with pytest.raises(DataError, match="symmetric"):
            load_checkpoint(path)

    def test_nonzero_diagonal(self, tmp_path):
        path = self._saved(tmp_path)

        def poison(p):
            p["graph"]["adjacency"][2][2] = 1

        self._rewrite(path, poison)
        with pytest.raises(DataError, match="diagonal"):
            load_checkpoint(path)

    def test_adjacency_entries_must_be_zero_or_one(self, tmp_path):
        path = self._saved(tmp_path)

        def poison(p):
            adjacency = p["graph"]["adjacency"]
            for i, row in enumerate(adjacency):
                adjacency[i] = [0 if i == j else 2 for j in range(len(row))]

        self._rewrite(path, poison)
        with pytest.raises(DataError, match="0 or 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("std", ["0", "-1", "1e-300"])
    def test_std_below_the_fit_floor(self, tmp_path, std):
        """fit_norm floors every std at NormStats.STD_FLOOR; a smaller one would
        turn scored windows into inf or nan logits."""
        ckpt = _checkpoint()
        ckpt.norm.std[1] = float(std)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        with pytest.raises(DataError, match="normalization std .* is below 1e-08"):
            load_checkpoint(path)

    def test_model_field_of_wrong_type(self, tmp_path):
        """true is not an int, though Python would take it as 1."""
        path = self._saved(tmp_path)
        self._rewrite(path, lambda p: p["model"].update(encoder_hidden=True))
        with pytest.raises(SchemaError, match="model.encoder_hidden"):
            load_checkpoint(path)

    def test_model_over_the_parameter_bound(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite(path, lambda p: p["model"].update(encoder_hidden=10**6, embed_width=10**6))
        with pytest.raises(SchemaError, match="parameters"):
            load_checkpoint(path)

    def test_unknown_model_field(self, tmp_path):
        """T is a top-level key; the model section holds only the layer widths."""
        for field in ("depth", "window_len"):
            path = self._saved(tmp_path)
            self._rewrite(path, lambda p: p["model"].update({field: 3}))
            with pytest.raises(SchemaError, match=f"unknown config key 'model.{field}'"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("graph", "dim", None),
            ("graph", "adjacency", None),
            ("normalization", "mean", 0.5),
            ("normalization", "mean", None),
            ("normalization", "std", None),
            ("graph", "dim", "four"),
            ("graph", "dim", 4.0),
            ("graph", None, []),
            ("normalization", None, "none"),
        ],
    )
    def test_missing_or_mistyped_field(self, tmp_path, section, key, value):
        """A missing key (value None) or a value of the wrong type is a SchemaError that
        names the file; a mistyped field it reads by name is named too."""
        path = self._saved(tmp_path)

        def poison(p):
            if key is None:
                p[section] = value
            elif value is None:
                del p[section][key]
            else:
                p[section][key] = value

        self._rewrite(path, poison)
        fault = "missing or malformed" if key is None or value is None else f"'{section}.{key}'"
        with pytest.raises(SchemaError, match=rf"^checkpoint {re.escape(str(path))}.*{fault}"):
            load_checkpoint(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n_windows == 3000
        assert cfg.schema is None

    def test_from_dict_nested_sections(self):
        cfg = run_config_from_dict(
            {
                "scenario": {"metric_count": 8, "window_len": 16},
                "model": {"encoder_hidden": 32},
                "train": {"batch_size": 32, "max_epochs": 5},
                "n_windows": 100,
            }
        )
        assert cfg.scenario.metric_count == 8
        assert cfg.scenario.window_len == 16
        assert cfg.model.encoder_hidden == 32
        assert cfg.train.batch_size == 32
        assert cfg.n_windows == 100

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ConfigError, match="unknown config key 'train.learning_rte'"):
            run_config_from_dict({"train": {"learning_rte": 0.1}})
        with pytest.raises(ConfigError, match="unknown config key 'frobnicate'"):
            run_config_from_dict({"frobnicate": 1})
        # the ablation switch, Adam's constants, the DWA temperature, the AR
        # coefficient, the split, the correlation cutoff and the output directory
        # are no longer settings, and ingested windows never overlap
        removed = {"graph_propagation": False, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
                   "dwa_temperature": 2.0}
        for key, value in removed.items():
            with pytest.raises(ConfigError, match=f"unknown config key 'train.{key}'"):
                run_config_from_dict({"train": {key: value}})
        with pytest.raises(ConfigError, match="unknown config key 'ingest.stride'"):
            run_config_from_dict({"ingest": {"stride": 32}})
        with pytest.raises(ConfigError, match="unknown config key 'scenario.ar_coeff'"):
            run_config_from_dict({"scenario": {"ar_coeff": 0.8}})
        for key, value in {"split_fractions": [0.7, 0.15, 0.15], "corr_threshold": 0.3,
                           "out_dir": "runs"}.items():
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                run_config_from_dict({key: value})

    def test_model_window_len_is_an_unknown_key(self):
        """The weights take T from the training data; gen's and ingest's window
        lengths are independent settings that need not agree."""
        with pytest.raises(ConfigError, match="unknown config key 'model.window_len'"):
            run_config_from_dict({"model": {"window_len": 32}})
        cfg = run_config_from_dict({"scenario": {"window_len": 32}, "ingest": {"window_len": 16}})
        assert (cfg.scenario.window_len, cfg.ingest.window_len) == (32, 16)

    def test_schema_section(self):
        cfg = run_config_from_dict(
            {
                "schema": {
                    "machine_column": "host",
                    "timestamp_column": "ts",
                    "metric_columns": {"cpu_pct": "cpu", "mem_pct": "mem"},
                }
            }
        )
        assert cfg.schema.machine_column == "host"
        assert cfg.schema.metric_columns == (("cpu_pct", "cpu"), ("mem_pct", "mem"))

    def test_schema_requires_all_keys(self):
        with pytest.raises(ConfigError, match="missing"):
            run_config_from_dict({"schema": {"machine_column": "host"}})

    def test_scenario_groups_is_an_unknown_key(self):
        """The four resource groups are fixed quarters of the metrics, not a setting."""
        with pytest.raises(ConfigError, match="unknown config key 'scenario.groups'"):
            run_config_from_dict(
                {
                    "scenario": {
                        "metric_count": 4,
                        "groups": {"cpu": [0], "mem": [1], "disk": [2], "net": [3]},
                    }
                }
            )

    def test_load_none_gives_defaults(self):
        assert load_run_config(None) == RunConfig()

    def test_load_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_windows": 42}))
        assert load_run_config(path).n_windows == 42

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "none.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)

    def test_validation(self):
        with pytest.raises(ConfigError, match="n_windows"):
            RunConfig(n_windows=0)


class TestDigestAndOutDir:
    def test_digest_stable_and_sensitive(self):
        a = config_digest(RunConfig())
        b = config_digest(RunConfig())
        c = config_digest(RunConfig(n_windows=5))
        assert a == b
        assert a != c
        assert len(a) == 64
        int(a, 16)  # hex

    def test_out_dir_is_the_flag_alone(self, monkeypatch):
        monkeypatch.setenv("CONTENTION_OUT_DIR", "from_env")
        assert resolve_out_dir(None, ()) is None
        assert resolve_out_dir("from_cli", ()) == Path("from_cli")
        with pytest.raises(ConfigError, match="empty"):
            resolve_out_dir("", ())

