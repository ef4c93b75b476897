import ast
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from brainsurf import fileio
from brainsurf.cli import RunConfig
from brainsurf.connectome import GeneratorConfig
from brainsurf.fileio import (
    ConfigError,
    CorruptFile,
    load_checkpoint,
    read_tensor,
    save_checkpoint,
    tensor_shape,
    write_csv,
    write_tensor,
    write_text,
)
from brainsurf.model import ModelConfig
from brainsurf.training import OptimizerConfig

PROPERTY = settings(max_examples=60, deadline=None)

arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    elements=st.floats(width=64),  # includes NaN, infinities and -0.0
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
checkpoints = st.dictionaries(st.text(max_size=8), arrays, max_size=4)
metas = st.dictionaries(st.text(max_size=6), json_values, max_size=4)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFraming:
    @PROPERTY
    @given(arr=arrays)
    def test_tensor_roundtrip(self, tmp_path_factory, arr):
        path = tmp_path_factory.mktemp("t") / "f.bin"
        write_tensor(path, arr)
        assert bit_equal(read_tensor(path), arr)
        assert tensor_shape(path) == arr.shape

    @PROPERTY
    @given(named=checkpoints, meta=metas)
    def test_checkpoint_roundtrip(self, tmp_path_factory, named, meta):
        path = tmp_path_factory.mktemp("c") / "f.bin"
        save_checkpoint(path, named, meta=meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert list(loaded) == list(named)
        assert all(bit_equal(loaded[k], v) for k, v in named.items())
        assert loaded_meta == meta

    @PROPERTY
    @given(arr=arrays, data=st.data())
    def test_tensor_strict_prefix_rejected(self, tmp_path_factory, arr, data):
        path = tmp_path_factory.mktemp("t") / "f.bin"
        write_tensor(path, arr)
        blob = path.read_bytes()
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(CorruptFile):
            read_tensor(path)
        with pytest.raises(CorruptFile):
            tensor_shape(path)

    @PROPERTY
    @given(named=checkpoints, meta=metas, data=st.data())
    def test_checkpoint_strict_prefix_rejected(self, tmp_path_factory, named, meta, data):
        path = tmp_path_factory.mktemp("c") / "f.bin"
        save_checkpoint(path, named, meta=meta)
        blob = path.read_bytes()
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_tensor_and_checkpoint_share_framing(self, tmp_path):
        arr = np.arange(6.0).reshape(2, 3)
        write_tensor(tmp_path / "t.bin", arr)
        save_checkpoint(tmp_path / "c.bin", {"a": arr})
        t_header, t_payload = (tmp_path / "t.bin").read_bytes().split(b"\n", 1)
        c_header, c_payload = (tmp_path / "c.bin").read_bytes().split(b"\n", 1)
        assert json.loads(t_header) == {"shape": [2, 3], "dtype": "<f8"}
        assert json.loads(c_header) == {"meta": {}, "entries": [{"name": "a", "shape": [2, 3], "offset": 0}]}
        assert t_payload == c_payload == arr.astype("<f8").tobytes()

    @pytest.mark.parametrize("header", [
        b"\xff not json", b"[1, 2]", b'{"shape": "ab"}', b'{"shape": [-1, -1]}',
        b'{"entries": [{"name": "x", "shape": [2.5]}]}',
        b'{"entries": [{"shape": [1], "offset": 0}]}',
        b'{"entries": [{"name": ["x"], "shape": [1], "offset": 0}]}',
        # A name listed twice; the empty first entry keeps the payload at one value.
        b'{"entries": [{"name": "x", "shape": [0], "offset": 0}, {"name": "x", "shape": [1], "offset": 0}]}',
        b'{"entries": [{"name": "x", "shape": [1], "offset": 8}]}',
        # JSON true and false are Python ints too: neither is a size or an offset.
        b'{"shape": [true], "dtype": "<f8"}',
        b'{"entries": [{"name": "x", "shape": [true], "offset": 0}]}',
        b'{"entries": [{"name": "x", "shape": [1], "offset": false}]}',
        # Any dtype but little-endian float64, or none, would misread the payload.
        b'{"shape": [1], "dtype": ">f8"}', b'{"shape": [1], "dtype": "<f4"}', b'{"shape": [1]}',
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "g.bin"
        path.write_bytes(header + b"\n" + bytes(8))
        for read in (read_tensor, tensor_shape, load_checkpoint):
            with pytest.raises(CorruptFile):
                read(path)

    def test_huge_shape_rejected_before_allocation(self, tmp_path):
        # 2**40 values would be 8 TiB: the payload length is checked first.
        path = tmp_path / "h.bin"
        path.write_bytes(b'{"shape": [1099511627776], "dtype": "<f8"}\n' + bytes(8))
        for read in (read_tensor, tensor_shape):
            with pytest.raises(CorruptFile, match="payload holds 8 bytes, header promises 8796093022208"):
                read(path)

    def test_checkpoint_meta_must_be_an_object(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b'{"entries": [], "meta": [1]}\n')
        with pytest.raises(CorruptFile, match="meta"):
            load_checkpoint(path)


class TestTextTable:
    def test_write_csv_cells(self, tmp_path):
        cells = [None, float("nan"), float("inf"), -float("inf"), -0.0, np.float64(1 / 3), 7, "a,b"]
        write_csv(tmp_path / "t.csv", ["x", "y"], [cells, [2.5e-300, 12345678901.0]])
        assert (tmp_path / "t.csv").read_bytes() == (
            b'x,y\r\n,nan,inf,-inf,-0,0.3333333333,7,"a,b"\r\n2.5e-300,1.23456789e+10\r\n'
        )

    def test_write_text_is_utf8(self, tmp_path):
        write_text(tmp_path / "t.json", '{"a": "\u00e9"}\n')
        assert (tmp_path / "t.json").read_bytes() == b'{"a": "\xc3\xa9"}\n'

    def test_only_fileio_writes_tables(self):
        # One table writer: no other module imports csv or spells the float format.
        def imported(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    yield node.module

        offenders = [
            path.name
            for path in Path(fileio.__file__).parent.glob("*.py")
            if path.name != "fileio.py"
            and ("csv" in imported(ast.parse(path.read_text())) or "10g" in path.read_text())
        ]
        assert offenders == []

    def test_only_fileio_writes_files(self):
        # One write path, fileio's atomic replace: no other module opens a
        # file to write it, writes one through pathlib, or renames one.
        def writes(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == "open":
                    # open(file, mode) or path.open(mode)
                    args = node.args[1:] if isinstance(node.func, ast.Name) else node.args
                    mode = next((k.value for k in node.keywords if k.arg == "mode"), args[0] if args else None)
                    if mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                        yield ast.unparse(node)
                elif isinstance(node, ast.Attribute) and (
                    node.attr in ("write_text", "write_bytes", "rename")
                    or node.attr == "replace" and isinstance(node.value, ast.Name) and node.value.id == "os"
                ):
                    yield ast.unparse(node)
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    yield from (alias.name for alias in node.names if alias.name in ("replace", "rename"))

        offenders = [
            f"{path.name}: {write}"
            for path in sorted(Path(fileio.__file__).parent.glob("*.py"))
            if path.name != "fileio.py"
            for write in writes(ast.parse(path.read_text()))
        ]
        assert offenders == []


class _FailingPayload:
    """File stand-in that writes its first ``whole`` chunks (by default a
    framed file's header), then half of the next one, then fails as a full
    disk would."""

    def __init__(self, f, whole=1):
        self.f = f
        self.whole = whole
        self.calls = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.calls += 1
        if self.calls <= self.whole:
            return self.f.write(data)
        self.f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint_last.bin"
        rng = np.random.default_rng(0)
        good = {"w": rng.standard_normal((4, 5)), "b": rng.standard_normal(5)}
        save_checkpoint(path, good, meta={"epoch": 1})
        before = path.read_bytes()

        real_open = open
        monkeypatch.setattr(fileio, "open", lambda *a, **k: _FailingPayload(real_open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, {k: v + 1.0 for k, v in good.items()}, meta={"epoch": 2})
        monkeypatch.undo()

        assert path.read_bytes() == before
        loaded, meta = load_checkpoint(path)
        assert meta == {"epoch": 1}
        assert all(bit_equal(loaded[k], v) for k, v in good.items())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_last.bin"]

    @pytest.mark.parametrize("write, whole", [
        (lambda path, n: write_tensor(path, np.arange(float(n))), 1),
        # One string for the whole table: no shorter valid-looking log is left.
        (lambda path, n: write_csv(path, ["epoch", "val_l_r"], [(e, 0.5) for e in range(n)]), 0),
        (lambda path, n: write_text(path, "0.5 0.25\n" * n), 0),
    ], ids=["write_tensor", "write_csv", "write_text"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write, whole):
        path = tmp_path / "val_log.csv"
        write(path, 3)
        before = path.read_bytes()

        real_open = open
        monkeypatch.setattr(fileio, "open", lambda *a, **k: _FailingPayload(real_open(*a, **k), whole), raising=False)
        with pytest.raises(OSError):
            write(path, 4)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["val_log.csv"]


finite = st.floats(allow_nan=False, allow_infinity=False)
small = st.integers(0, 1000)
optimizer_configs = st.builds(OptimizerConfig, lr=finite, beta1=finite, beta2=finite, eps=finite)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
valid_optimizer_configs = st.builds(
    OptimizerConfig, lr=positive, beta1=st.floats(0.0, 1.0, exclude_max=True),
    beta2=st.floats(0.0, 1.0, exclude_max=True), eps=positive,
)
model_configs = st.builds(
    ModelConfig,
    input_channels=small, output_channels=small, mesh_level=small,
    encoder_widths=st.lists(small, max_size=4).map(tuple),
    bottleneck_width=small, leaky_slope=finite, seed=small,
)
generator_configs = st.integers(1, 100).flatmap(lambda n_contrasts: st.builds(
    GeneratorConfig,
    # Generator settings that validate, at levels, ROI and contrast counts
    # that the default model widths accept, so that run configs built on
    # them validate.
    mesh_level=st.integers(2, 6), n_rois=st.integers(1, 100), n_contrasts=st.just(n_contrasts),
    n_runs=st.just(4), t_per_run=st.integers(2, 500).map(lambda n: 2 * n),
    ar_coeff=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), timeseries_noise_std=non_negative,
    roi_deviation=finite, contrast_deviation=finite, nonlinear_mix=finite,
    contrast_noise_std=non_negative | st.lists(non_negative, min_size=n_contrasts, max_size=n_contrasts).map(tuple),
    latent_candidates=st.integers(1, 1000), smooth_steps=small,
))
run_configs = st.builds(
    RunConfig,
    seed=small, generator=generator_configs, model=st.none(), optimizer=valid_optimizer_configs,
    phase2_lr=st.none() | positive, phase1_epochs=small, phase2_epochs=small,
    batch_size=st.integers(2, 64), n_train_subjects=st.integers(2, 100),
    n_test_subjects=small, val_fraction=st.floats(0.0, 0.99), baseline_parcels=st.integers(1, 64),
)
any_config = st.one_of(optimizer_configs, model_configs, generator_configs, run_configs)


def via_json(d: dict) -> dict:
    return json.loads(json.dumps(d))


class TestConfigCodec:
    @PROPERTY
    @given(any_config)
    def test_from_dict_inverts_asdict(self, cfg):
        assert type(cfg).from_dict(via_json(asdict(cfg))) == cfg

    @PROPERTY
    @given(run_configs)
    def test_run_config_to_dict_resolves_model(self, cfg):
        assert RunConfig.from_dict(via_json(cfg.to_dict())) == replace(cfg, model=cfg.resolved_model())

    @PROPERTY
    @given(any_config, st.data())
    def test_unknown_key_rejected(self, cfg, data):
        names = {f.name for f in fields(cfg)}
        key = data.draw(st.text(max_size=10).filter(lambda k: k not in names))
        with pytest.raises(ConfigError):
            type(cfg).from_dict({**via_json(asdict(cfg)), key: 1})

    @PROPERTY
    @given(run_configs, st.sets(st.sampled_from(["input_channels", "output_channels", "mesh_level", "seed"])))
    def test_partial_model_section_takes_the_rest_from_the_run(self, cfg, omitted):
        section = {k: v for k, v in via_json(cfg.resolved_model().to_dict()).items() if k not in omitted}
        d = {**via_json(cfg.to_dict()), "model": section}
        assert RunConfig.from_dict(d).model == cfg.resolved_model()

    def test_partial_model_section_resolves_from_generator_and_seed(self):
        cfg = RunConfig.from_dict({"seed": 5, "model": {"encoder_widths": [16, 32]}})
        assert cfg.model == replace(RunConfig(seed=5).resolved_model(), encoder_widths=(16, 32))
        assert cfg.model.seed == 5
        cfg = RunConfig.from_dict(
            {"seed": 5, "generator": {"mesh_level": 3}, "model": {"encoder_widths": [16, 32]}}
        )
        assert (cfg.model.mesh_level, cfg.model.seed) == (3, 5)
        # Values the section does give are still checked against the run.
        with pytest.raises(ConfigError, match="mesh levels differ"):
            RunConfig.from_dict({"generator": {"mesh_level": 3}, "model": {"mesh_level": 2}})

    def test_dict_keys_in_field_order(self):
        # Checkpoint headers dump the model config without sorting keys.
        assert json.dumps(ModelConfig().to_dict()) == (
            '{"input_channels": 10, "output_channels": 4, "mesh_level": 2, '
            '"encoder_widths": [32, 64], "bottleneck_width": 128, "leaky_slope": 0.1, "seed": 0}'
        )
