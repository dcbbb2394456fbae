"""Hypothesis fuzzing. Every loader: whatever the bytes, a loader either
returns or raises a FoleygenError, which the CLI turns into exit code 2.
conv3d: whatever the sizes, strides, paddings, batch and column budget, it
matches the per-tap reference."""

import json
import struct
import typing

import numpy as np
import numpy.testing as npt
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foleygen import engine
from foleygen.avio import load_clip, load_dataset, load_wav
from foleygen.errors import FoleygenError
from foleygen.models import (
    MODEL_KINDS,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from conftest import (
    conv3d_per_tap,
    conv3d_with_grads,
    rewrite_config,
    tiny_config,
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# small, so that every header field can be 0 and no draw asks for much memory
small = st.integers(0, 6)


def loads_or_refuses(load, path) -> None:
    try:
        load(path)
    except FoleygenError:
        pass


def mutate(valid: bytes):
    """``valid`` with a few bytes overwritten, then cut or extended."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1),
                               st.integers(0, 255)), max_size=6)

    def apply(args):
        writes, end, tail = args
        raw = bytearray(valid)
        for i, b in writes:
            raw[i] = b
        return bytes(raw[:end]) + tail
    return st.tuples(edits, st.integers(0, len(valid)),
                     st.binary(max_size=8)).map(apply)


@st.composite
def wav_files(draw) -> bytes:
    """A RIFF/WAVE file with drawn fmt fields and any data chunk length."""
    fmt = struct.pack("<HHIIHH", draw(st.sampled_from([1, 3, 2])),
                      draw(st.integers(0, 3)), draw(small), draw(small),
                      draw(small), draw(st.sampled_from([16, 32, 8, 0])))
    fmt = fmt[:draw(st.integers(0, len(fmt)))]
    data = draw(st.binary(max_size=24))
    chunks = [(b"fmt ", fmt), (b"data", data)]
    if draw(st.booleans()):
        chunks.reverse()
    body = b"".join(cid + struct.pack("<I", draw(st.sampled_from(
        [len(b), len(b) + 1, 0]))) + b for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


@st.composite
def dataset_files(draw) -> bytes:
    """A dataset header with drawn fields and exactly the bytes it declares."""
    rate, fps, spf, f, h, w = (draw(small) for _ in range(6))
    frac = draw(st.floats(allow_nan=True, allow_infinity=True))
    header = struct.pack("<4sIIIIIIId", b"FGDS", 1, rate, fps, spf, f, h, w,
                         frac)
    audio = draw(st.binary(min_size=8 * f * spf, max_size=8 * f * spf))
    return header + audio + bytes(f * 3 * h * w)


DEFAULT_BUDGET = engine._COL_BUDGET_BYTES

json_values = st.one_of(small, st.integers(-2, -1), st.booleans(), st.none(),
                        st.floats(), st.text(max_size=3))


class TestLoadersRaiseOnlyTypedErrors:
    @FUZZ
    @given(raw=st.one_of(wav_files(), wav_files().flatmap(mutate)))
    def test_load_wav(self, tmp_path, raw):
        path = tmp_path / "a.wav"
        path.write_bytes(raw)
        loads_or_refuses(load_wav, path)

    @FUZZ
    @given(text=st.one_of(
        st.fixed_dictionaries({}, optional={
            k: json_values for k in ("width", "height", "frame_count",
                                     "frame_rate", "frames_file")}).map(
            lambda fields: json.dumps({"frames_file": "f.rgb", **fields})
            .encode()),
        st.binary(max_size=16)),
           n_bytes=st.integers(0, 120))
    def test_load_clip(self, tmp_path, text, n_bytes):
        (tmp_path / "f.rgb").write_bytes(bytes(n_bytes))
        manifest = tmp_path / "clip.json"
        manifest.write_bytes(text)
        loads_or_refuses(load_clip, manifest)

    @FUZZ
    @given(raw=st.one_of(dataset_files(), dataset_files().flatmap(mutate)))
    def test_load_dataset(self, tmp_path, raw):
        path = tmp_path / "ds.bin"
        path.write_bytes(raw)
        loads_or_refuses(load_dataset, path)

    @FUZZ
    @given(kind=st.sampled_from(MODEL_KINDS), data=st.data())
    def test_load_checkpoint_config(self, tmp_path, kind, data):
        # each int field keeps its tiny value or takes one in [-2, 4]
        cfg = tiny_config(kind)
        ints = {name: st.one_of(st.just(getattr(cfg, name)),
                                st.integers(-2, 4))
                for name, hint in typing.get_type_hints(ModelConfig).items()
                if hint is int}
        fields = data.draw(st.fixed_dictionaries({}, optional={
            **ints,
            "wn_dilations": st.lists(st.integers(-1, 20), max_size=3),
            "kind": st.sampled_from(MODEL_KINDS),
            "ctx_mode": st.sampled_from(["strided_embed", "raw_short"]),
        }))
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(cfg, seed=0), path)
        rewrite_config(path, fields)
        loads_or_refuses(load_checkpoint, path)

    @FUZZ
    @given(data=st.data())
    def test_load_checkpoint_bytes(self, tmp_path, data):
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(tiny_config("wavenet"), seed=0), path)
        path.write_bytes(data.draw(mutate(path.read_bytes())))
        loads_or_refuses(load_checkpoint, path)


class TestConv3dMatchesPerTap:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_forward_and_gradients(self, monkeypatch, data):
        draw = data.draw
        ci, co = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        ks = tuple(draw(st.integers(1, 3)) for _ in range(3))
        stride = tuple(draw(st.integers(1, 3)) for _ in range(3))
        padding = tuple(draw(st.integers(0, 2)) for _ in range(3))
        dims = tuple(draw(st.integers(max(1, k - 2 * p), 6))
                     for k, p in zip(ks, padding))
        batch = draw(st.integers(0, 3))
        To, Ho, Wo = [(d + 2 * p - k) // s + 1
                      for d, k, s, p in zip(dims, ks, stride, padding)]
        # one output row's spatial columns over the padded time it reads
        row_bytes = ci * ks[1] * ks[2] * (ks[0] + stride[0] * (To - 1)) * Wo * 8
        monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", draw(
            st.sampled_from([1, 2 * row_bytes, DEFAULT_BUDGET])))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.uniform(-1, 1, (batch, ci) + dims)
        k = rng.uniform(-1, 1, (co, ci) + ks)
        g = rng.uniform(-1, 1, (batch, co, To, Ho, Wo))
        ref = (np.zeros(g.shape), np.zeros(x.shape), np.zeros(k.shape))
        for i in range(batch):
            yi, gxi, gki = conv3d_per_tap(x[i], k, g[i], stride, padding)
            ref[0][i], ref[1][i] = yi, gxi
            ref[2][...] += gki
        got = conv3d_with_grads(x, k, g, stride, padding)
        for name, r, a in zip(("y", "grad x", "grad kernel"), ref, got):
            npt.assert_allclose(a, r, rtol=0, atol=1e-12, err_msg=name)
