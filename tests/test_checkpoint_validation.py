"""Malformed checkpoint headers at the probe and retrieve boundaries.

Every edit of `<ckpt>.json` must make `probe` and `retrieve --ckpt` exit 0
or exit 1 with an error naming the header or its blob: never exit 2, never a
traceback. An edit that leaves a usable checkpoint (another seed, another
loss weight) may load.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from satalign.cli import dispatch
from satalign.evaluate import RetrievalIndex, save_index
from satalign.tape import l2_normalize_rows

SYNTH_CFG = {"n_species": 6, "n_habitats": 3, "raster_rows": 12, "raster_cols": 12,
             "tiles_per_habitat": 6, "n_observations": 80, "d_txt": 12,
             "tile_size": 12, "sections_per_species": 2}
TRAIN_CFG = {"epochs": 1, "batch_size": 16, "lr": 1e-3, "crop_size": 10,
             "model": {"image": {"in_size": 12, "widths": [6, 8], "d_img": 16},
                       "location": {"hidden": 12, "depth": 2, "d_loc": 8},
                       "d_txt": 12, "embed_dim": 12}}
QUERY = "--query=" + ",".join(["0.5"] * SYNTH_CFG["d_txt"])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    for name, cfg in (("synth", SYNTH_CFG), ("train", TRAIN_CFG)):
        (root / f"{name}.json").write_text(json.dumps(cfg))
    assert dispatch(["synth", "--out", str(root / "world"), "--seed", "3",
                     "--config", str(root / "synth.json")]) == 0
    assert dispatch(["train", "--data", str(root / "world"), "--out", str(root / "ckpt"),
                     "--config", str(root / "train.json")]) == 0
    rows = l2_normalize_rows(np.random.default_rng(0).normal(size=(5, 12)))
    save_index(RetrievalIndex(tile_ids=list(range(5)), matrix=rows), root / "idx")
    return root


def _run(base, edit, command, capsys):
    """Exit code and captured output of one `command` on a copy of the base
    checkpoint after `edit(header)`, with the copy's two paths."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "ckpt.json", Path(tmp) / "ckpt.bin"
        for path in paths:
            shutil.copy(base / path.name, path)
        edit(*paths)
        if command == "probe":
            argv = ["probe", "--data", str(base / "world"), "--probe-epochs", "1"]
        else:
            argv = ["retrieve", "--index", str(base / "idx"), QUERY, "--k", "3"]
        code = dispatch(argv + ["--ckpt", str(paths[0])])
    captured = capsys.readouterr()
    return code, captured, paths


@pytest.mark.parametrize("command", ["probe", "retrieve"])
def test_unedited_checkpoint_loads(base, capsys, command):
    code, captured, _ = _run(base, lambda json_path, bin_path: None, command, capsys)
    assert code == 0, captured.err


# -- header edits ----------------------------------------------------------------

_json_values = st.one_of(
    st.sampled_from([0, -1, 1, 2, 3, 6, 8, 12, 16, 2 ** 63, -2 ** 63, 10 ** 400, math.nan,
                     math.inf, -math.inf, 0.5, 1e-5, 1.0, 3.0, True, False, "full",
                     "f32le", "param", [], [6, 8], [2.5], {}]),
    st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=True, allow_infinity=True),
    st.none(), st.text(max_size=4), st.lists(st.integers(-2, 20), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _edit_header(edit):
    def apply(json_path, bin_path):
        header = json.loads(json_path.read_text())
        json_path.write_text(json.dumps(edit(header)))
    return apply


def _paths(obj, prefix=()):
    """The key path of every value in a nested JSON object."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


_HEADER_KEYS = ["version", "config", "dtype", "tensors", "rng_state", "epoch", "adam",
                "epoch_losses", "step_losses"]


@st.composite
def _field_edit(draw):
    """A value anywhere in the header's objects (config, adam, rng_state)
    set to another value, or a key added or removed."""
    how = draw(st.sampled_from(["set", "set", "set", "drop", "add"]))
    value = draw(_json_values)
    pick = draw(st.integers(0, 10 ** 6))
    name = draw(st.text(min_size=1, max_size=5))

    def edit(h):
        paths = [p for p in _paths(h) if p[0] != "tensors"]
        path = paths[pick % len(paths)]
        if how == "set":
            _set(h, path, value)
        elif how == "drop":
            parent = h
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        else:
            _set(h, path[:-1] + (name,), value)
        return h
    return _edit_header(edit)


@st.composite
def _tensor_edit(draw):
    """One tensor entry changed: a field set to a value or to another entry's,
    a shape dimension moved, or an entry dropped, repeated or moved."""
    how = draw(st.sampled_from(["field", "copy_field", "dim", "drop", "repeat", "swap"]))
    key = draw(st.sampled_from(["name", "shape", "kind"]))
    value = draw(_json_values)
    i, j = draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 10 ** 6))
    delta = draw(st.sampled_from([-1, 1, 2 ** 40]))

    def edit(h):
        tensors = h["tensors"]
        a, b = tensors[i % len(tensors)], tensors[j % len(tensors)]
        if how == "field":
            a[key] = value
        elif how == "copy_field":
            a[key] = b[key]
        elif how == "dim":
            if a["shape"]:
                a["shape"][j % len(a["shape"])] += delta
            else:
                a["shape"].append(delta)
        elif how == "drop":
            tensors.remove(a)
        elif how == "repeat":
            tensors.insert(j % len(tensors), dict(a))
        else:
            tensors[i % len(tensors)], tensors[j % len(tensors)] = b, a
        return h
    return _edit_header(edit)


@st.composite
def _shape_edit(draw):
    """A header key missing, a header that is not an object, or text that is
    not JSON."""
    how = draw(st.sampled_from(["missing", "not_object", "truncated", "long_int", "bytes"]))
    if how == "missing":
        key = draw(st.sampled_from(_HEADER_KEYS))
        return _edit_header(lambda h: {k: v for k, v in h.items() if k != key})
    if how == "not_object":
        value = draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text()))
        return _edit_header(lambda h: value)
    cut = draw(st.integers(0, 400))

    def apply(json_path, bin_path):
        text = json_path.read_text()
        if how == "truncated":  # drops at least the closing brace
            json_path.write_text(text[:min(cut, len(text) - 3)])
        elif how == "long_int":  # more digits than Python parses into an int
            json_path.write_text(text.replace('"epoch": 1', '"epoch": ' + "9" * 5000))
        else:
            json_path.write_bytes(b"\xff" + text.encode())
    return apply


_HEADER_EDITS = st.one_of(_field_edit(), _tensor_edit(), _shape_edit())


def _pinned(path, value):
    return _edit_header(lambda h: _set(h, path, value) or h)


def _repeat_a_tensor(h):
    h["tensors"][1] = dict(h["tensors"][0])
    return h


def _swap_mean_and_var(h):  # the blob's means are read as variances, some negative
    for entry in h["tensors"]:
        if entry["kind"] == "stat":
            stem, _, stat = entry["name"].rpartition(".")
            entry["name"] = f"{stem}.{'var' if stat == 'mean' else 'mean'}"
    return h


@given(edit=_HEADER_EDITS, command=st.sampled_from(["probe", "retrieve"]))
@example(edit=_edit_header(_repeat_a_tensor), command="probe")
@example(edit=_edit_header(_swap_mean_and_var), command="probe")
@example(edit=_pinned(("adam", "beta1"), 2.0), command="retrieve")
@example(edit=_pinned(("dtype",), "f32le"), command="retrieve")
@example(edit=_pinned(("version",), 2), command="retrieve")
@example(edit=_pinned(("adam", "lr"), math.nan), command="probe")
@example(edit=_pinned(("config", "model", "image", "norm_eps"), -1), command="probe")
@example(edit=_pinned(("config", "model", "image", "in_size"), 14), command="probe")
@example(edit=_pinned(("config", "model", "image", "d_img"), 10 ** 9), command="retrieve")
@example(edit=_pinned(("config", "model", "location", "depth"), 2 ** 62), command="probe")
@example(edit=_pinned(("config", "model", "image", "padding"), 2538), command="probe")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_checkpoint_header_exits_0_or_1_naming_the_file(base, capsys, edit, command):
    code, captured, (json_path, bin_path) = _run(base, edit, command, capsys)
    assert code in (0, 1), captured.err
    assert "Traceback" not in captured.err
    if code == 1:
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(json_path) in captured.err or str(bin_path) in captured.err, captured.err
