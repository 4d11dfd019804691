"""Malformed index files at the retrieve boundary.

Every bad header (`<idx>.json`) or blob (`<idx>.bin`) must make `retrieve`
exit 1 with an error naming that file: never exit 2, never a traceback.
The bad blob rows sit past the first slab as well as in it, so some are
found only by the query's later slab passes.
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
from satalign.evaluate import INDEX_SLAB_ROWS, RetrievalIndex, save_index
from satalign.tape import RowNormError, l2_normalize_rows, row_norms

N, D = INDEX_SLAB_ROWS + 40, 8
QUERY = "--query=" + ",".join(["0.5"] * D)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("index")
    rng = np.random.default_rng(0)
    save_index(RetrievalIndex(tile_ids=rng.permutation(3 * N)[:N].tolist(),
                              matrix=l2_normalize_rows(rng.normal(size=(N, D)))),
               root / "idx")
    return root


def _retrieve(base, edit, capsys):
    """Exit code and captured output of one retrieve on a copy of the base
    index after `edit(json_path, bin_path)`, with the copy's two paths."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "idx.json", Path(tmp) / "idx.bin"
        for path in paths:
            shutil.copy(base / path.name, path)
        edit(*paths)
        code = dispatch(["retrieve", "--index", str(Path(tmp) / "idx"), QUERY, "--k", "5"])
    captured = capsys.readouterr()
    return code, captured, paths


def test_unedited_index_retrieves(base, capsys):
    code, captured, _ = _retrieve(base, lambda json_path, bin_path: None, capsys)
    assert code == 0, captured.err
    assert len(captured.out.splitlines()) == 5


# -- header edits ----------------------------------------------------------------

_json_values = st.one_of(
    st.sampled_from([0, -1, 1, N - 1, N + 1, D - 1, D + 1, 2 ** 63, -2 ** 63, 10 ** 400,
                     math.nan, math.inf, -math.inf, 0.5, float(N), float(D), True, False]),
    st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=True, allow_infinity=True),
    st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _is_int(value, target):
    return type(value) is int and value == target  # a JSON true is a bool, not an int


def _edit_header(edit):
    def apply(json_path, bin_path):
        header = json.loads(json_path.read_text())
        header = edit(header)
        json_path.write_text(json.dumps(header))
    return apply


@st.composite
def _field_edit(draw):
    """A field set to any value but its own: n, d, or the whole tile id list."""
    key = draw(st.sampled_from(["n", "d", "tile_ids"]))
    own = {"n": N, "d": D}.get(key)
    if key == "tile_ids":
        value = draw(_json_values.filter(lambda v: type(v) is not list))
    else:
        value = draw(_json_values.filter(lambda v: not _is_int(v, own)))
    return _edit_header(lambda h: {**h, key: value})


@st.composite
def _tile_ids_edit(draw):
    """A tile id list of another length, with a non-integer, or with a repeat."""
    how = draw(st.sampled_from(["drop", "extend", "non_int", "repeat"]))
    i = draw(st.integers(0, N - 1))
    count = draw(st.integers(1, 3))
    value = draw(_json_values.filter(lambda v: type(v) is not int))
    j = draw(st.integers(0, N - 1).filter(lambda j: j != i))

    def edit(h):
        ids = h["tile_ids"]
        if how == "drop":
            del ids[i:i + count]
        elif how == "extend":
            ids.extend(range(-1, -1 - count, -1))  # ids the index does not hold
        elif how == "non_int":
            ids[i] = value
        else:
            ids[i] = ids[j]
        return h
    return _edit_header(edit)


@st.composite
def _shape_edit(draw):
    """A missing key, a header that is not an object, or text that is not JSON."""
    how = draw(st.sampled_from(["missing", "not_object", "truncated", "long_int", "bytes"]))
    if how == "missing":
        key = draw(st.sampled_from(["n", "d", "tile_ids"]))
        return _edit_header(lambda h: {k: v for k, v in h.items() if k != key})
    if how == "not_object":
        value = draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text()))
        return _edit_header(lambda h: value)
    cut = draw(st.integers(0, 200))

    def apply(json_path, bin_path):
        text = json_path.read_text()
        if how == "truncated":  # drops at least the closing brace
            json_path.write_text(text[:min(cut, len(text) - 3)])
        elif how == "long_int":  # more digits than Python parses into an int
            json_path.write_text(text.replace(f'"n": {N}', '"n": ' + "9" * 5000))
        else:
            json_path.write_bytes(b"\xff" + text.encode())
    return apply


_HEADER_EDITS = st.one_of(_field_edit(), _tile_ids_edit(), _shape_edit())


@given(edit=_HEADER_EDITS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_index_header_exits_1_naming_the_file(base, capsys, edit):
    code, captured, (json_path, bin_path) = _retrieve(base, edit, capsys)
    assert code == 1, captured.err
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert str(json_path) in captured.err or str(bin_path) in captured.err, captured.err


# -- blob edits ------------------------------------------------------------------


@st.composite
def _length_edit(draw):
    extra = draw(st.one_of(st.integers(-4 * N * D, -1), st.integers(1, 64)))

    def apply(json_path, bin_path):
        blob = bin_path.read_bytes()
        bin_path.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
    return apply


_ROW_VALUES = {"nan": (np.nan, "non-finite"), "inf": (np.inf, "non-finite"),
               "-inf": (-np.inf, "non-finite"), "zero": (0.0, "degenerate"),
               "subnormal": (1e-45, "degenerate")}


@given(row=st.one_of(st.integers(INDEX_SLAB_ROWS, N - 1), st.integers(0, N - 1)),
       kind=st.sampled_from(sorted(_ROW_VALUES)), column=st.integers(0, D - 1))
@example(row=N - 1, kind="nan", column=0)  # in the last slab, past the first query pass
@example(row=N - 1, kind="zero", column=0)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_index_row_exits_1_naming_the_blob_and_row(base, capsys, row, kind, column):
    value, problem = _ROW_VALUES[kind]

    def apply(json_path, bin_path):
        blob = np.fromfile(bin_path, dtype="<f4")
        if problem == "non-finite":
            blob[row * D + column] = value
        else:
            blob[row * D:(row + 1) * D] = value
        blob.tofile(bin_path)

    code, captured, (_, bin_path) = _retrieve(base, apply, capsys)
    assert code == 1, captured.err
    assert captured.out == ""
    assert captured.err == f"error: {bin_path}: row {row} has a {problem} norm\n"


@given(d=st.integers(1, 4096), rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       top=st.floats(-14.0, 38.47), span=st.floats(0.0, 84.0), density=st.floats(0.0, 1.0))
@example(d=4096, rows=2, seed=0, top=38.47, span=84.0, density=1.0)
@example(d=1, rows=1, seed=0, top=-12.0, span=0.0, density=1.0)
@settings(max_examples=300, deadline=None)
def test_rows_that_row_norms_accepts_divide_to_unit_norm(d, rows, seed, top, span, density):
    # Why a query runs no unit-norm gate on the blob's rows: float32 rows,
    # from subnormals up to 3e38 and as sparse as one entry, square inside
    # float64's range, so a row that row_norms accepts divides to a norm
    # within about d ulps of 1, far inside RetrievalIndex's 1e-9 gate.
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** (top - span * rng.random((rows, d)))  # 1e-45 and below round to 0
    values = np.where(rng.random((rows, d)) < 0.5, -magnitude, magnitude)
    values[rng.random((rows, d)) >= density] = 0.0
    values[np.arange(rows), rng.integers(d, size=rows)] = 10.0 ** top
    slab = values.astype("<f4").astype(np.float64)
    try:
        norms = row_norms(slab)
    except RowNormError:
        return
    np.divide(slab, norms[:, None], out=slab)
    assert np.abs(np.sqrt(np.einsum("ij,ij->i", slab, slab)) - 1.0).max() <= 1e-12
    RetrievalIndex(tile_ids=list(range(rows)), matrix=slab)


@given(edit=_length_edit())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_index_blob_length_exits_1_naming_the_blob(base, capsys, edit):
    code, captured, (_, bin_path) = _retrieve(base, edit, capsys)
    assert code == 1, captured.err
    assert captured.err.startswith(f"error: {bin_path}: index blob length mismatch: ")
