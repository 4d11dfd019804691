"""Dataset directory format: read and write.

Layout:
    observations.csv          header ``lat,lon,species_id``, decimal degrees
    raster.json / raster.bin  grid header + float32-LE values, (row, col, channel)
    tiles/manifest.json       [{tile_id, lat, lon, timestamp, file, offset, c, h, w}]
    tiles/pixels.bin          float32-LE pixels of every tile in manifest order,
                              each C x H x W, values in [0, 1]; a record's
                              `offset` is where its pixels start, in bytes
    text/sections.json        {"d_txt": D, "sections": [{species_id, section_id, row}]}
    text/embeddings.bin       float32-LE matrix, one row per section
    ground_truth.json         optional; habitat labels and text prototypes for
                              synthetic worlds (used by probing and zero-shot)

A manifest record without `offset` starts at byte 0 of its file, so the
older layout of one `tiles/tile_<id>.bin` per tile reads through the same
code. Either way the records naming a file must cover it exactly: no gap, no
overlap, no bytes after the last record.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geodata import CovariateRaster, ObservationError, Observations, TextSections, TileRecord

TILE_READ_BYTES = 1 << 19  # tile pixel bytes read together into one float32 array


@dataclass
class GroundTruth:
    n_habitats: int
    tile_habitats: dict[int, int]
    species_habitats: dict[int, int]
    text_prototypes: np.ndarray


@dataclass
class GeoDataset:
    observations: Observations
    raster: CovariateRaster
    tiles: list[TileRecord]
    texts: TextSections
    truth: GroundTruth | None = None


def pair_paths(path: str | Path) -> tuple[Path, Path]:
    """The `<prefix>.json` header and `<prefix>.bin` blob named by `path`.

    `path` is the prefix or either file of the pair. Only a trailing `.json`
    or `.bin` is stripped, so a dotted prefix such as `runs/exp.1` keeps its
    dots.
    """
    path = Path(path)
    prefix = path.with_suffix("") if path.suffix in (".json", ".bin") else path
    return prefix.with_name(prefix.name + ".json"), prefix.with_name(prefix.name + ".bin")


def write_json(path: Path, obj) -> None:
    """`obj` as sorted JSON, indented by 2, and a newline: each header's bytes."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


_JSON_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _is_kind(value, kind) -> bool:
    found = type(value)  # exact: a JSON true is a bool, not an int
    return found is kind or (kind is float and found is int and abs(value) < 2 ** 1023)


def require_fields(obj, fields: dict, where) -> dict:
    """`obj` if it is a JSON object holding every field of `fields` (name ->
    int, float, str, list or dict; a float field also takes an integer a
    float can hold). Otherwise a ValueError naming `where`: a file, or a
    record inside one."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = [name for name in fields if name not in obj]
    if missing:
        raise ValueError(f"{where}: missing fields {sorted(missing)}")
    for name, kind in fields.items():
        if not _is_kind(obj[name], kind):
            raise ValueError(f"{where}: field {name!r} must be {_JSON_KINDS[kind]}, "
                             f"got {obj[name]!r:.40}")
    return obj


_type_hints = functools.cache(typing.get_type_hints)  # a config class's field types


def dataclass_from_json(cls, obj, prefix: str = ""):
    """`cls(**obj)` for a JSON object of some of dataclass `cls`'s fields, each
    of its annotation's JSON type by require_fields' rule, else a ValueError
    naming the field: a nested dataclass from an object, a tuple from a list.
    A field `cls` does not have is the TypeError `cls` raises."""
    kinds = _type_hints(cls)
    fields = {}
    for name, value in obj.items():
        kind, where = kinds.get(name), prefix + name
        if dataclasses.is_dataclass(kind):
            if type(value) is not dict:
                raise ValueError(f"field {where!r} must be an object, got {value!r:.40}")
            value = dataclass_from_json(kind, value, where + ".")
        elif typing.get_origin(kind) is tuple:  # tuple[T, ...]
            item = typing.get_args(kind)[0]
            if type(value) is not list or not all(_is_kind(v, item) for v in value):
                raise ValueError(f"field {where!r} must be a list of {item.__name__}s, "
                                 f"got {value!r:.40}")
            value = tuple(value)
        elif kind is not None and not _is_kind(value, kind):
            raise ValueError(f"field {where!r} must be {_JSON_KINDS[kind]}, got {value!r:.40}")
        fields[name] = value
    return cls(**fields)


def read_json(path: str | Path):
    """The JSON value in `path`; malformed JSON is a ValueError naming the file,
    as are bytes that are not UTF-8, an integer too long to parse and arrays
    or objects nested too deep for the parser's recursion limit."""
    try:
        return json.loads(Path(path).read_text())
    # JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (ValueError, RecursionError) as e:
        raise ValueError(f"{path}: malformed JSON ({e})") from None


def save_dataset(directory: str | Path, dataset: GeoDataset) -> None:
    root = Path(directory)
    (root / "tiles").mkdir(parents=True, exist_ok=True)
    (root / "text").mkdir(parents=True, exist_ok=True)

    obs = dataset.observations
    lines = ["lat,lon,species_id"]
    # as Python floats: the repr of an np.float64 is not a CSV number
    lines += [f"{lat!r},{lon!r},{species}" for lat, lon, species
              in zip(obs.lat.tolist(), obs.lon.tolist(), obs.species.tolist())]
    (root / "observations.csv").write_text("\n".join(lines) + "\n")

    raster = dataset.raster
    write_json(root / "raster.json", {
        "rows": raster.rows, "cols": raster.cols, "channels": raster.channels,
        "lat0": raster.lat0, "lon0": raster.lon0,
        "dlat": raster.dlat, "dlon": raster.dlon,
        "channel_min": raster.channel_min.tolist(),
        "channel_max": raster.channel_max.tolist(),
    })
    (root / "raster.bin").write_bytes(raster.values.astype("<f4").tobytes())

    manifest, offset = [], 0
    with open(root / "tiles" / "pixels.bin", "wb") as blob:
        for tile in dataset.tiles:
            c, h, w = tile.pixels.shape
            blob.write(tile.pixels.astype("<f4").tobytes())
            manifest.append({"tile_id": tile.tile_id, "lat": tile.lat, "lon": tile.lon,
                             "timestamp": tile.timestamp, "file": "pixels.bin",
                             "offset": offset, "c": c, "h": h, "w": w})
            offset += 4 * c * h * w
    write_json(root / "tiles" / "manifest.json", manifest)

    texts = dataset.texts
    sections = [{"species_id": species, "section_id": section, "row": i} for i, (species, section)
                in enumerate(zip(texts.species.tolist(), texts.section.tolist()))]
    write_json(root / "text" / "sections.json", {"d_txt": texts.d_txt, "sections": sections})
    (root / "text" / "embeddings.bin").write_bytes(texts.embeddings.astype("<f4").tobytes())

    if dataset.truth is not None:
        t = dataset.truth
        write_json(root / "ground_truth.json", {
            "n_habitats": t.n_habitats,
            "tile_habitats": {str(k): v for k, v in sorted(t.tile_habitats.items())},
            "species_habitats": {str(k): v for k, v in sorted(t.species_habitats.items())},
            "text_prototypes": t.text_prototypes.tolist(),
        })


def _read_f32(path: Path, count: int) -> np.ndarray:
    data = np.frombuffer(path.read_bytes(), dtype="<f4")
    if data.size != count:
        raise ValueError(f"{path}: expected {count} float32 values, found {data.size}")
    return data.astype(np.float64)


def _load_observations(path: Path) -> Observations:
    """The observations in a CSV file. A bad row is a ValueError naming the
    file and its 1-based line: the first line with a wrong field count or a
    value that does not parse (a species_id must fit in 64 bits), else the
    first line holding a value out of range."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "lat,lon,species_id":
        raise ValueError(f"{path}: malformed header, expected 'lat,lon,species_id'")
    numbers, lat, lon, species = [], [], [], []
    for line_no, line in enumerate(lines[1:], start=2):  # 1-based, after the header
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}: expected 3 fields, line {line_no}")
        try:
            lat.append(float(parts[0]))
            lon.append(float(parts[1]))
            species.append(np.int64(int(parts[2])))
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: unparseable values, line {line_no}") from None
        numbers.append(line_no)
    try:
        return Observations(lat=np.array(lat), lon=np.array(lon),
                            species=np.array(species, dtype=np.int64))
    except ObservationError as e:
        raise ValueError(f"{path}: {e.reason}, line {numbers[e.row]}") from None


def _json_floats(obj, where: str) -> np.ndarray:
    """A JSON list of numbers, or of equal-length lists of them, as float64;
    anything else is a ValueError naming `where`."""
    if all(type(v) in (int, float) for v in np.array(obj, dtype=object).ravel()):
        try:
            return np.array(obj, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged, or an int too large for a float
            pass
    raise ValueError(f"{where} must be a list of numbers, or of equal-length number lists")


def _load_raster(root: Path) -> CovariateRaster:
    """The raster grid. The header's scalars must be finite, the cell sizes
    positive and the channel bounds one finite value per channel; a bad
    header is a ValueError naming raster.json."""
    header_path, blob_path = root / "raster.json", root / "raster.bin"
    header = require_fields(read_json(header_path),
                            {"rows": int, "cols": int, "channels": int, "lat0": float,
                             "lon0": float, "dlat": float, "dlon": float,
                             "channel_min": list, "channel_max": list}, header_path)
    shape = header["rows"], header["cols"], header["channels"]
    if min(shape) < 1:
        raise ValueError(f"{header_path}: rows, cols and channels must be >= 1, got {shape}")
    values = _read_f32(blob_path, math.prod(shape))
    if not np.isfinite(values).all():
        raise ValueError(f"{blob_path}: raster contains non-finite values")
    try:
        return CovariateRaster(lat0=header["lat0"], lon0=header["lon0"],
                               dlat=header["dlat"], dlon=header["dlon"],
                               values=values.reshape(shape),
                               channel_min=_json_floats(header["channel_min"], "channel_min"),
                               channel_max=_json_floats(header["channel_max"], "channel_max"))
    except ValueError as e:
        raise ValueError(f"{header_path}: {e}") from None


_TILE_FIELDS = {"tile_id": int, "lat": float, "lon": float, "timestamp": int, "file": str,
                "c": int, "h": int, "w": int}


def _check_tile_record(entry, where: str) -> None:
    """One manifest record's fields, shape and center; a bad one is a
    ValueError naming `where`."""
    require_fields(entry, _TILE_FIELDS, where)
    if "offset" in entry:
        require_fields(entry, {"offset": int}, where)
    shape = entry["c"], entry["h"], entry["w"]
    if min(shape) < 1:
        raise ValueError(f"{where}: tile shape must be positive, got {shape}")
    # the ranges of observations.csv; comparisons with NaN are false
    if not -90.0 <= entry["lat"] <= 90.0:
        raise ValueError(f"{where}: lat out of range, got {entry['lat']!r}")
    if not -180.0 <= entry["lon"] < 180.0:
        raise ValueError(f"{where}: lon out of range, got {entry['lon']!r}")


def _tile_records_valid(manifest: list) -> bool:
    """Whether every record passes _check_tile_record and no tile id repeats,
    checked one field at a time over the whole list."""
    try:  # a record that is not an object, or lacks a field
        columns = {name: [entry[name] for entry in manifest] for name in _TILE_FIELDS}
    except (TypeError, KeyError):
        return False
    columns["offset"] = [entry.get("offset", 0) for entry in manifest]
    for name, kind in dict(_TILE_FIELDS, offset=int).items():
        if not {type(v) for v in columns[name]} <= ({int, float} if kind is float else {kind}):
            return False
    # an int center of 2 ** 1023 or more, not a float field, is out of range anyway
    return (min(min(columns[name]) for name in "chw") >= 1
            and all(-90.0 <= lat <= 90.0 for lat in columns["lat"])
            and all(-180.0 <= lon < 180.0 for lon in columns["lon"])
            and len(set(columns["tile_id"])) == len(manifest))


def _load_tiles(root: Path) -> list[TileRecord]:
    """The manifest's tiles. The records are checked in one pass over the
    whole list; only when that fails are they checked one at a time, to name
    the first bad record. Each file the manifest names is read once, front
    to back, after a check that its records cover it exactly. The pixels stay
    float32, as stored: the records starting in one TILE_READ_BYTES window
    are read into one array, and each tile's pixels are a view into it.
    Arrays of ~512 KB, unlike one array of the whole dataset, fit the heap's
    free blocks, so eval peak RSS does not grow."""
    manifest_path = root / "tiles" / "manifest.json"
    manifest = read_json(manifest_path)
    if not isinstance(manifest, list):
        raise ValueError(f"{manifest_path}: expected a JSON list of tile records")
    if not manifest:
        raise ValueError(f"{manifest_path}: no tile records")
    if not _tile_records_valid(manifest):
        for i, entry in enumerate(manifest):
            _check_tile_record(entry, f"{manifest_path} record {i}")
        first_record: dict[int, int] = {}  # tile id -> its first record
        for i, entry in enumerate(manifest):
            if first_record.setdefault(entry["tile_id"], i) != i:
                raise ValueError(f"{manifest_path} record {i}: repeats tile id "
                                 f"{entry['tile_id']}")
    spans: dict[str, list[tuple[int, int, int]]] = {}  # file -> (offset, bytes, record)
    for i, entry in enumerate(manifest):
        spans.setdefault(entry["file"], []).append(
            (entry.get("offset", 0), 4 * entry["c"] * entry["h"] * entry["w"], i))

    flat: list[np.ndarray] = [None] * len(manifest)  # each record's pixels
    for name, records in spans.items():
        path = root / "tiles" / name
        records.sort()
        try:
            with open(path, "rb") as f:
                size = os.fstat(f.fileno()).st_size
                end = 0
                for offset, nbytes, i in records:
                    where = f"{manifest_path} record {i}"
                    if offset != end:
                        raise ValueError(f"{where}: starts at byte {offset} of {path}, "
                                         f"expected byte {end} "
                                         f"({'a gap' if offset > end else 'an overlap'})")
                    end = offset + nbytes
                    if end > size:
                        raise ValueError(f"{where}: bytes {offset}..{end} run past the end "
                                         f"of {path} ({size} bytes)")
                if end != size:
                    raise ValueError(f"{where}: {path} has {size - end} bytes after this "
                                     f"record, its last")
                # the records starting in one TILE_READ_BYTES window are read
                # together, into an array of their own
                for _, group in itertools.groupby(records, lambda r: r[0] // TILE_READ_BYTES):
                    group = list(group)
                    first = group[0][0]
                    raw = np.empty((group[-1][0] + group[-1][1] - first) // 4, dtype="<f4")
                    if f.readinto(raw) != raw.nbytes:
                        raise ValueError(f"{manifest_path} record {group[0][2]}: {path} "
                                         f"changed while it was read")
                    for offset, nbytes, i in group:
                        flat[i] = raw[(offset - first) // 4:(offset + nbytes - first) // 4]
        except OSError as e:
            raise ValueError(f"{manifest_path} record {records[0][2]}: cannot read {path} "
                             f"({e.strerror})") from None

    tiles = []
    for i, entry in enumerate(manifest):
        try:
            tiles.append(TileRecord(tile_id=entry["tile_id"], lat=entry["lat"],
                                    lon=entry["lon"], timestamp=entry["timestamp"],
                                    pixels=flat[i].reshape(entry["c"], entry["h"], entry["w"])))
        except ValueError as e:
            raise ValueError(f"{manifest_path} record {i}: {e}") from None
    return tiles


def _load_texts(root: Path) -> TextSections:
    header_path, blob_path = root / "text" / "sections.json", root / "text" / "embeddings.bin"
    header = require_fields(read_json(header_path), {"d_txt": int, "sections": list},
                            header_path)
    d_txt = int(header["d_txt"])
    blob = blob_path.read_bytes()
    if d_txt <= 0 or len(blob) % (4 * d_txt) != 0:
        raise ValueError(f"{blob_path}: length {len(blob)} bytes not divisible by d_txt "
                         f"{d_txt} float32 values")
    rows = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(-1, d_txt)
    fields = {"species_id": int, "section_id": int, "row": int}
    entries = [require_fields(entry, fields, f"{header_path} record {i}")
               for i, entry in enumerate(header["sections"])]
    wide = next((i for i, entry in enumerate(entries)
                 if not all(-2 ** 63 <= entry[name] < 2 ** 63 for name in fields)), None)
    if wide is not None:
        raise ValueError(f"{header_path} record {wide}: an integer does not fit in 64 bits")
    species, section, row = (np.array([entry[name] for entry in entries], dtype=np.int64)
                             for name in fields)
    bad = np.flatnonzero((row < 0) | (row >= rows.shape[0]))
    if bad.size:
        raise ValueError(f"{header_path}: row index out of range, record {bad[0]}")
    try:
        return TextSections(species=species, section=section, embeddings=rows[row])
    except ValueError as e:
        raise ValueError(f"{blob_path}: {e}") from None


def _habitats(obj: dict, key: str, n_habitats: int, path: Path) -> dict[int, int]:
    """`obj[key]`, a JSON object of id -> habitat, with integer ids and
    habitats in [0, n_habitats); anything else is a ValueError naming the
    file and the key."""
    habitats = {}
    for ident, habitat in obj[key].items():
        try:
            number = int(ident)
        except ValueError:
            raise ValueError(f"{path}: key {key!r}: id {ident!r:.40} is not an integer") from None
        if type(habitat) is not int or not 0 <= habitat < n_habitats:
            raise ValueError(f"{path}: key {key!r}: habitat of {ident} must be an integer "
                             f"in [0, {n_habitats}), got {habitat!r:.40}")
        habitats[number] = habitat
    return habitats


def _load_truth(root: Path, d_txt: int) -> GroundTruth | None:
    """Habitat labels and text prototypes. Habitats must be integers in
    [0, n_habitats) and the prototypes a finite (n_habitats, d_txt) matrix;
    anything else is a ValueError naming the file and the key."""
    path = root / "ground_truth.json"
    if not path.exists():
        return None
    obj = require_fields(read_json(path), {"n_habitats": int, "tile_habitats": dict,
                                            "species_habitats": dict, "text_prototypes": list},
                         path)
    n = obj["n_habitats"]
    prototypes = _json_floats(obj["text_prototypes"], f"{path}: key 'text_prototypes'")
    if prototypes.shape != (n, d_txt) or not np.isfinite(prototypes).all():
        raise ValueError(f"{path}: key 'text_prototypes' must be a finite (n_habitats, d_txt) "
                         f"= ({n}, {d_txt}) matrix, got shape {prototypes.shape}")
    return GroundTruth(n_habitats=n,
                       tile_habitats=_habitats(obj, "tile_habitats", n, path),
                       species_habitats=_habitats(obj, "species_habitats", n, path),
                       text_prototypes=prototypes)


def ingest_dataset(directory: str | Path) -> GeoDataset:
    """Load and validate a dataset directory."""
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"dataset directory not found: {root}")
    for required in ("observations.csv", "raster.json", "raster.bin"):
        if not (root / required).exists():
            raise ValueError(f"dataset is missing {required}")
    observations = _load_observations(root / "observations.csv")
    raster, tiles, texts = _load_raster(root), _load_tiles(root), _load_texts(root)
    dataset = GeoDataset(observations=observations, raster=raster, tiles=tiles, texts=texts,
                         truth=_load_truth(root, texts.d_txt))
    if dataset.truth is not None:
        unlabeled = [t.tile_id for t in dataset.tiles
                     if t.tile_id not in dataset.truth.tile_habitats]
        if unlabeled:
            raise ValueError(f"{root / 'ground_truth.json'}: no habitat for tile "
                             f"{unlabeled[0]}")
    return dataset
