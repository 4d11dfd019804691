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

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geodata import CovariateRaster, GeoObservation, TextSection, TileRecord
from .synthworld import SyntheticWorld

TILE_READ_BYTES = 1 << 19  # tile pixel bytes read and widened together


@dataclass
class GroundTruth:
    n_habitats: int
    tile_habitats: dict[int, int]
    species_habitats: dict[int, int]
    text_prototypes: np.ndarray


@dataclass
class GeoDataset:
    observations: list[GeoObservation]
    raster: CovariateRaster
    tiles: list[TileRecord]
    texts: list[TextSection]
    truth: GroundTruth | None = None

    @property
    def d_txt(self) -> int:
        return self.texts[0].embedding.size


def pair_paths(path: str | Path) -> tuple[Path, Path]:
    """The `<prefix>.json` header and `<prefix>.bin` blob named by `path`.

    `path` is the prefix or either file of the pair. Only a trailing `.json`
    or `.bin` is stripped, so a dotted prefix such as `runs/exp.1` keeps its
    dots.
    """
    path = Path(path)
    prefix = path.with_suffix("") if path.suffix in (".json", ".bin") else path
    return prefix.with_name(prefix.name + ".json"), prefix.with_name(prefix.name + ".bin")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object"}


def require_fields(obj, fields: dict, where) -> dict:
    """`obj` if it is a JSON object holding every field of `fields` (name ->
    int, float, str, list or dict; a float field also takes an integer).
    Otherwise a ValueError naming `where`: a file, or a record inside one."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = [name for name in fields if name not in obj]
    if missing:
        raise ValueError(f"{where}: missing fields {sorted(missing)}")
    for name, kind in fields.items():
        found = type(obj[name])  # exact: a JSON true is a bool, not an int
        if found is not kind and not (kind is float and found is int):
            raise ValueError(f"{where}: field {name!r} must be {_JSON_KINDS[kind]}, "
                             f"got {obj[name]!r:.40}")
    return obj


def read_json(path: str | Path):
    """The JSON value in `path`; malformed JSON is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON ({e})") from None


def save_dataset(directory: str | Path, dataset: GeoDataset) -> None:
    root = Path(directory)
    (root / "tiles").mkdir(parents=True, exist_ok=True)
    (root / "text").mkdir(parents=True, exist_ok=True)

    lines = ["lat,lon,species_id"]
    lines += [f"{obs.lat!r},{obs.lon!r},{obs.species_id}" for obs in dataset.observations]
    (root / "observations.csv").write_text("\n".join(lines) + "\n")

    raster = dataset.raster
    _write_json(root / "raster.json", {
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
    _write_json(root / "tiles" / "manifest.json", manifest)

    d_txt = dataset.d_txt
    sections = [{"species_id": s.species_id, "section_id": s.section_id, "row": i}
                for i, s in enumerate(dataset.texts)]
    _write_json(root / "text" / "sections.json", {"d_txt": d_txt, "sections": sections})
    rows = np.stack([s.embedding for s in dataset.texts])
    (root / "text" / "embeddings.bin").write_bytes(rows.astype("<f4").tobytes())

    if dataset.truth is not None:
        t = dataset.truth
        _write_json(root / "ground_truth.json", {
            "n_habitats": t.n_habitats,
            "tile_habitats": {str(k): v for k, v in sorted(t.tile_habitats.items())},
            "species_habitats": {str(k): v for k, v in sorted(t.species_habitats.items())},
            "text_prototypes": t.text_prototypes.tolist(),
        })


def dataset_from_world(world: SyntheticWorld) -> GeoDataset:
    truth = GroundTruth(n_habitats=world.config.n_habitats,
                        tile_habitats=dict(world.tile_habitats),
                        species_habitats=dict(world.species_habitats),
                        text_prototypes=world.text_prototypes.copy())
    return GeoDataset(observations=list(world.observations), raster=world.raster,
                      tiles=list(world.tiles), texts=list(world.texts), truth=truth)


def _read_f32(path: Path, count: int) -> np.ndarray:
    data = np.frombuffer(path.read_bytes(), dtype="<f4")
    if data.size != count:
        raise ValueError(f"{path}: expected {count} float32 values, found {data.size}")
    return data.astype(np.float64)


def _load_observations(path: Path) -> list[GeoObservation]:
    text = path.read_text()
    lines = text.splitlines()
    if not lines or lines[0].strip() != "lat,lon,species_id":
        raise ValueError(f"{path}: malformed header, expected 'lat,lon,species_id'")
    observations = []
    for line_no, line in enumerate(lines[1:], start=2):  # 1-based, after the header
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}: expected 3 fields, line {line_no}")
        try:
            lat, lon, sid = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"{path}: unparseable values, line {line_no}") from None
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"{path}: lat out of range, line {line_no}")
        if not -180.0 <= lon < 180.0:
            raise ValueError(f"{path}: lon out of range, line {line_no}")
        if sid < 0:
            raise ValueError(f"{path}: negative species_id, line {line_no}")
        observations.append(GeoObservation(lat=lat, lon=lon, species_id=sid))
    return observations


def _load_raster(root: Path) -> CovariateRaster:
    header_path = root / "raster.json"
    header = require_fields(read_json(header_path),
                            {"rows": int, "cols": int, "channels": int, "lat0": float,
                             "lon0": float, "dlat": float, "dlon": float,
                             "channel_min": list, "channel_max": list}, header_path)
    rows, cols, channels = header["rows"], header["cols"], header["channels"]
    values = _read_f32(root / "raster.bin", rows * cols * channels)
    return CovariateRaster(lat0=header["lat0"], lon0=header["lon0"],
                           dlat=header["dlat"], dlon=header["dlon"],
                           values=values.reshape(rows, cols, channels),
                           channel_min=np.asarray(header["channel_min"]),
                           channel_max=np.asarray(header["channel_max"]))


def _load_tiles(root: Path) -> list[TileRecord]:
    """The manifest's tiles. Each file it names is read once, front to back,
    after a check that its records cover it exactly. The pixels are widened
    a group of records at a time, and each tile's pixels are a view into its
    group's float64 array. Arrays of ~1 MB, unlike one array of the whole
    dataset, fit the heap's free blocks, so eval peak RSS does not grow."""
    manifest_path = root / "tiles" / "manifest.json"
    manifest = read_json(manifest_path)
    if not isinstance(manifest, list):
        raise ValueError(f"{manifest_path}: expected a JSON list of tile records")
    spans: dict[str, list[tuple[int, int, int]]] = {}  # file -> (offset, bytes, record)
    for i, entry in enumerate(manifest):
        where = f"{manifest_path} record {i}"
        require_fields(entry, {"tile_id": int, "lat": float, "lon": float, "timestamp": int,
                               "file": str, "c": int, "h": int, "w": int}, where)
        if "offset" in entry:
            require_fields(entry, {"offset": int}, where)
        shape = entry["c"], entry["h"], entry["w"]
        if min(shape) < 1:
            raise ValueError(f"{where}: tile shape must be positive, got {shape}")
        spans.setdefault(entry["file"], []).append(
            (entry.get("offset", 0), 4 * math.prod(shape), i))

    flat: list[np.ndarray] = [None] * len(manifest)  # each record's widened pixels
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
                # the records starting in one TILE_READ_BYTES window are read and
                # widened together, into an array of their own
                for _, group in itertools.groupby(records, lambda r: r[0] // TILE_READ_BYTES):
                    group = list(group)
                    first = group[0][0]
                    raw = np.empty((group[-1][0] + group[-1][1] - first) // 4, dtype="<f4")
                    if f.readinto(raw) != raw.nbytes:
                        raise ValueError(f"{manifest_path} record {group[0][2]}: {path} "
                                         f"changed while it was read")
                    wide = raw.astype(np.float64)
                    for offset, nbytes, i in group:
                        flat[i] = wide[(offset - first) // 4:(offset + nbytes - first) // 4]
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


def _load_texts(root: Path) -> list[TextSection]:
    header_path, blob_path = root / "text" / "sections.json", root / "text" / "embeddings.bin"
    header = require_fields(read_json(header_path), {"d_txt": int, "sections": list},
                            header_path)
    d_txt = int(header["d_txt"])
    blob = np.frombuffer(blob_path.read_bytes(), dtype="<f4")
    if d_txt <= 0 or blob.size % d_txt != 0:
        raise ValueError(f"{blob_path}: length {blob.size} not divisible by d_txt {d_txt}")
    rows = blob.astype(np.float64).reshape(-1, d_txt)
    texts = []
    for i, entry in enumerate(header["sections"]):
        require_fields(entry, {"species_id": int, "section_id": int, "row": int},
                       f"{header_path} record {i}")
        row = entry["row"]
        if not 0 <= row < rows.shape[0]:
            raise ValueError(f"{header_path}: row index out of range, record {i}")
        texts.append(TextSection(species_id=entry["species_id"],
                                 section_id=entry["section_id"],
                                 embedding=rows[row]))
    return texts


def _load_truth(root: Path) -> GroundTruth | None:
    path = root / "ground_truth.json"
    if not path.exists():
        return None
    obj = require_fields(read_json(path), {"n_habitats": int, "tile_habitats": dict,
                                            "species_habitats": dict, "text_prototypes": list},
                         path)
    return GroundTruth(n_habitats=obj["n_habitats"],
                       tile_habitats={int(k): v for k, v in obj["tile_habitats"].items()},
                       species_habitats={int(k): v for k, v in obj["species_habitats"].items()},
                       text_prototypes=np.asarray(obj["text_prototypes"], dtype=np.float64))


def ingest_dataset(directory: str | Path) -> GeoDataset:
    """Load and validate a dataset directory."""
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"dataset directory not found: {root}")
    for required in ("observations.csv", "raster.json", "raster.bin"):
        if not (root / required).exists():
            raise ValueError(f"dataset is missing {required}")
    dataset = GeoDataset(observations=_load_observations(root / "observations.csv"),
                         raster=_load_raster(root),
                         tiles=_load_tiles(root),
                         texts=_load_texts(root),
                         truth=_load_truth(root))
    if dataset.truth is not None:
        unlabeled = [t.tile_id for t in dataset.tiles
                     if t.tile_id not in dataset.truth.tile_habitats]
        if unlabeled:
            raise ValueError(f"{root / 'ground_truth.json'}: no habitat for tile "
                             f"{unlabeled[0]}")
    return dataset
