"""Data model for observations, covariate rasters, tiles, and text embeddings,
plus the observation-to-sample pairing pipeline."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

COVARIATE_CHANNELS = 20


@dataclass(frozen=True)
class GeoObservation:
    """One geo-tagged species record."""

    lat: float
    lon: float
    species_id: int

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat out of range: {self.lat}")
        if not -180.0 <= self.lon < 180.0:
            raise ValueError(f"lon out of range: {self.lon}")
        if self.species_id < 0:
            raise ValueError(f"species_id must be non-negative, got {self.species_id}")


@dataclass
class CovariateRaster:
    """Regular lat/lon grid of environmental covariate vectors.

    Node (row, col) sits at (lat0 + row*dlat, lon0 + col*dlon); queries are
    valid anywhere inside the node hull.
    """

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    values: np.ndarray  # (rows, cols, channels)
    channel_min: np.ndarray = None
    channel_max: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"raster values must be 3-D, got shape {self.values.shape}")
        if self.dlat <= 0 or self.dlon <= 0:
            raise ValueError("raster cell sizes must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("raster contains non-finite values")
        if self.channel_min is None:
            self.channel_min = self.values.min(axis=(0, 1))
        if self.channel_max is None:
            self.channel_max = self.values.max(axis=(0, 1))
        self.channel_min = np.asarray(self.channel_min, dtype=np.float64)
        self.channel_max = np.asarray(self.channel_max, dtype=np.float64)
        if np.any(self.channel_min > self.channel_max):
            raise ValueError("per-channel min exceeds max")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    @property
    def lat_max(self) -> float:
        return self.lat0 + (self.rows - 1) * self.dlat

    @property
    def lon_max(self) -> float:
        return self.lon0 + (self.cols - 1) * self.dlon

    def normalize(self, covariates: np.ndarray) -> np.ndarray:
        """Min-max scale a covariate vector to [-1, 1] with raster-wide stats."""
        span = self.channel_max - self.channel_min
        span = np.where(span > 0, span, 1.0)
        return np.clip(2.0 * (covariates - self.channel_min) / span - 1.0, -1.0, 1.0)


@dataclass
class TileRecord:
    """One satellite tile: center coordinates, acquisition time, pixels in [0, 1]."""

    tile_id: int
    lat: float
    lon: float
    timestamp: int
    pixels: np.ndarray  # (C, H, W)

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3:
            raise ValueError(f"tile {self.tile_id}: pixels must be (C, H, W), "
                             f"got shape {self.pixels.shape}")
        lo, hi = self.pixels.min(initial=0.0), self.pixels.max(initial=0.0)
        if not (lo >= 0.0 and hi <= 1.0):  # also catches NaN
            raise ValueError(f"tile {self.tile_id}: pixels outside [0, 1] "
                             f"(min {lo:.4g}, max {hi:.4g})")


@dataclass
class TextSection:
    """Precomputed embedding of one section of a species description."""

    species_id: int
    section_id: int
    embedding: np.ndarray

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.ndim != 1:
            raise ValueError("text embedding must be a vector")
        if not np.all(np.isfinite(self.embedding)):
            raise ValueError(f"non-finite text embedding for species {self.species_id} "
                             f"section {self.section_id}")


@dataclass
class TrainingSample:
    """One aligned record: temporal tile pair, observation, covariates, text."""

    tile_a: TileRecord
    tile_b: TileRecord
    location: GeoObservation
    covariates: np.ndarray  # normalized to [-1, 1]
    text: TextSection

    def __post_init__(self):
        if self.text.species_id != self.location.species_id:
            raise ValueError("text species does not match observation species")


@dataclass
class PairingResult:
    samples: list[TrainingSample]
    skips: dict[str, int] = field(default_factory=dict)

    def __len__(self):
        return len(self.samples)


def bilinear_sample(raster: CovariateRaster, lat: float, lon: float) -> np.ndarray:
    """Bilinearly interpolate the covariate vector at (lat, lon).

    Exact at grid nodes; raises for queries outside the node hull.
    """
    r = (lat - raster.lat0) / raster.dlat
    c = (lon - raster.lon0) / raster.dlon
    if not (0.0 <= r <= raster.rows - 1 and 0.0 <= c <= raster.cols - 1):
        raise ValueError(f"query ({lat}, {lon}) outside raster bounds "
                         f"lat [{raster.lat0}, {raster.lat_max}], "
                         f"lon [{raster.lon0}, {raster.lon_max}]")
    r0 = min(int(math.floor(r)), raster.rows - 2) if raster.rows > 1 else 0
    c0 = min(int(math.floor(c)), raster.cols - 2) if raster.cols > 1 else 0
    tr = r - r0
    tc = c - c0
    v = raster.values
    if raster.rows == 1 and raster.cols == 1:
        return v[0, 0].copy()
    if raster.rows == 1:
        return (1 - tc) * v[0, c0] + tc * v[0, c0 + 1]
    if raster.cols == 1:
        return (1 - tr) * v[r0, 0] + tr * v[r0 + 1, 0]
    return ((1 - tr) * (1 - tc) * v[r0, c0]
            + (1 - tr) * tc * v[r0, c0 + 1]
            + tr * (1 - tc) * v[r0 + 1, c0]
            + tr * tc * v[r0 + 1, c0 + 1])


def tile_species_targets(tiles: list[TileRecord], observations: list[GeoObservation],
                         radius: float) -> np.ndarray:
    """Per-tile species presence, shape (tiles, species): 1 when an
    observation of the species lies within `radius` degrees of the tile
    center (planar distance, boundary included)."""
    lat = np.array([o.lat for o in observations], dtype=np.float64)
    lon = np.array([o.lon for o in observations], dtype=np.float64)
    species = np.array([o.species_id for o in observations])
    targets = np.zeros((len(tiles), int(species.max()) + 1))
    for t_idx, tile in enumerate(tiles):
        near = np.hypot(lat - tile.lat, lon - tile.lon) <= radius
        targets[t_idx, species[near]] = 1.0
    return targets


def _cell(value: float, width: float) -> int | None:
    """Grid index of a coordinate, or None where the index would be too
    coarse a float (or not finite) to place the value within a cell."""
    index = value / width
    return math.floor(index) if abs(index) < 2.0 ** 50 else None


def _center_grid(centers: list[tuple[float, float]], width: float):
    """Bucket center indices by grid cell; centers that fit no cell are
    returned apart, to be checked against every observation."""
    grid: dict[tuple[int, int], list[int]] = {}
    unplaced = []
    for i, (lat, lon) in enumerate(centers):
        cell = (_cell(lat, width), _cell(lon, width))
        if None in cell:
            unplaced.append(i)
        else:
            grid.setdefault(cell, []).append(i)
    return grid, unplaced


def _nearest_centers(observations: list[GeoObservation], center_lat: np.ndarray,
                     center_lon: np.ndarray, center_tile_id: np.ndarray,
                     grid: dict, unplaced: list[int], width: float,
                     radius: float) -> np.ndarray:
    """Per observation, the index of the nearest center within `radius`
    (ties by lowest tile_id, then lowest index), or -1 when there is none.

    Each observation's candidates are the centers of its 3 x 3 block of
    cells plus the unplaced ones. They are laid out as one padded row per
    observation, and the rows are measured with one `np.hypot` per chunk of
    about 2^20 candidates.
    """
    blocks = []
    for obs in observations:
        row, col = _cell(obs.lat, width), _cell(obs.lon, width)
        block = list(unplaced)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                block.extend(grid.get((row + dr, col + dc), ()))
        blocks.append(block)
    n = len(blocks)
    nearest = np.full(n, -1, dtype=np.intp)
    counts = np.array([len(b) for b in blocks])
    most = int(counts.max())
    if most == 0:
        return nearest
    filled = np.arange(most) < counts[:, None]
    cand = np.zeros((n, most), dtype=np.intp)
    cand[filled] = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.intp,
                               count=int(counts.sum()))
    rank = np.empty(len(center_lat), dtype=np.intp)
    rank[np.lexsort((np.arange(len(center_lat)), center_tile_id))] = np.arange(len(center_lat))
    lat = np.array([o.lat for o in observations], dtype=np.float64)
    lon = np.array([o.lon for o in observations], dtype=np.float64)
    chunk = max(1, 2 ** 20 // most)
    for lo in range(0, n, chunk):
        rows = slice(lo, lo + chunk)
        c = cand[rows]
        dist = np.hypot(lat[rows, None] - center_lat[c], lon[rows, None] - center_lon[c])
        dist[~(filled[rows] & (dist <= radius))] = np.inf
        closest = dist.min(axis=1)
        # among the candidates at the closest distance, the lowest rank
        best = np.argmin(np.where(dist == closest[:, None], rank[c], len(rank)), axis=1)
        found = np.isfinite(closest)
        nearest[rows][found] = c[found, best[found]]
    return nearest


def pair_samples(observations: list[GeoObservation], tiles: list[TileRecord],
                 texts: list[TextSection], raster: CovariateRaster,
                 matching_radius: float = 0.05, seed: int = 0) -> PairingResult:
    """Pair each observation with tiles, covariates, and one text section.

    The nearest tile center within the matching radius supplies tile_a (ties
    by lowest tile_id); tile_b is a uniformly random tile at the same center
    with a different timestamp, or tile_a itself when none exists. One text
    section of the observed species is sampled uniformly. Covariates come
    from bilinear interpolation at the observation location and are min-max
    normalized to [-1, 1]. Observations that cannot be paired are skipped and
    counted, and pairing fails only when nothing survives.

    Tile centers are bucketed on a grid of cells at least twice the radius
    wide, and each observation measures only the centers in its own cell and
    the 8 around it (see `_nearest_centers`). A center within the radius is
    at most half a cell away, which leaves half a cell of slack for the
    rounding of the cell indices.
    """
    if not observations:
        raise ValueError("empty observation list")
    rng = np.random.default_rng(seed)

    by_center: dict[tuple[float, float], list[TileRecord]] = {}
    for t in tiles:
        by_center.setdefault((t.lat, t.lon), []).append(t)
    for group in by_center.values():
        group.sort(key=lambda t: t.tile_id)
    centers = sorted(by_center)
    center_lat = np.array([lat for lat, _ in centers], dtype=np.float64)
    center_lon = np.array([lon for _, lon in centers], dtype=np.float64)
    center_tile_id = np.array([by_center[c][0].tile_id for c in centers])
    # cells of at least 1e-6 degrees keep every observation's cell index far
    # from the float precision limit
    width = max(2.0 * matching_radius, 1e-6)
    grid, unplaced = _center_grid(centers, width)

    by_species: dict[int, list[TextSection]] = {}
    for s in texts:
        by_species.setdefault(s.species_id, []).append(s)
    for group in by_species.values():
        group.sort(key=lambda s: s.section_id)

    nearest = _nearest_centers(observations, center_lat, center_lon, center_tile_id,
                               grid, unplaced, width, matching_radius)
    samples: list[TrainingSample] = []
    skips = {"no_tile": 0, "no_text": 0, "covariates_out_of_bounds": 0}
    for obs, best in zip(observations, nearest):
        if best < 0:
            skips["no_tile"] += 1
            continue
        sections = by_species.get(obs.species_id)
        if not sections:
            skips["no_text"] += 1
            continue
        try:
            covariates = bilinear_sample(raster, obs.lat, obs.lon)
        except ValueError:
            skips["covariates_out_of_bounds"] += 1
            continue

        group = by_center[centers[best]]
        tile_a = group[0]
        alternates = [t for t in group if t.timestamp != tile_a.timestamp]
        tile_b = alternates[rng.integers(len(alternates))] if alternates else tile_a
        section = sections[rng.integers(len(sections))]
        samples.append(TrainingSample(tile_a=tile_a, tile_b=tile_b, location=obs,
                                      covariates=raster.normalize(covariates),
                                      text=section))

    skips = {k: v for k, v in skips.items() if v}
    if not samples:
        raise ValueError(f"all {len(observations)} observations skipped: {skips}")
    return PairingResult(samples=samples, skips=skips)
