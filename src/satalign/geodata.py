"""Data model for observations, covariate rasters, tiles, and text embeddings,
plus the observation-to-sample pairing pipeline.

Observations, text sections and paired samples are columns: one array per
field, validated once over the whole array. Tiles stay one record each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

COVARIATE_CHANNELS = 20

# The widest radius a radius search takes: its cells, twice as wide, are
# still finite. A wider cell is inf, every key holding it is NaN, and no point
# would be in reach.
MAX_RADIUS = sys.float_info.max / 2

# Candidate pairs that a radius search measures at once; its temporaries stay
# a few MB however many points a query has in reach.
TARGET_JOIN_PAIRS = 1 << 18


class ObservationError(ValueError):
    """An observation holding an out-of-range value: `row` is its index and
    `reason` its first failing check."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"observation {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass
class Observations:
    """Geo-tagged species records, one row per observation."""

    lat: np.ndarray
    lon: np.ndarray
    species: np.ndarray

    def __post_init__(self):
        self.lat = np.asarray(self.lat, dtype=np.float64)
        self.lon = np.asarray(self.lon, dtype=np.float64)
        self.species = np.asarray(self.species, dtype=np.int64)
        if self.lat.ndim != 1 or not self.lat.shape == self.lon.shape == self.species.shape:
            raise ValueError("observation lat, lon and species must be vectors of one length")
        failures = np.stack([~((self.lat >= -90.0) & (self.lat <= 90.0)),  # also catches NaN
                             ~((self.lon >= -180.0) & (self.lon < 180.0)), self.species < 0])
        bad = np.flatnonzero(failures.any(axis=0))
        if bad.size:
            reasons = ("lat out of range", "lon out of range", "negative species_id")
            raise ObservationError(int(bad[0]), reasons[np.argmax(failures[:, bad[0]])])

    def __len__(self):
        return len(self.species)


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
        grid = {"lat0": self.lat0, "lon0": self.lon0, "dlat": self.dlat, "dlon": self.dlon}
        if not (all(map(math.isfinite, grid.values())) and self.dlat > 0 and self.dlon > 0):
            raise ValueError(f"raster origin and cell sizes must be finite, and cell sizes "
                             f"positive, got {grid}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("raster contains non-finite values")
        if self.channel_min is None:
            self.channel_min = self.values.min(axis=(0, 1))
        if self.channel_max is None:
            self.channel_max = self.values.max(axis=(0, 1))
        self.channel_min = np.asarray(self.channel_min, dtype=np.float64)
        self.channel_max = np.asarray(self.channel_max, dtype=np.float64)
        for name, bound in (("channel_min", self.channel_min), ("channel_max", self.channel_max)):
            if bound.shape != (self.channels,) or not np.all(np.isfinite(bound)):
                raise ValueError(f"{name} must be {self.channels} finite values, one per "
                                 f"channel, got shape {bound.shape}")
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

    def grid_position(self, lat, lon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fractional grid (row, col) of each query, and whether the query
        lies inside the node hull."""
        r = (np.asarray(lat, dtype=np.float64) - self.lat0) / self.dlat
        c = (np.asarray(lon, dtype=np.float64) - self.lon0) / self.dlon
        inside = (0.0 <= r) & (r <= self.rows - 1) & (0.0 <= c) & (c <= self.cols - 1)
        return r, c, inside

    def normalize(self, covariates: np.ndarray) -> np.ndarray:
        """Min-max scale covariate vectors (the last axis) to [-1, 1] with
        raster-wide stats."""
        span = self.channel_max - self.channel_min
        span = np.where(span > 0, span, 1.0)
        return np.clip(2.0 * (covariates - self.channel_min) / span - 1.0, -1.0, 1.0)


@dataclass
class TileRecord:
    """One satellite tile: center coordinates, acquisition time, pixels in [0, 1].
    Float32 pixels (as ingested) are kept; consumers widen them. Others become float64."""

    tile_id: int
    lat: float
    lon: float
    timestamp: int
    pixels: np.ndarray  # (C, H, W)

    def __post_init__(self):
        if not (isinstance(self.pixels, np.ndarray) and self.pixels.dtype == np.float32):
            self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3:
            raise ValueError(f"tile {self.tile_id}: pixels must be (C, H, W), "
                             f"got shape {self.pixels.shape}")
        lo, hi = self.pixels.min(initial=0.0), self.pixels.max(initial=0.0)
        if not (lo >= 0.0 and hi <= 1.0):  # also catches NaN
            raise ValueError(f"tile {self.tile_id}: pixels outside [0, 1] "
                             f"(min {lo:.4g}, max {hi:.4g})")


@dataclass
class TextSections:
    """Precomputed embeddings of species-description sections, one row per
    section: `embeddings[i]` embeds section `section[i]` of species
    `species[i]`."""

    species: np.ndarray
    section: np.ndarray
    embeddings: np.ndarray  # (rows, d_txt)

    def __post_init__(self):
        self.species = np.asarray(self.species, dtype=np.int64)
        self.section = np.asarray(self.section, dtype=np.int64)
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if (self.embeddings.ndim != 2 or self.species.ndim != 1
                or not self.species.shape == self.section.shape == self.embeddings.shape[:1]):
            raise ValueError("text sections need species and section vectors and one "
                             "embedding row per section")
        bad = np.flatnonzero(~np.isfinite(self.embeddings).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite text embedding for species {self.species[bad[0]]} "
                             f"section {self.section[bad[0]]}")

    @property
    def d_txt(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class PairedSamples:
    """Aligned training samples as columns. Sample i pairs the tiles
    `tiles[tile_a[i]]` and `tiles[tile_b[i]]` (a second timestamp of the
    same center, or tile_a again) with the observation at (lat[i], lon[i]),
    its covariates[i] normalized to [-1, 1], and the text embedding
    `texts.embeddings[text_row[i]]` of the observed species."""

    tiles: list[TileRecord]
    texts: TextSections
    tile_a: np.ndarray
    tile_b: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    covariates: np.ndarray  # (n, channels)
    text_row: np.ndarray

    def __len__(self):
        return len(self.tile_a)

    def __getitem__(self, rows) -> PairedSamples:
        """The samples at `rows`, a slice or an index array, in that order."""
        return replace(self, tile_a=self.tile_a[rows], tile_b=self.tile_b[rows],
                       lat=self.lat[rows], lon=self.lon[rows],
                       covariates=self.covariates[rows], text_row=self.text_row[rows])


@dataclass
class PairingResult:
    samples: PairedSamples
    skips: dict[str, int] = field(default_factory=dict)


def bilinear_sample(raster: CovariateRaster, lat, lon) -> np.ndarray:
    """Bilinearly interpolate the covariate vector at each (lat, lon): a
    (channels,) vector for scalar coordinates, (n, channels) for vectors.

    Exact at grid nodes; raises for a query outside the node hull.
    """
    r, c, inside = raster.grid_position(lat, lon)
    if not inside.all():
        k = np.flatnonzero(~inside.ravel())[0]
        raise ValueError(f"query ({np.ravel(lat)[k]}, {np.ravel(lon)[k]}) outside raster "
                         f"bounds lat [{raster.lat0}, {raster.lat_max}], "
                         f"lon [{raster.lon0}, {raster.lon_max}]")
    v = raster.values
    if raster.rows == 1 and raster.cols == 1:
        return np.broadcast_to(v[0, 0], r.shape + v.shape[2:]).copy()
    r0 = np.minimum(np.floor(r), raster.rows - 2) if raster.rows > 1 else np.zeros_like(r)
    c0 = np.minimum(np.floor(c), raster.cols - 2) if raster.cols > 1 else np.zeros_like(c)
    tr = (r - r0)[..., None]
    tc = (c - c0)[..., None]
    i, j = r0.astype(np.intp), c0.astype(np.intp)
    if raster.rows == 1:
        return (1 - tc) * v[0, j] + tc * v[0, j + 1]
    if raster.cols == 1:
        return (1 - tr) * v[i, 0] + tr * v[i + 1, 0]
    return ((1 - tr) * (1 - tc) * v[i, j]
            + (1 - tr) * tc * v[i, j + 1]
            + tr * (1 - tc) * v[i + 1, j]
            + tr * tc * v[i + 1, j + 1])


def _cell_width(radius: float) -> float:
    """The width of the cells that bucket points for a radius search: at
    least twice the radius, so a point within the radius is at most half a
    cell away, which leaves half a cell of slack for rounding. Cells of at
    least 1e-6 degrees keep every point's cell index far from the float
    precision limit. A radius above MAX_RADIUS, or NaN, is a ValueError."""
    if not radius <= MAX_RADIUS:  # NaN fails the comparison
        raise ValueError(f"radius must be at most {MAX_RADIUS!r}, got {radius!r}")
    return max(2.0 * radius, 1e-6)


def _bucket(lat: np.ndarray, lon: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """The points in order of their key, (row of cells `width` wide,
    longitude) as a complex number, which numpy sorts lexicographically (a
    key holding NaN last), and the keys in that order. The points of one row
    then form one run, in longitude order."""
    keys = np.floor(lat / width).astype(complex)
    keys.imag = lon
    members = np.argsort(keys, kind="stable")
    return members, keys[members]


def _row_windows(keys: np.ndarray, lat: np.ndarray, lon: np.ndarray,
                 width: float) -> tuple[np.ndarray, np.ndarray]:
    """Per query point, the runs [lo, hi) of `keys` (from `_bucket`) in the
    point's row of cells and the two beside it whose longitude is within
    `width` of the point's: two (3, n) arrays, row below first."""
    row = np.floor(lat / width)
    rows = np.stack([row - 1, row, row + 1])
    lo = np.searchsorted(keys, rows + 1j * (lon - width))
    hi = np.searchsorted(keys, rows + 1j * (lon + width), side="right")
    return lo, hi


def _pairs_within(q_lat: np.ndarray, q_lon: np.ndarray, p_lat: np.ndarray,
                  p_lon: np.ndarray, radius: float):
    """Every (query, point) pair within `radius` degrees (planar distance,
    boundary included) as arrays (query, point, dist), one group of about
    TARGET_JOIN_PAIRS candidate pairs at a time; all pairs of one query come
    in one group. The points are bucketed in cells `_cell_width(radius)`
    wide (see `_bucket`), and each query measures only the points of its row
    and the two beside it within one cell width of its longitude (see
    `_row_windows`). A non-finite coordinate is never within the radius."""
    width = _cell_width(radius)
    members, keys = _bucket(p_lat, p_lon, width)
    lo, hi = _row_windows(keys, q_lat, q_lon, width)
    runs = hi - lo
    pairs = runs.sum(axis=0)
    first_pair = np.cumsum(pairs) - pairs
    # the queries whose first pair falls in one TARGET_JOIN_PAIRS window
    for group in np.split(np.arange(len(q_lat)),
                          np.flatnonzero(np.diff(first_pair // TARGET_JOIN_PAIRS)) + 1):
        run_lo, run_len = lo[:, group].ravel(), runs[:, group].ravel()
        query = np.repeat(np.tile(group, 3), run_len)
        run_start = np.cumsum(run_len) - run_len
        point = members[np.repeat(run_lo - run_start, run_len) + np.arange(query.size)]
        dist = np.hypot(q_lat[query] - p_lat[point], q_lon[query] - p_lon[point])
        near = dist <= radius
        yield query[near], point[near], dist[near]


def tile_species_targets(tiles: list[TileRecord], observations: Observations,
                         radius: float) -> np.ndarray:
    """Per-tile species presence, shape (tiles, distinct species observed):
    column j stands for the j-th smallest species id, so with ids 0..S-1 all
    observed, column j is species j. An entry is 1 when an observation of
    the species lies within `radius` degrees of the tile center (planar
    distance, boundary included), as `_pairs_within` finds it."""
    species, column = np.unique(observations.species, return_inverse=True)
    targets = np.zeros((len(tiles), species.size))
    center_lat = np.array([t.lat for t in tiles], dtype=np.float64)
    center_lon = np.array([t.lon for t in tiles], dtype=np.float64)
    for tile, obs, _ in _pairs_within(center_lat, center_lon, observations.lat,
                                      observations.lon, radius):
        targets[tile, column[obs]] = 1.0
    return targets


def pair_samples(observations: Observations, tiles: list[TileRecord],
                 texts: TextSections, raster: CovariateRaster,
                 matching_radius: float = 0.05, seed: int = 0) -> PairingResult:
    """Pair each observation with tiles, covariates, and one text section.

    The nearest tile center within the matching radius supplies tile_a (ties
    by lowest tile_id); tile_b is a uniformly random tile at the same center
    with a different timestamp, or tile_a itself when none exists. One text
    section of the observed species is sampled uniformly. Covariates come
    from bilinear interpolation at the observation location and are min-max
    normalized to [-1, 1]. Observations that cannot be paired are skipped and
    counted under the first reason that applies (no_tile, no_text,
    covariates_out_of_bounds), and pairing fails only when nothing survives.

    The draws are one `rng.integers` call over an array of bounds: per
    paired observation in order, the number of alternate tiles (when there
    is one) and then the number of sections. It gives the values, and
    leaves the generator in the state, of one scalar call per draw.
    """
    n = len(observations)
    if not n:
        raise ValueError("empty observation list")
    rng = np.random.default_rng(seed)

    by_center: dict[tuple[float, float], list[int]] = {}
    for i, t in enumerate(tiles):
        by_center.setdefault((t.lat, t.lon), []).append(i)
    centers = sorted(by_center)
    groups = [sorted(by_center[c], key=lambda i: tiles[i].tile_id) for c in centers]
    center_lat, center_lon = np.array(centers, dtype=np.float64).reshape(-1, 2).T
    first = np.array([g[0] for g in groups], dtype=np.intp)
    center_tile_id = np.array([tiles[g[0]].tile_id for g in groups])
    # per center, the tiles whose timestamp differs from its first tile's
    alternates = [[i for i in g if tiles[i].timestamp != tiles[g[0]].timestamp]
                  for g in groups]
    alt_count = np.array([len(a) for a in alternates], dtype=np.int64)
    alt_start = np.cumsum(alt_count) - alt_count
    alt_tiles = np.array([i for a in alternates for i in a], dtype=np.intp)

    # sections grouped by species, each group in section_id order
    section_order = np.lexsort((texts.section, texts.species))
    sorted_species = texts.species[section_order]
    sec_start = np.searchsorted(sorted_species, observations.species)
    sec_count = np.searchsorted(sorted_species, observations.species, side="right") - sec_start

    nearest = np.full(n, -1, dtype=np.intp)
    for obs, center, dist in _pairs_within(observations.lat, observations.lon, center_lat,
                                           center_lon, matching_radius):
        # each observation's pair of least (distance, tile_id, center): one
        # cheap sort by (observation, distance) suffices unless two pairs tie
        order = np.argsort(obs + 1j * dist, kind="stable")
        if np.any((np.diff(obs[order]) == 0) & (np.diff(dist[order]) == 0)):
            order = np.lexsort((center, center_tile_id[center], dist, obs))
        pick = order[np.flatnonzero(np.diff(obs[order], prepend=-1))]
        nearest[obs[pick]] = center[pick]
    no_tile = nearest < 0
    no_text = ~no_tile & (sec_count == 0)
    _, _, inside = raster.grid_position(observations.lat, observations.lon)
    out_of_bounds = ~no_tile & ~no_text & ~inside
    skips = {"no_tile": int(no_tile.sum()), "no_text": int(no_text.sum()),
             "covariates_out_of_bounds": int(out_of_bounds.sum())}
    skips = {k: v for k, v in skips.items() if v}
    keep = np.flatnonzero(~(no_tile | no_text | out_of_bounds))
    if not keep.size:
        raise ValueError(f"all {n} observations skipped: {skips}")

    best = nearest[keep]
    # per sample, its alternate count then its section count; a boolean mask
    # takes them in row-major order, skipping the alternate counts of 0
    bounds = np.stack([alt_count[best], sec_count[keep]], axis=1)
    drawn = bounds > 0
    draws = np.zeros(bounds.shape, dtype=np.int64)
    draws[drawn] = rng.integers(bounds[drawn])

    tile_a = first[best]
    tile_b = tile_a.copy()
    has_alt = drawn[:, 0]
    tile_b[has_alt] = alt_tiles[alt_start[best[has_alt]] + draws[has_alt, 0]]
    lat, lon = observations.lat[keep], observations.lon[keep]
    samples = PairedSamples(
        tiles=tiles, texts=texts, tile_a=tile_a, tile_b=tile_b, lat=lat, lon=lon,
        covariates=raster.normalize(bilinear_sample(raster, lat, lon)),
        text_row=section_order[sec_start[keep] + draws[:, 1]])
    return PairingResult(samples=samples, skips=skips)
