"""Synthetic-world generator: habitats with known tile, covariate, and text
prototypes, plus observations placed inside their species' habitat region.

Habitats are latitude strips over the raster. Each habitat owns a base tile
color, a covariate prototype, and a text prototype; tiles add a bounded
per-record color shift plus a high-amplitude but exactly zero-mean spatial
clutter pattern, so mean tile color stays provably closest to the habitat's
own prototype while per-pixel appearance remains noisy. All array payloads
are quantized through float32 so a written dataset round-trips bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import resize_pixels
from .dataio import GeoDataset, GroundTruth
from .geodata import (COVARIATE_CHANNELS, CovariateRaster, Observations, TextSections,
                      TileRecord)

_BASE_TIMESTAMP = 1_600_000_000
_TIMESTAMP_STEP = 432_000  # five days


@dataclass(frozen=True)
class SyntheticWorldConfig:
    seed: int = 0
    n_species: int = 16
    n_habitats: int = 4
    raster_rows: int = 24
    raster_cols: int = 24
    tiles_per_habitat: int = 16
    n_observations: int = 256
    d_txt: int = 64
    tile_channels: int = 3
    tile_size: int = 32
    sections_per_species: int = 3
    timestamps_per_center: int = 2
    # noise scales
    tile_shift: float = 0.02        # per-record mean-color offset (bounded uniform)
    clutter: float = 0.2            # zero-mean spatial texture amplitude
    covariate_noise: float = 0.1
    text_noise: float = 0.1
    min_color_separation: float = 0.12
    observation_jitter: float = 0.01  # degrees around a tile center
    lat0: float = 0.0
    lon0: float = 0.0
    dlat: float = 0.5
    dlon: float = 0.5

    def __post_init__(self):
        counts = (self.n_species, self.n_habitats, self.raster_rows, self.raster_cols,
                  self.tiles_per_habitat, self.n_observations, self.d_txt,
                  self.tile_channels, self.tile_size, self.sections_per_species,
                  self.timestamps_per_center)
        if any(c < 1 for c in counts):
            raise ValueError("all synthetic-world counts must be >= 1")
        noise = (self.tile_shift, self.clutter, self.covariate_noise,
                 self.text_noise, self.observation_jitter)
        if any(s < 0 for s in noise):
            raise ValueError("noise scales must be >= 0")
        if self.n_habitats > self.raster_rows - 1:
            raise ValueError(f"{self.n_habitats} habitats need more than the "
                             f"{self.raster_rows} raster rows available")
        if self.tile_shift > 0.25 * self.min_color_separation:
            raise ValueError(f"tile mean-color shift {self.tile_shift} exceeds a quarter "
                             f"of the color separation {self.min_color_separation}")
        if self.tile_shift + self.clutter > 0.3:
            raise ValueError("tile_shift + clutter must stay within 0.3 so pixels "
                             "remain inside [0, 1] without clipping")
        # fixed bounds, the same on every machine: tiles, observations, text
        # sections and raster cells, and the float64 values they hold
        max_records, max_bytes = 2**22, 2**32
        tiles = self.n_habitats * self.tiles_per_habitat
        sections = self.n_species * self.sections_per_species
        cells = self.raster_rows * self.raster_cols
        floats = (tiles * self.tile_channels * self.tile_size**2 + 2 * self.n_observations
                  + (sections + self.n_habitats) * self.d_txt + cells * COVARIATE_CHANNELS)
        if tiles + self.n_observations + sections + cells > max_records or 8 * floats > max_bytes:
            name = max(("n_species", "n_habitats", "raster_rows", "raster_cols",
                        "tiles_per_habitat", "n_observations", "d_txt", "tile_channels",
                        "tile_size", "sections_per_species"), key=lambda name: getattr(self, name))
            raise ValueError(f"{name} {getattr(self, name)} is the largest size of a world over "
                             f"the {max_records:,} records or {max_bytes:,} float64 bytes "
                             f"synth takes")


@dataclass(kw_only=True)
class SyntheticWorld(GeoDataset):
    """A generated dataset: its config and its habitats' base tile colors
    beside the inputs and ground truth that `save_dataset` writes."""
    config: SyntheticWorldConfig
    color_prototypes: np.ndarray  # (habitats, channels)

    # the ground truth's fields, readable on the world itself
    tile_habitats = property(lambda self: self.truth.tile_habitats)
    species_habitats = property(lambda self: self.truth.species_habitats)
    text_prototypes = property(lambda self: self.truth.text_prototypes)  # (habitats, d_txt)

    @property
    def strip_height(self) -> float:
        """The latitude span of each habitat's strip."""
        return (self.config.raster_rows - 1) * self.config.dlat / self.config.n_habitats


def _f32(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _sample_palette(rng: np.random.Generator, n: int, channels: int,
                    min_sep: float) -> np.ndarray:
    colors: list[np.ndarray] = []
    for _ in range(5000):
        cand = rng.uniform(0.3, 0.7, size=channels)
        if all(np.linalg.norm(cand - c) >= min_sep for c in colors):
            colors.append(cand)
            if len(colors) == n:
                return np.array(colors)
    raise ValueError(f"could not place {n} habitat colors with separation {min_sep}")


def _clutter_field(rng: np.random.Generator, channels: int, size: int,
                   amplitude: float) -> np.ndarray:
    """Low-frequency texture with exactly zero spatial mean per channel and
    peak magnitude capped at `amplitude` (rescaling preserves the zero mean)."""
    coarse = rng.uniform(-1.0, 1.0, size=(channels, 4, 4))
    field_ = resize_pixels(coarse, size, size)
    field_ -= field_.mean(axis=(1, 2), keepdims=True)
    peaks = np.abs(field_).max(axis=(1, 2), keepdims=True)
    field_ /= np.maximum(peaks, 1.0)
    return amplitude * field_


def generate_synthetic_world(config: SyntheticWorldConfig) -> SyntheticWorld:
    """Build a deterministic synthetic dataset with ground-truth habitat labels."""
    cfg = config
    rng = np.random.default_rng(cfg.seed)

    colors = _sample_palette(rng, cfg.n_habitats, cfg.tile_channels,
                             cfg.min_color_separation)
    min_sep = min(np.linalg.norm(a - b)
                  for i, a in enumerate(colors) for b in colors[:i]) if cfg.n_habitats > 1 else math.inf
    if cfg.tile_shift > 0.25 * min_sep:
        raise ValueError(f"tile mean-color shift {cfg.tile_shift} exceeds a quarter of "
                         f"the sampled palette separation {min_sep:.4f}")
    cov_protos = rng.uniform(-1.0, 1.0, size=(cfg.n_habitats, COVARIATE_CHANNELS))
    text_protos = _f32(rng.normal(size=(cfg.n_habitats, cfg.d_txt)))

    hull_lat = (cfg.raster_rows - 1) * cfg.dlat
    hull_lon = (cfg.raster_cols - 1) * cfg.dlon
    strip = hull_lat / cfg.n_habitats

    def habitat_of_lat(lat: float) -> int:
        return min(int((lat - cfg.lat0) / strip), cfg.n_habitats - 1)

    # covariate raster: each cell carries its habitat's prototype plus noise
    values = np.empty((cfg.raster_rows, cfg.raster_cols, COVARIATE_CHANNELS))
    for r in range(cfg.raster_rows):
        h = habitat_of_lat(cfg.lat0 + r * cfg.dlat)
        noise = cfg.covariate_noise * rng.uniform(-1.0, 1.0,
                                                  size=(cfg.raster_cols, COVARIATE_CHANNELS))
        values[r] = cov_protos[h] + noise
    raster = CovariateRaster(lat0=cfg.lat0, lon0=cfg.lon0, dlat=cfg.dlat,
                             dlon=cfg.dlon, values=_f32(values))

    # tiles: fixed record count per habitat, grouped into multi-timestamp centers
    margin = cfg.observation_jitter
    tiles: list[TileRecord] = []
    tile_habitats: dict[int, int] = {}
    centers_by_habitat: list[list[tuple[float, float]]] = []
    tile_id = 0
    for h in range(cfg.n_habitats):
        lat_lo = cfg.lat0 + h * strip
        lat_hi = cfg.lat0 + (h + 1) * strip
        n_centers = math.ceil(cfg.tiles_per_habitat / cfg.timestamps_per_center)
        centers = []
        remaining = cfg.tiles_per_habitat
        for _ in range(n_centers):
            lat = rng.uniform(lat_lo + margin, lat_hi - margin)
            lon = rng.uniform(cfg.lon0 + margin, cfg.lon0 + hull_lon - margin)
            centers.append((lat, lon))
            for k in range(min(cfg.timestamps_per_center, remaining)):
                base = colors[h] + rng.uniform(-cfg.tile_shift, cfg.tile_shift,
                                               size=cfg.tile_channels)
                pixels = base[:, None, None] + _clutter_field(rng, cfg.tile_channels,
                                                              cfg.tile_size, cfg.clutter)
                tiles.append(TileRecord(tile_id=tile_id, lat=lat, lon=lon,
                                        timestamp=_BASE_TIMESTAMP + tile_id * _TIMESTAMP_STEP,
                                        pixels=_f32(pixels)))
                tile_habitats[tile_id] = h
                tile_id += 1
            remaining -= min(cfg.timestamps_per_center, remaining)
        centers_by_habitat.append(centers)

    # species and their text sections
    species_habitats = {s: s % cfg.n_habitats for s in range(cfg.n_species)}
    text_species = np.repeat(np.arange(cfg.n_species), cfg.sections_per_species)
    noise = rng.normal(size=(len(text_species), cfg.d_txt))
    texts = TextSections(species=text_species,
                         section=np.tile(np.arange(cfg.sections_per_species), cfg.n_species),
                         embeddings=_f32(text_protos[text_species % cfg.n_habitats]
                                         + cfg.text_noise * noise))

    # observations: jittered around a random tile center of the species' habitat
    obs_lat, obs_lon = [], []
    for i in range(cfg.n_observations):
        s = i % cfg.n_species
        h = species_habitats[s]
        centers = centers_by_habitat[h]
        lat_c, lon_c = centers[rng.integers(len(centers))]
        lat = lat_c + rng.uniform(-margin, margin)
        lon = lon_c + rng.uniform(-margin, margin)
        lat = min(max(lat, cfg.lat0 + h * strip), cfg.lat0 + (h + 1) * strip - 1e-9)
        lat = min(max(lat, cfg.lat0), cfg.lat0 + hull_lat)
        lon = min(max(lon, cfg.lon0), cfg.lon0 + hull_lon)
        obs_lat.append(lat)
        obs_lon.append(lon)
    observations = Observations(lat=obs_lat, lon=obs_lon,
                                species=np.arange(cfg.n_observations) % cfg.n_species)

    truth = GroundTruth(n_habitats=cfg.n_habitats, tile_habitats=tile_habitats,
                        species_habitats=species_habitats, text_prototypes=text_protos)
    return SyntheticWorld(observations=observations, raster=raster, tiles=tiles, texts=texts,
                          truth=truth, config=cfg, color_prototypes=colors)
