"""Frozen-encoder evaluation: linear probes, the metric suite, the cosine
retrieval index, and zero-shot classification."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import pair_paths, read_json, require_fields, write_json
from .encoders import Model
from .geodata import TileRecord
from .optim import AdamState, ParameterStore, adam_step
from .tape import RowNormError, l2_normalize_rows, row_norms, run_sub_slices

TASK_KINDS = ("single_label", "multi_label", "encounter_rate")

# Rows per slab when an index file is queried or an index is validated: the
# temporaries stay slab-sized, however many rows it holds. A query's slabs are
# the sub-slices of tape.run_sub_slices, so the caller and the pool's worker
# each read their own; a worker's three slab buffers take 1.28 MB at d = 64,
# inside a 2 MB L2 cache, and a 1,000-row index is one slab, read on the
# caller alone. On a 10^5-row index (2 vCPUs, one BLAS thread, medians of 40
# alternating passes in one process) slabs of 512, 1,024 and 2,048 rows took
# 20.5, 15.6 and 15.9 ms per pass on two workers, against 25.4 ms for 512 on
# the caller alone, and 24.4, 25.1 and 27.1 ms pinned to one CPU.
INDEX_SLAB_ROWS = 1024


@dataclass(frozen=True)
class ProbeConfig:
    lr: float = 1e-3
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"probe epochs must be >= 1, got {self.epochs}")


@dataclass
class ProbeHead:
    """Linear decoder trained on frozen features."""

    weight: np.ndarray  # (d_img, K)
    bias: np.ndarray    # (K,)
    kind: str

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(features) @ self.weight + self.bias

    def predict(self, features: np.ndarray):
        logits = self.logits(features)
        if self.kind == "single_label":
            return np.argmax(logits, axis=1)
        probs = _sigmoid(logits)
        if self.kind == "multi_label":
            return probs >= 0.5
        return probs  # encounter_rate: probabilities in [0, 1]


def _sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so no
    exp overflows, computed in place in `x`. e = exp(-|x|) is the exp of
    either branch, and the numerator max(float(x >= 0), e) is 1 or e
    (e <= 1), NaN for NaN, with no branch. `e` may be an array shaped like
    `x` to hold exp(-|x|); one is allocated otherwise."""
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=x)
    np.maximum(x, e, out=x)
    e += 1.0
    x /= e
    return x


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax, computed in place in `logits`."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def probe_split(strata, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe's train and test rows: one seeded permutation per stratum, in
    ascending stratum order, whose first max(1, int(0.75 * m)) of m rows train.
    With a single stratum this is the split of rng.permutation(n)."""
    strata = np.asarray(strata)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for stratum in np.unique(strata):
        members = rng.permutation(np.flatnonzero(strata == stratum))
        n_train = max(1, int(0.75 * len(members)))
        train.append(members[:n_train])
        test.append(members[n_train:])
    if not any(map(len, test)):
        raise ValueError("not enough tiles to hold out a test split")
    return np.concatenate(train), np.concatenate(test)


def fit_linear_probe(model: Model | None, features_or_tiles, labels, kind: str,
                     config: ProbeConfig = ProbeConfig()) -> ProbeHead:
    """Train only a linear head on frozen features with Adam.

    `features_or_tiles` may be a precomputed (n, d_img) feature matrix or a
    list of tiles (then `model` must be given and stays untouched). Labels:
    int vector for single_label, {0,1} matrix for multi_label, and a [0, 1]
    target matrix for encounter_rate.
    """
    if kind not in TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}, expected one of {TASK_KINDS}")
    if isinstance(features_or_tiles, list):
        if model is None:
            raise ValueError("a model is required to probe raw tiles")
        features = model.image_features([t.pixels for t in features_or_tiles])
    else:
        features = np.asarray(features_or_tiles, dtype=np.float64)
    n, d = features.shape

    if kind == "single_label":
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (n,):
            raise ValueError(f"single-label targets must be an int vector of length {n}")
        k = int(labels.max()) + 1
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ValueError(f"class {int(empty[0])} has no examples")
        targets = np.zeros((n, k))
        targets[np.arange(n), labels] = 1.0
    else:
        targets = np.asarray(labels, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[0] != n:
            raise ValueError("targets must be an (n, K) matrix aligned with features")
        if targets.min() < 0 or targets.max() > 1:
            raise ValueError("targets must lie in [0, 1]")
        k = targets.shape[1]

    rng = np.random.default_rng(config.seed)
    bound = np.sqrt(1.0 / d)
    store = ParameterStore()
    store.add("weight", rng.uniform(-bound, bound, size=(d, k)))
    store.add("bias", np.zeros(k))
    state = AdamState(lr=config.lr)
    # the epochs reuse two (n, k) arrays, so their cost does not depend on
    # how the heap serves blocks of this size
    logits, scratch = np.empty((n, k)), np.empty((n, k))
    for _ in range(config.epochs):
        # in place, the logits become the probabilities and then dlogits,
        # with the bits of (probs(features @ weight + bias) - targets) / n
        np.matmul(features, store.get("weight"), out=logits)
        logits += store.get("bias")
        dlogits = (_softmax_rows(logits) if kind == "single_label"
                   else _sigmoid(logits, scratch))
        dlogits -= targets
        dlogits /= n
        grads = {"weight": features.T @ dlogits, "bias": dlogits.sum(axis=0)}
        adam_step(store, grads, state)
    return ProbeHead(weight=store.get("weight").copy(), bias=store.get("bias").copy(),
                     kind=kind)


# -- metric suite -------------------------------------------------------------


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label length mismatch")
    if preds.size == 0:
        raise ValueError("empty prediction list")
    return float(np.mean(preds == labels))


def confusion_matrix(preds, labels, n_classes: int) -> np.ndarray:
    """Counts indexed [true, predicted]; every id must be in [0, n_classes)."""
    preds = np.asarray(preds, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label length mismatch")
    out = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(labels, preds):
        if not (0 <= t < n_classes and 0 <= p < n_classes):
            raise ValueError(f"class ids must be in [0, {n_classes}), got label {t}, "
                             f"prediction {p}")
        out[t, p] += 1
    return out


def micro_f1(pred_sets, true_sets) -> float:
    """2TP / (2TP + FP + FN) pooled over all samples; defined as 1.0 when
    both sides are empty everywhere."""
    if len(pred_sets) != len(true_sets):
        raise ValueError("prediction/label length mismatch")
    tp = fp = fn = 0
    for pred, true in zip(pred_sets, true_sets):
        pred, true = set(pred), set(true)
        tp += len(pred & true)
        fp += len(pred - true)
        fn += len(true - pred)
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2.0 * tp / denom


def mean_iou(pred_labels, true_labels, n_classes: int) -> float:
    """Mean per-class intersection-over-union; classes absent from both the
    prediction and the truth are excluded from the mean."""
    pred = np.asarray(pred_labels).ravel()
    true = np.asarray(true_labels).ravel()
    if pred.shape != true.shape:
        raise ValueError("prediction/label shape mismatch")
    ious = []
    for k in range(n_classes):
        p = pred == k
        t = true == k
        union = np.logical_or(p, t).sum()
        if union == 0:
            continue
        ious.append(np.logical_and(p, t).sum() / union)
    if not ious:
        raise ValueError("no class present in prediction or truth")
    return float(np.mean(ious))


def top_k_rank(rates: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest rates; ties broken by lower species index."""
    rates = np.asarray(rates, dtype=np.float64)
    order = np.lexsort((np.arange(rates.size), -rates))
    return order[:k]


def top_k_accuracy(rates, observed) -> float:
    """|top-k predicted ∩ observed| / k with k = |observed|."""
    observed = set(int(s) for s in observed)
    if not observed:
        raise ValueError("observed species set is empty")
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size < len(observed):
        raise ValueError("rate vector shorter than the observed set")
    if max(observed) >= rates.size or min(observed) < 0:
        raise ValueError("observed species index outside the rate vector")
    k = len(observed)
    top = set(int(i) for i in top_k_rank(rates, k))
    return len(top & observed) / k


def mean_top_k_accuracy(rate_rows, observed_sets) -> tuple[float, int]:
    """Average top-k accuracy over samples; empty-label samples are skipped
    and counted."""
    if len(rate_rows) != len(observed_sets):
        raise ValueError("prediction/label length mismatch")
    scores = []
    skipped = 0
    for rates, observed in zip(rate_rows, observed_sets):
        if not observed:
            skipped += 1
            continue
        scores.append(top_k_accuracy(rates, observed))
    if not scores:
        raise ValueError("every sample had an empty observed set")
    return float(np.mean(scores)), skipped


# -- retrieval and zero-shot ---------------------------------------------------


@dataclass
class RetrievalIndex:
    """Unit-norm tile embeddings (text-head space) with their tile ids."""

    tile_ids: list[int]
    matrix: np.ndarray  # (N, d)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.tile_ids):
            raise ValueError("index row count must equal the tile id count")
        if self.n == 0:
            raise ValueError("an index needs at least one row")
        # one read of the matrix: row dot products, no (n, d) temporary
        worst = 0.0
        for start in range(0, self.n, INDEX_SLAB_ROWS):
            slab = self.matrix[start:start + INDEX_SLAB_ROWS]
            off = np.abs(np.sqrt(np.einsum("ij,ij->i", slab, slab)) - 1.0)
            bad = np.flatnonzero(~np.isfinite(off))
            if bad.size:
                raise ValueError(f"index row {start + int(bad[0])} is not finite")
            worst = max(worst, float(off.max()))
        if worst > 1e-9:
            raise ValueError(f"index rows must be unit norm (worst deviation {worst:.2e})")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def cosines(self, q: np.ndarray) -> np.ndarray:
        return self.matrix @ q


@dataclass(frozen=True)
class IndexFile:
    """An index on disk, as load_index checked it: the header's tile ids and
    dims, and the blob that each query reads."""

    tile_ids: list[int]
    n: int
    d: int
    bin_path: Path

    def cosines(self, q: np.ndarray) -> np.ndarray:
        """The blob's rows at unit norm times q, one slab of INDEX_SLAB_ROWS
        rows per sub-slice of tape.run_sub_slices, so the caller and the
        pool's worker each take their own slabs. A slab is read with a
        positional read into its worker's float32 buffer, widened into its
        float64 buffer and divided by its row norms while in cache, squaring
        into its scratch buffer; each row's arithmetic is its own, so the bits
        equal one l2_normalize_rows of the whole blob's on any split. The
        error raised is that of the first slab, in row order, with a short
        read or a bad row. A row that row_norms accepts (finite, norm above
        NORM_EPS) divides to a norm within ~1e-15 of 1, so RetrievalIndex's
        1e-9 unit-norm gate could not fail here."""
        cosines = np.empty(self.n)

        def buffers(m):  # the float32 read, its float64 rows, their squares
            return (np.empty((m, self.d), dtype="<f4"), np.empty((m, self.d)),
                    np.empty((m, self.d)))

        def slab(bufs, start, stop):
            raw, rows, squares = (buf[:stop - start] for buf in bufs)
            if os.preadv(fd, [raw], start * raw.itemsize * self.d) != raw.nbytes:
                raise ValueError(f"{self.bin_path}: changed while it was read")
            np.copyto(rows, raw)
            # float32 storage perturbs norms at ~1e-7; restore exact unit rows
            try:
                norms = row_norms(rows, squares)
            except RowNormError as e:
                raise ValueError(f"{self.bin_path}: row {start + e.row} has a {e.problem} "
                                 f"norm") from None
            np.divide(rows, norms[:, None], out=rows)
            np.matmul(rows, q, out=cosines[start:stop])

        fd = os.open(self.bin_path, os.O_RDONLY)
        try:
            run_sub_slices(self.n, buffers, slab, INDEX_SLAB_ROWS)
        finally:
            os.close(fd)
        return cosines


def build_index(model: Model, tiles: list[TileRecord]) -> RetrievalIndex:
    """Embed every tile through the frozen text-head projection."""
    if not tiles:
        raise ValueError("cannot index zero tiles")
    matrix = model.tile_text_embeddings([t.pixels for t in tiles])
    return RetrievalIndex(tile_ids=[t.tile_id for t in tiles], matrix=matrix)


def query_index(index: RetrievalIndex | IndexFile, query: np.ndarray, k: int,
                model: Model | None = None) -> list[tuple[int, float]]:
    """Top-k tiles by cosine, descending; ties broken by lower tile_id.

    A raw text embedding (length d_txt) is passed through the model's frozen
    text projection first, which requires `model`; a query already in the
    shared space (length d) is normalized and used directly. k is clamped
    to the index size. The query is checked before the index's rows are
    read.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64).ravel()
    if model is not None and query.size == model.cfg.d_txt:
        q = model.project_text_rows(query[None])[0]
    elif query.size == index.d:
        q = l2_normalize_rows(query[None])[0]
    else:
        raise ValueError(f"query length {query.size} matches neither the shared "
                         f"space ({index.d}) nor a raw text embedding")
    cosines = index.cosines(q)
    k = min(k, index.n)
    # only rows at or above the k-th cosine can rank in the top k; sorting
    # them with their ties gives the full sort's first k rows
    kth = np.partition(cosines, index.n - k)[index.n - k]
    rows = np.flatnonzero(cosines >= kth)
    ids = [index.tile_ids[i] for i in rows]
    order = rows[np.lexsort((ids, -cosines[rows]))[:k]]
    return [(int(index.tile_ids[i]), float(cosines[i])) for i in order]


def zero_shot_classify(model: Model, tiles: list[TileRecord],
                       class_text_embeddings: np.ndarray) -> np.ndarray:
    """Per tile, the nearest class by cosine between the tile's text-head
    embedding and the projected class embeddings; ties go to the lower class
    index. Tiles are encoded by Model.image_features, in the sub-slices that
    `tape.run_sub_slices` shares out between up to ENCODE_WORKERS threads.
    Each tile's arithmetic is its own, so the labels do not depend on the split."""
    z = model.tile_text_embeddings([t.pixels for t in tiles])
    return np.argmax(z @ model.project_text_rows(class_text_embeddings).T, axis=1)


def save_index(index: RetrievalIndex, path: str | Path) -> tuple[Path, Path]:
    """Write `<prefix>.json` (ids and dims) and `<prefix>.bin` (float32 rows)."""
    json_path, bin_path = pair_paths(path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(json_path, {"tile_ids": index.tile_ids, "n": index.n, "d": index.d})
    bin_path.write_bytes(index.matrix.astype("<f4").tobytes())
    return json_path, bin_path


def _checked_tile_ids(ids: list, where: Path) -> list[int]:
    """`ids` if they are distinct JSON integers, else a ValueError naming
    `where` and the first bad position."""
    if not (set(map(type, ids)) <= {int} and len(set(ids)) == len(ids)):
        seen = set()
        for i, t in enumerate(ids):
            if type(t) is not int:  # exact: a JSON true is a bool, not an int
                raise ValueError(f"{where}: tile_ids[{i}] must be an integer, got {t!r:.40}")
            if t in seen:
                raise ValueError(f"{where}: tile_ids[{i}] repeats tile id {t}")
            seen.add(t)
    return ids


def load_index(path: str | Path) -> IndexFile:
    """Check the header of an index written by save_index and the length of
    its blob; the rows themselves are read and checked by each query
    (IndexFile.cosines)."""
    json_path, bin_path = pair_paths(path)
    if not json_path.exists():
        raise ValueError(f"index header not found: {json_path}")
    header = require_fields(read_json(json_path), {"n": int, "d": int, "tile_ids": list},
                            json_path)
    n, d = header["n"], header["d"]
    if n < 1 or d < 1:
        raise ValueError(f"{json_path}: n and d must be positive, got n={n}, d={d}")
    if len(header["tile_ids"]) != n:
        raise ValueError(f"{json_path}: {len(header['tile_ids'])} tile ids for n={n} rows")
    tile_ids = _checked_tile_ids(header["tile_ids"], json_path)
    size = bin_path.stat().st_size
    if size != 4 * n * d:
        raise ValueError(f"{bin_path}: index blob length mismatch: {size} bytes, "
                         f"expected {4 * n * d}")
    return IndexFile(tile_ids=tile_ids, n=n, d=d, bin_path=bin_path)
