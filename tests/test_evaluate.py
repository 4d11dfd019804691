import itertools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satalign.evaluate as evaluate_module
import satalign.tape as tape_module
from conftest import small_train_config
from satalign.evaluate import (INDEX_SLAB_ROWS, ProbeConfig, RetrievalIndex, _sigmoid, accuracy,
                               build_index, confusion_matrix, fit_linear_probe,
                               load_index, mean_iou, mean_top_k_accuracy, micro_f1,
                               probe_split, query_index, save_index, top_k_accuracy,
                               zero_shot_classify)
from satalign.geodata import TileRecord
from satalign.tape import l2_normalize_rows
from satalign.training import initial_model
from test_tape import assert_pool_contract, record_workers


@pytest.fixture(scope="module")
def model():
    return initial_model(small_train_config(seed=4))


def tiles_for(model, n=6, seed=0):
    rng = np.random.default_rng(seed)
    size = model.cfg.image.in_size
    return [TileRecord(tile_id=i, lat=float(i), lon=0.0, timestamp=i,
                       pixels=rng.random((3, size, size))) for i in range(n)]


class TestAccuracy:
    def test_all_correct_and_all_wrong(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([0, 0, 0], [1, 2, 3]) == 0.0

    def test_confusion_matrix_sums_to_sample_count(self):
        preds = [0, 1, 2, 1, 0, 2, 2]
        labels = [0, 1, 1, 1, 2, 2, 0]
        mat = confusion_matrix(preds, labels, 3)
        assert mat.sum() == 7
        assert mat[1, 1] == 2  # two correct class-1 predictions
        assert mat[0, 0] == 1 and mat[2, 2] == 1

    @pytest.mark.parametrize("preds, labels, says", [
        ([-1, 1], [0, 1], "got label 0, prediction -1"),  # would wrap to class 1
        ([0, 1], [0, 3], "got label 3, prediction 1"),
    ])
    def test_confusion_matrix_rejects_ids_outside_the_classes(self, preds, labels, says):
        with pytest.raises(ValueError, match=rf"class ids must be in \[0, 3\), {says}"):
            confusion_matrix(preds, labels, 3)

    def test_exhaustive_small_cases_match_brute_force(self):
        for preds in itertools.product(range(3), repeat=4):
            for labels in itertools.product(range(3), repeat=4):
                expected = sum(p == t for p, t in zip(preds, labels)) / 4
                assert accuracy(list(preds), list(labels)) == expected
                mat = confusion_matrix(preds, labels, 3)
                for t in range(3):
                    for p in range(3):
                        assert mat[t, p] == sum(1 for pp, tt in zip(preds, labels)
                                                if pp == p and tt == t)


def brute_micro_f1(pred_sets, true_sets):
    tp = sum(len(set(p) & set(t)) for p, t in zip(pred_sets, true_sets))
    fp = sum(len(set(p) - set(t)) for p, t in zip(pred_sets, true_sets))
    fn = sum(len(set(t) - set(p)) for p, t in zip(pred_sets, true_sets))
    return 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


class TestMicroF1:
    def test_exact_sets_give_one(self):
        assert micro_f1([{1, 2}, {0}], [{1, 2}, {0}]) == 1.0

    def test_formula_case(self):
        # TP=2, FP=1, FN=1 -> 4/6
        assert micro_f1([{1, 2, 3}], [{1, 2, 4}]) == pytest.approx(4 / 6)

    def test_empty_predictions_nonempty_labels(self):
        assert micro_f1([set()], [{1, 2}]) == 0.0

    def test_all_empty_defined_as_one(self):
        assert micro_f1([set(), set()], [set(), set()]) == 1.0

    def test_exhaustive_subset_pairs_match_brute_force(self):
        universe = range(4)
        subsets = [set(s) for r in range(5) for s in itertools.combinations(universe, r)]
        assert len(subsets) == 16
        for pred in subsets:
            for true in subsets:
                assert micro_f1([pred], [true]) == brute_micro_f1([pred], [true])


def brute_mean_iou(pred, true, n_classes):
    ious = []
    for k in range(n_classes):
        p = {i for i, v in enumerate(pred) if v == k}
        t = {i for i, v in enumerate(true) if v == k}
        if p | t:
            ious.append(len(p & t) / len(p | t))
    return sum(ious) / len(ious)


class TestMeanIoU:
    def test_perfect_is_one(self):
        assert mean_iou([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0

    def test_disjoint_class_zero(self):
        # prediction says class 0 everywhere, truth says class 1 everywhere
        assert mean_iou([0, 0], [1, 1], 2) == 0.0

    def test_constructed_four_pixel_third(self):
        # both classes get IoU 1/3 -> mean 1/3
        assert mean_iou([0, 0, 1, 1], [0, 1, 0, 1], 2) == pytest.approx(1 / 3)

    def test_absent_class_excluded(self):
        # class 2 never appears; mean over classes 0 and 1 only
        assert mean_iou([0, 1], [0, 1], 3) == 1.0

    def test_exhaustive_label_maps_match_brute_force(self):
        for pred in itertools.product(range(3), repeat=4):
            for true in itertools.product(range(3), repeat=4):
                assert mean_iou(pred, true, 3) == pytest.approx(
                    brute_mean_iou(pred, true, 3), abs=1e-12)


def brute_top_k(rates, observed):
    k = len(observed)
    ranked = sorted(range(len(rates)), key=lambda i: (-rates[i], i))[:k]
    return len(set(ranked) & set(observed)) / k


class TestTopK:
    def test_observed_ranked_top(self):
        rates = np.array([0.9, 0.8, 0.7, 0.1, 0.0])
        assert top_k_accuracy(rates, {0, 1, 2}) == 1.0

    def test_half_hit(self):
        rates = np.array([0.9, 0.1, 0.8, 0.0])
        assert top_k_accuracy(rates, {0, 1}) == 0.5  # top-2 = {0, 2}

    def test_tie_break_lowest_index(self):
        assert top_k_accuracy(np.full(6, 0.5), {0}) == 1.0

    def test_empty_observed_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            top_k_accuracy(np.ones(3), set())

    def test_mean_skips_empty_and_counts(self):
        rows = [np.array([0.9, 0.1]), np.array([0.1, 0.9]), np.array([0.5, 0.5])]
        observed = [{0}, set(), {1}]
        score, skipped = mean_top_k_accuracy(rows, observed)
        assert skipped == 1
        assert score == pytest.approx(0.5)  # 1.0 and 0.0

    def test_mean_rejects_a_length_mismatch(self):
        for rows, observed in (([np.array([0.5, 0.2])], [{0}, {1}]),
                               ([np.array([0.5, 0.2])] * 2, [{0}])):
            with pytest.raises(ValueError, match="prediction/label length mismatch"):
                mean_top_k_accuracy(rows, observed)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        rates = rng.random(6)
        observed = set(int(i) for i in rng.choice(6, size=3, replace=False))
        base = top_k_accuracy(rates, observed)
        assert top_k_accuracy(np.exp(5 * rates), observed) == base
        assert top_k_accuracy(rates ** 3, observed) == base

    def test_exhaustive_small_cases_match_brute_force(self):
        values = [0.1, 0.2, 0.3]
        for rates in itertools.product(values, repeat=5):
            for r in range(1, 4):
                for observed in itertools.combinations(range(5), r):
                    assert top_k_accuracy(np.array(rates), set(observed)) == \
                        brute_top_k(list(rates), list(observed))


class TestLinearProbe:
    def test_separable_two_class_reaches_perfect_train_accuracy(self):
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(size=(20, 8)) + 3.0,
                              rng.normal(size=(20, 8)) - 3.0])
        labels = np.array([0] * 20 + [1] * 20)
        head = fit_linear_probe(None, features, labels, "single_label",
                                ProbeConfig(epochs=300, lr=1e-2))
        assert accuracy(head.predict(features), labels) == 1.0

    def test_encoder_hash_unchanged_by_probe(self, model):
        tiles = tiles_for(model, n=8)
        labels = np.array([i % 2 for i in range(8)])
        before = model.params.blob_hash()
        fit_linear_probe(model, tiles, labels, "single_label", ProbeConfig(epochs=20))
        assert model.params.blob_hash() == before

    def test_multi_label_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(12, 6))
        targets = (rng.random((12, 4)) > 0.5).astype(float)
        head = fit_linear_probe(None, features, targets, "multi_label",
                                ProbeConfig(epochs=50))
        preds = head.predict(features)
        assert preds.dtype == bool
        probs = 1 / (1 + np.exp(-head.logits(features)))
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_encounter_rates_in_unit_interval(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(10, 5))
        targets = rng.random((10, 7))
        head = fit_linear_probe(None, features, targets, "encounter_rate",
                                ProbeConfig(epochs=50))
        rates = head.predict(features)
        assert rates.shape == (10, 7)
        assert rates.min() >= 0.0 and rates.max() <= 1.0

    def test_empty_class_rejected(self):
        features = np.zeros((4, 3))
        with pytest.raises(ValueError, match="class 1 has no examples"):
            fit_linear_probe(None, features, np.array([0, 0, 2, 2]), "single_label")

    def test_task_label_mismatch_rejected(self):
        features = np.zeros((4, 3))
        with pytest.raises(ValueError, match="int vector"):
            fit_linear_probe(None, features, np.zeros((4, 2)), "single_label")
        with pytest.raises(ValueError, match="unknown task kind"):
            fit_linear_probe(None, features, np.zeros(4), "segmentation")


class TestProbeSplit:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60), st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_each_stratum_trains_three_quarters_in_stratum_order(self, strata, seed):
        strata = np.array(strata)
        values, counts = np.unique(strata, return_counts=True)
        if counts.max() == 1:  # every row trains
            with pytest.raises(ValueError, match="not enough tiles to hold out a test split"):
                probe_split(strata, seed)
            return
        train, test = probe_split(strata, seed)
        assert sorted(np.concatenate([train, test])) == list(range(len(strata)))
        for value, m in zip(values, counts):
            assert np.sum(strata[train] == value) == max(1, int(0.75 * m))
        for side in (train, test):
            assert list(strata[side]) == sorted(strata[side])
        again = probe_split(strata, seed)
        assert np.array_equal(train, again[0]) and np.array_equal(test, again[1])

    @given(st.integers(2, 2000), st.integers(0, 2 ** 32))
    @settings(max_examples=50, deadline=None)
    def test_one_stratum_is_the_split_of_one_permutation(self, n, seed):
        order = np.random.default_rng(seed).permutation(n)
        n_train = max(1, int(0.75 * n))
        train, test = probe_split(np.zeros(n, dtype=int), seed)
        assert np.array_equal(train, order[:n_train]) and np.array_equal(test, order[n_train:])


class TestRetrievalIndex:
    def test_identity_basis_query(self):
        index = RetrievalIndex(tile_ids=[0, 1, 2, 3], matrix=np.eye(4))
        results = query_index(index, np.eye(4)[2], k=1)
        assert results[0][0] == 2
        assert results[0][1] == pytest.approx(1.0)

    def test_k_clamped_to_index_size(self):
        index = RetrievalIndex(tile_ids=[0, 1, 2], matrix=np.eye(3))
        assert len(query_index(index, np.eye(3)[0], k=8)) == 3

    def test_build_index_contract(self, model):
        tiles = tiles_for(model, n=5)
        index = build_index(model, tiles)
        assert index.n == 5
        assert index.tile_ids == [0, 1, 2, 3, 4]
        np.testing.assert_allclose(np.linalg.norm(index.matrix, axis=1), 1.0, atol=1e-12)
        again = build_index(model, tiles)
        np.testing.assert_array_equal(index.matrix, again.matrix)

    def test_self_query_returns_own_tile_first(self, model):
        tiles = tiles_for(model, n=6, seed=3)
        index = build_index(model, tiles)
        for i in (0, 2, 5):
            results = query_index(index, index.matrix[i], k=1)
            assert results[0][0] == tiles[i].tile_id
            assert results[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_query_scale_invariance(self, model):
        tiles = tiles_for(model, n=4, seed=5)
        index = build_index(model, tiles)
        rng = np.random.default_rng(0)
        raw = rng.normal(size=model.cfg.d_txt)
        a = query_index(index, raw, k=4, model=model)
        b = query_index(index, 10.0 * raw, k=4, model=model)
        assert [t for t, _ in a] == [t for t, _ in b]
        for (_, ca), (_, cb) in zip(a, b):
            assert ca == pytest.approx(cb, abs=1e-12)

    def test_cosine_descending_with_tile_id_ties(self):
        row = np.array([1.0, 0.0])
        index = RetrievalIndex(tile_ids=[5, 2, 9], matrix=np.stack([row, row, row]))
        results = query_index(index, row, k=3)
        assert [t for t, _ in results] == [2, 5, 9]

    def test_save_load_round_trip(self, model, tmp_path):
        index = build_index(model, tiles_for(model, n=5, seed=7))
        save_index(index, tmp_path / "idx.json")
        loaded = load_index(tmp_path / "idx.json")
        assert (loaded.tile_ids, loaded.n, loaded.d) == (index.tile_ids, index.n, index.d)
        raw = np.random.default_rng(0).normal(size=(3, model.cfg.d_txt))
        for query, m in [(row, None) for row in index.matrix] + [(r, model) for r in raw]:
            got = query_index(loaded, query, k=5, model=m)
            want = query_index(index, query, k=5, model=m)
            assert [t for t, _ in got] == [t for t, _ in want]
            np.testing.assert_allclose([c for _, c in got], [c for _, c in want], atol=1e-6)

    def test_bad_query_length(self, model):
        index = RetrievalIndex(tile_ids=[0], matrix=np.eye(3)[:1])
        with pytest.raises(ValueError, match="query length"):
            query_index(index, np.ones(7), k=1)


def full_sort_ranking(index, query, k):
    """Top-k by one full lexsort over every row: the reference for query_index."""
    cosines = index.matrix @ l2_normalize_rows(query[None])[0]
    order = np.lexsort((index.tile_ids, -cosines))[:k]
    return [(int(index.tile_ids[i]), float(cosines[i])) for i in order]


def unit_rows(rng, n, d):
    return l2_normalize_rows(rng.normal(size=(n, d)))


class TestPartialTopK:
    N = 4133  # more rows than one slab of INDEX_SLAB_ROWS

    @pytest.mark.parametrize("k", [1, 2, 10, 500, N - 1, N, N + 5])
    def test_matches_a_full_sort_under_heavy_ties(self, k):
        # rows drawn from 12 directions: every cosine is shared by hundreds of
        # rows, so the k-th cosine is tied, and the shuffled ids decide ties
        rng = np.random.default_rng(k)
        directions = unit_rows(rng, 12, 8)
        matrix = directions[rng.integers(0, 12, size=self.N)]
        ids = rng.permutation(3 * self.N)[:self.N].tolist()
        index = RetrievalIndex(tile_ids=ids, matrix=matrix)
        for query in (directions[3], rng.normal(size=8)):
            assert query_index(index, query, k=k) == full_sort_ranking(index, query, k)

    @pytest.mark.parametrize("k", [1, 10, N, N + 5])
    def test_matches_a_full_sort_without_ties(self, k):
        rng = np.random.default_rng(100 + k)
        index = RetrievalIndex(tile_ids=rng.permutation(self.N).tolist(),
                               matrix=unit_rows(rng, self.N, 8))
        query = rng.normal(size=8)
        assert query_index(index, query, k=k) == full_sort_ranking(index, query, k)


class TestIndexValidation:
    def test_non_finite_row_rejected(self):
        matrix = np.eye(3)
        matrix[1, 0] = np.nan
        with pytest.raises(ValueError, match="index row 1 is not finite"):
            RetrievalIndex(tile_ids=[0, 1, 2], matrix=matrix)

    def test_non_finite_row_past_the_first_slab_rejected_by_its_row_number(self):
        matrix = unit_rows(np.random.default_rng(0), INDEX_SLAB_ROWS + 9, 4)
        matrix[INDEX_SLAB_ROWS + 4, 2] = np.inf
        with pytest.raises(ValueError, match=f"index row {INDEX_SLAB_ROWS + 4} is not finite"):
            RetrievalIndex(tile_ids=list(range(len(matrix))), matrix=matrix)

    def test_finite_off_unit_row_past_the_first_slab_rejected(self):
        matrix = unit_rows(np.random.default_rng(3), INDEX_SLAB_ROWS + 9, 4)
        matrix[INDEX_SLAB_ROWS + 5] *= 2.0
        with pytest.raises(ValueError, match=r"unit norm \(worst deviation 1\.00e\+00\)"):
            RetrievalIndex(tile_ids=list(range(len(matrix))), matrix=matrix)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            RetrievalIndex(tile_ids=[], matrix=np.zeros((0, 4)))

    def test_chunked_load_equals_one_whole_normalization(self, tmp_path):
        n = 2 * INDEX_SLAB_ROWS + 123  # not a multiple of the slab
        rng = np.random.default_rng(1)
        ids = rng.permutation(n).tolist()
        save_index(RetrievalIndex(tile_ids=ids, matrix=unit_rows(rng, n, 16)), tmp_path / "idx")
        stored = np.frombuffer((tmp_path / "idx.bin").read_bytes(), dtype="<f4")
        whole = l2_normalize_rows(stored.astype(np.float64).reshape(n, 16))
        index = load_index(tmp_path / "idx")
        for query in rng.normal(size=(4, 16)):
            q = l2_normalize_rows(query[None])[0]
            assert index.cosines(q).tobytes() == (whole @ q).tobytes()
            assert query_index(index, query, k=10) == full_sort_ranking(
                RetrievalIndex(tile_ids=ids, matrix=whole), query, 10)

    def test_query_never_holds_the_whole_matrix(self, tmp_path):
        # large enough that one (n, d) float64 matrix outweighs the header's
        # Python ids and a slab's temporaries together
        n, d = 49_152, 64
        rng = np.random.default_rng(6)
        save_index(RetrievalIndex(tile_ids=list(range(n)), matrix=unit_rows(rng, n, d)),
                   tmp_path / "idx")
        tracemalloc.start()
        try:
            query_index(load_index(tmp_path / "idx"), rng.normal(size=d), k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 // 2  # half of one (n, d) float64 matrix

    @pytest.mark.parametrize("value, problem", [(np.nan, "non-finite"), (0.0, "degenerate")])
    def test_bad_blob_row_named_by_file_and_global_row(self, tmp_path, value, problem):
        n, d = INDEX_SLAB_ROWS + 10, 4
        save_index(RetrievalIndex(tile_ids=list(range(n)),
                                  matrix=unit_rows(np.random.default_rng(2), n, d)),
                   tmp_path / "idx")
        blob = np.frombuffer((tmp_path / "idx.bin").read_bytes(), dtype="<f4").copy()
        row = INDEX_SLAB_ROWS + 3
        blob[row * d:(row + 1) * d] = value
        (tmp_path / "idx.bin").write_bytes(blob.tobytes())
        index = load_index(tmp_path / "idx")  # the header and the blob length are sound
        with pytest.raises(ValueError) as err:
            query_index(index, np.ones(d), k=1)
        assert str(err.value) == f"{tmp_path / 'idx.bin'}: row {row} has a {problem} norm"

    def test_blob_cut_after_load_named_by_file(self, tmp_path):
        n, d = INDEX_SLAB_ROWS + 10, 4
        save_index(RetrievalIndex(tile_ids=list(range(n)),
                                  matrix=unit_rows(np.random.default_rng(4), n, d)),
                   tmp_path / "idx")
        index = load_index(tmp_path / "idx")
        blob = (tmp_path / "idx.bin").read_bytes()
        (tmp_path / "idx.bin").write_bytes(blob[:-4 * d])  # the last slab ends short
        with pytest.raises(ValueError) as err:
            query_index(index, np.ones(d), k=1)
        assert str(err.value) == f"{tmp_path / 'idx.bin'}: changed while it was read"

    @pytest.mark.parametrize("ids, pos, message", [
        (["1", 2, 3], 0, "must be an integer, got '1'"),
        ([1, 2.9, 3], 1, "must be an integer, got 2.9"),
        ([1, 2, True], 2, "must be an integer, got True"),
        ([4, 5, 4], 2, "repeats tile id 4"),
    ])
    def test_bad_tile_ids_named_by_file_and_position(self, tmp_path, ids, pos, message):
        save_index(RetrievalIndex(tile_ids=[0, 1, 2], matrix=np.eye(3)), tmp_path / "idx")
        header = json.loads((tmp_path / "idx.json").read_text())
        header["tile_ids"] = ids
        (tmp_path / "idx.json").write_text(json.dumps(header))
        with pytest.raises(ValueError) as err:
            load_index(tmp_path / "idx")
        assert str(err.value) == f"{tmp_path / 'idx.json'}: tile_ids[{pos}] {message}"

    @pytest.mark.parametrize("field, value, message", [
        ("n", 0, "n and d must be positive"),
        ("d", -3, "n and d must be positive"),
        ("tile_ids", [0, 1], "2 tile ids for n=3 rows"),
        ("d", 2, "blob length mismatch: 36 bytes, expected 24"),
    ])
    def test_malformed_header_rejected(self, tmp_path, field, value, message):
        save_index(RetrievalIndex(tile_ids=[0, 1, 2], matrix=np.eye(3)), tmp_path / "idx")
        header = json.loads((tmp_path / "idx.json").read_text())
        header[field] = value
        (tmp_path / "idx.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match=message):
            load_index(tmp_path / "idx")


S = INDEX_SLAB_ROWS
# blob rows overwritten with a value and the row the blob is cut at, after
# load_index, in an index of four slabs and 7 rows more, and the error a query gives
BAD_BLOBS = {
    "non_finite_in_slab_3_degenerate_in_slab_1": ({3 * S + 5: np.nan, S + 2: 0.0}, None,
                                                  f"row {S + 2} has a degenerate norm"),
    "degenerate_in_slab_3_non_finite_in_slab_1": ({3 * S + 5: 0.0, S + 2: np.nan}, None,
                                                  f"row {S + 2} has a non-finite norm"),
    "degenerate_before_non_finite_in_slab_1": ({S + 1: 0.0, S + 9: np.nan}, None,
                                               f"row {S + 9} has a non-finite norm"),
    "cut_in_slab_1": ({}, S + 5, "changed while it was read"),
}


def bad_blob_message(tmp_path, case) -> str:
    """The message of a query of BAD_BLOBS[case]'s index. The row norms of a
    slab that a thread other than the caller reads end 50 ms late, so with
    two workers the caller reaches slab 3 before the worker has finished
    slab 1."""
    values, cut, _ = BAD_BLOBS[case]
    n, d = 4 * S + 7, 4
    save_index(RetrievalIndex(tile_ids=list(range(n)),
                              matrix=unit_rows(np.random.default_rng(8), n, d)), tmp_path / "idx")
    index = load_index(tmp_path / "idx")
    blob = np.frombuffer((tmp_path / "idx.bin").read_bytes(), dtype="<f4").copy()
    for row, value in values.items():
        blob[row * d:(row + 1) * d] = value
    (tmp_path / "idx.bin").write_bytes(blob[:None if cut is None else cut * d].tobytes())
    caller, real = threading.get_ident(), evaluate_module.row_norms

    def late_off_the_caller(*args):
        if threading.get_ident() != caller:
            time.sleep(0.05)
        return real(*args)

    evaluate_module.row_norms = late_off_the_caller
    try:
        query_index(index, np.ones(d), k=1)
    except ValueError as e:
        return str(e)
    finally:
        evaluate_module.row_norms = real
    raise AssertionError(f"{case}: the query passed")


def open_descriptors() -> set[str]:
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestIndexOnTwoWorkers:
    """A file-backed index's cosines, one slab per sub-slice of the pool."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case", BAD_BLOBS)
    def test_the_first_bad_slab_in_row_order_is_reported(self, tmp_path, monkeypatch, cpus,
                                                          case):
        on_cpus(monkeypatch, cpus)
        before = open_descriptors()
        assert bad_blob_message(tmp_path, case) == f"{tmp_path / 'idx.bin'}: {BAD_BLOBS[case][2]}"
        assert open_descriptors() == before

    def test_no_descriptor_is_left_open_under_resource_warning_errors(self, tmp_path):
        # an unclosed file warns where it is collected, which prints
        # "Exception ignored" on stderr and keeps the exit code
        script = f"""import os, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from pathlib import Path
from test_evaluate import BAD_BLOBS, bad_blob_message
for cpus in (1, 2):
    os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
    for i, case in enumerate(BAD_BLOBS):
        (Path({str(tmp_path)!r}) / f"{{cpus}}_{{i}}").mkdir()
        print(bad_blob_message(Path({str(tmp_path)!r}) / f"{{cpus}}_{{i}}", case).split(": ")[1])
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(evaluate_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", script],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.splitlines() == [message for _ in range(2)
                                           for _, _, message in BAD_BLOBS.values()]

    @pytest.fixture
    def index(self, tmp_path):
        n, d = 3 * S + 123, 16
        save_index(RetrievalIndex(tile_ids=list(range(n)),
                                  matrix=unit_rows(np.random.default_rng(10), n, d)),
                   tmp_path / "idx")
        return load_index(tmp_path / "idx")

    def test_forty_retrieves_start_at_most_one_thread_and_run_on_both(self, monkeypatch,
                                                                       index):
        on_cpus(monkeypatch, 2)
        started, calls = record_workers(monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(40):
            query_index(index, rng.normal(size=index.d), k=5)
        assert len(calls) == 40
        assert_pool_contract(started, calls, tape_module.ENCODE_WORKERS, 2)

    def test_cosines_have_the_same_bits_on_one_worker_and_on_two(self, monkeypatch, index):
        stored = np.frombuffer(index.bin_path.read_bytes(), dtype="<f4")
        whole = l2_normalize_rows(stored.astype(np.float64).reshape(index.n, index.d))
        q = l2_normalize_rows(np.random.default_rng(12).normal(size=(1, index.d)))[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers switch every microsecond
        try:
            for cpus in (1, 2):
                on_cpus(monkeypatch, cpus)
                assert index.cosines(q).tobytes() == (whole @ q).tobytes(), cpus
        finally:
            sys.setswitchinterval(interval)

    def test_a_one_slab_index_starts_no_thread(self, monkeypatch, tmp_path):
        on_cpus(monkeypatch, 2)
        monkeypatch.setattr(tape_module, "_pool", [])  # a pass of two slabs would start one

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        save_index(RetrievalIndex(tile_ids=list(range(S)),
                                  matrix=unit_rows(np.random.default_rng(13), S, 8)),
                   tmp_path / "idx")
        index = load_index(tmp_path / "idx")
        whole = l2_normalize_rows(np.fromfile(index.bin_path, dtype="<f4").astype(np.float64)
                                  .reshape(S, 8))
        q = l2_normalize_rows(np.random.default_rng(14).normal(size=(1, 8)))[0]
        assert index.cosines(q).tobytes() == (whole @ q).tobytes()

    def test_a_retrieve_while_another_call_holds_the_pool_runs_alone(self, monkeypatch, index):
        on_cpus(monkeypatch, 2)
        q = l2_normalize_rows(np.random.default_rng(15).normal(size=(1, index.d)))[0]
        expect = index.cosines(q).tobytes()
        started, calls = record_workers(monkeypatch)
        holding, release, got, second_ids = (threading.Event(), threading.Event(), [], [])

        def hold(_, start, stop):
            holding.set()
            release.wait(60)

        def second_call():
            got.append(index.cosines(q).tobytes())
            second_ids.append(threading.get_ident())

        callers = [threading.Thread(target=tape_module.run_sub_slices, args=(24, None, hold)),
                   threading.Thread(target=second_call)]
        callers[0].start()
        try:
            assert holding.wait(60)
            callers[1].start()
            callers[1].join(60)
            second_done = not callers[1].is_alive()
        finally:
            release.set()
            for caller in callers:
                caller.join(60)
        assert second_done and got == [expect]
        assert calls[1] == (4, set(second_ids))


class TestZeroShot:
    def test_single_class_always_chosen(self, model):
        tiles = tiles_for(model, n=3, seed=9)
        classes = np.random.default_rng(0).normal(size=(1, model.cfg.d_txt))
        assert zero_shot_classify(model, tiles, classes).tolist() == [0, 0, 0]

    def test_agrees_with_transposed_retrieval(self, model):
        # one-tile index queried by each class embedding must rank the winning
        # class's cosine highest, matching zero_shot_classify
        tiles = tiles_for(model, n=1, seed=11)
        rng = np.random.default_rng(1)
        classes = rng.normal(size=(4, model.cfg.d_txt))
        chosen = zero_shot_classify(model, tiles, classes)[0]
        index = build_index(model, tiles)
        cosines = [query_index(index, classes[k], k=1, model=model)[0][1]
                   for k in range(4)]
        assert int(np.argmax(cosines)) == chosen

    def test_batch_matches_one_tile_at_a_time(self, model):
        tiles = tiles_for(model, n=6, seed=13)
        classes = np.random.default_rng(2).normal(size=(12, model.cfg.d_txt))
        singles = [int(zero_shot_classify(model, [t], classes)[0]) for t in tiles]
        assert len(set(singles)) > 1
        assert zero_shot_classify(model, tiles, classes).tolist() == singles


def masked_sigmoid(x):
    """The boolean-mask version `_sigmoid` replaced, kept as its oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_masked_version_bitwise():
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array([0.0, -0.0, 745.0, -745.0, 745.2, -745.2, 1e-300, -1e-300, 800.0,
                      -800.0, tiny, -tiny, 2.2e-308, -2.2e-308, np.nan, -np.nan,
                      np.inf, -np.inf, 36.7, -36.7])
    normals = np.random.default_rng(5).normal(size=(768, 64)) * 8
    for x in (edges, normals, np.concatenate([edges, normals[0]]).reshape(12, -1)):
        expect, nan = masked_sigmoid(x), np.isnan(x)
        got = x.copy()
        assert _sigmoid(got) is got  # in place
        assert _sigmoid(x.copy(), np.empty_like(x)).tobytes() == got.tobytes()
        assert got.dtype == expect.dtype and got.shape == expect.shape
        # NaN stays NaN; its sign is not compared, as exp(-|x|) drops it
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expect[~nan].tobytes()
        assert got.tobytes() == where_sigmoid(x).tobytes()


def where_sigmoid(x):
    """The np.where version the branch-free numerator replaced: the same
    bits, NaN included."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def reference_probe_weights(features, labels, kind, config):
    """The probe loop before its epochs ran in place, with the out-of-place
    Adam expressions: the oracle of fit_linear_probe's weight and bias bits."""
    n, d = features.shape
    if kind == "single_label":
        k = int(labels.max()) + 1
        targets = np.zeros((n, k))
        targets[np.arange(n), labels] = 1.0
    else:
        targets, k = labels, labels.shape[1]
    rng = np.random.default_rng(config.seed)
    bound = np.sqrt(1.0 / d)
    params = {"weight": rng.uniform(-bound, bound, size=(d, k)), "bias": np.zeros(k)}
    m = {name: np.zeros_like(value) for name, value in params.items()}
    v = {name: np.zeros_like(value) for name, value in params.items()}
    for t in range(1, config.epochs + 1):
        logits = features @ params["weight"] + params["bias"]
        if kind == "single_label":
            shifted = logits - logits.max(axis=1, keepdims=True)
            ex = np.exp(shifted)
            probs = ex / ex.sum(axis=1, keepdims=True)
        else:
            probs = masked_sigmoid(logits)
        dlogits = (probs - targets) / n
        grads = {"weight": features.T @ dlogits, "bias": dlogits.sum(axis=0)}
        bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for name in sorted(grads):
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * grads[name]
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * grads[name] * grads[name]
            update = config.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)
            params[name] = params[name] - update
    return params["weight"], params["bias"]


@pytest.mark.parametrize("kind", ["single_label", "multi_label", "encounter_rate"])
def test_probe_weights_equal_the_out_of_place_loop_bitwise(kind):
    rng = np.random.default_rng(8)
    features = rng.normal(size=(90, 12)) * 3.0
    if kind == "single_label":
        labels = np.arange(90) % 5
    elif kind == "multi_label":
        labels = (rng.random((90, 6)) < 0.3).astype(float)
    else:
        labels = rng.random((90, 6))
    config = ProbeConfig(lr=0.05, epochs=40, seed=3)
    head = fit_linear_probe(None, features, labels, kind, config)
    weight, bias = reference_probe_weights(features, labels, kind, config)
    assert head.weight.tobytes() == weight.tobytes()
    assert head.bias.tobytes() == bias.tobytes()
