import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satalign.contrastive import (LossConfig, info_nce,
                                  pairwise_loss, pairwise_loss_graph,
                                  trimodal_loss, trimodal_loss_graph)
from satalign.gradcheck import finite_diff_check
from satalign.tape import Tape, backward, l2_normalize_rows


def unit_batch(n, d, seed):
    """An n x d matrix of unit-norm random rows."""
    return l2_normalize_rows(np.random.default_rng(seed).normal(size=(n, d)))


class TestInfoNCE:
    def test_single_element_is_exactly_zero(self):
        batch = unit_batch(1, 8, seed=0)
        assert info_nce(batch[0], batch, 0, temperature=0.07) == 0.0

    @pytest.mark.parametrize("tau", [0.07, 0.5, 1.0])
    def test_two_sample_aligned_orthogonal_closed_form(self, tau):
        # positive logit 1/tau, lone negative logit 0 -> ln(1 + e^(-1/tau))
        e = np.eye(2)
        z = np.array([1.0, 0.0])
        expected = math.log1p(math.exp(-1.0 / tau))
        assert abs(info_nce(z, e, 0, tau) - expected) < 1e-9

    def test_random_batch_mean_near_log_n(self):
        # Monte-Carlo oracle at tau=1: logits are ~N(0, 1/d), so the mean loss
        # sits at ln n plus a small positive Jensen term (~0.02 for n=d=64).
        rng = np.random.default_rng(42)
        n = d = 64
        total = 0.0
        for trial in range(1000):
            z = l2_normalize_rows(rng.normal(size=(n, d)))
            e = l2_normalize_rows(rng.normal(size=(n, d)))
            total += info_nce(z[trial % n], e, trial % n, temperature=1.0)
        assert abs(total / 1000 - math.log(n)) < 0.1

    def test_nonnegative_and_strictly_positive_beyond_one_sample(self):
        for seed in range(30):
            z = unit_batch(5, 6, seed=seed)
            e = unit_batch(5, 6, seed=seed + 100)
            for i in range(5):
                value = info_nce(z[i], e, i, temperature=0.07)
                assert value >= 0.0
                assert value > 0.0  # generic batch: negatives carry finite weight

    def test_monotone_in_positive_logit(self):
        # Raising z.e_i while holding the other logits fixed lowers the loss.
        rng = np.random.default_rng(3)
        z = l2_normalize_rows(rng.normal(size=(1, 8)))[0]
        e = l2_normalize_rows(rng.normal(size=(4, 8)))
        losses = []
        for t in (0.0, 0.4, 0.8):
            rows = e.copy()
            rows[1] = l2_normalize_rows(((1 - t) * rows[1] + t * z)[None])[0]
            assert np.dot(rows[1], z) >= np.dot(e[1], z) - 1e-12
            losses.append(info_nce(z, rows, 1, temperature=0.07))
        assert losses[0] > losses[1] > losses[2]

    def test_index_bounds(self):
        batch = unit_batch(3, 4, seed=0)
        with pytest.raises(ValueError, match="outside batch"):
            info_nce(batch[0], batch, 3, temperature=1.0)


class TestPairwiseLoss:
    def test_symmetry_exact(self):
        for seed in range(100):
            z = unit_batch(6, 5, seed=seed)
            e = unit_batch(6, 5, seed=seed + 1000)
            assert pairwise_loss(z, e, 0.07) == pairwise_loss(e, z, 0.07)

    def test_orthonormal_identity_closed_form(self):
        # 2n identical terms of -log(e^(1/tau) / (e^(1/tau) + 3))
        tau = 0.07
        eye = np.eye(4)
        expected = math.log1p(3.0 * math.exp(-1.0 / tau))
        assert abs(pairwise_loss(eye, eye, tau) - expected) < 1e-12
        assert expected == pytest.approx(1.87e-6, rel=1e-2)

    def test_single_sample_zero(self):
        z = unit_batch(1, 7, seed=1)
        e = unit_batch(1, 7, seed=2)
        assert pairwise_loss(z, e, 0.07) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pairwise_loss(unit_batch(3, 4, 0), unit_batch(4, 4, 1), 0.07)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        z = l2_normalize_rows(rng.normal(size=(5, 4)))
        e = l2_normalize_rows(rng.normal(size=(5, 4)))
        perm = rng.permutation(5)
        base = pairwise_loss(z, e, 0.07)
        assert abs(pairwise_loss(z[perm], e[perm], 0.07) - base) < 1e-12

    def test_near_parallel_batch_stays_finite(self):
        # adversarial case: every row ~ the same unit vector, logits ~ 1/tau
        base = np.ones(8) / math.sqrt(8)
        rows = l2_normalize_rows(np.tile(base, (16, 1)) + 1e-12)
        loss = pairwise_loss(rows, rows, 0.07)
        assert np.isfinite(loss)
        assert loss == pytest.approx(math.log(16), abs=1e-6)  # all logits equal

    def test_temperature_sensitivity(self):
        z = unit_batch(6, 8, seed=5)
        e = unit_batch(6, 8, seed=6)
        a = pairwise_loss(z, e, 0.5)
        b = pairwise_loss(z, e, 0.25)
        assert a != b

    def test_loss_continuous_in_temperature(self):
        z = unit_batch(5, 8, seed=9)
        e = unit_batch(5, 8, seed=10)
        for tau in np.linspace(0.05, 2.0, 40):
            jump = abs(pairwise_loss(z, e, tau + 1e-9) - pairwise_loss(z, e, tau))
            assert jump < 1e-6


class TestTrimodalLoss:
    def _batches(self, seed, n=5, d=6):
        return [unit_batch(n, d, seed=seed + k) for k in range(6)]

    def test_total_is_exact_sum_of_terms(self):
        b = self._batches(0)
        total, terms = trimodal_loss(*b)
        assert total == terms["image"] + terms["text"] + terms["location"]

    def test_identical_batches_triple_single_term(self):
        rows = unit_batch(4, 6, seed=3)
        total, _ = trimodal_loss(rows, rows, rows, rows, rows, rows)
        single = pairwise_loss(rows, rows, 0.07)
        assert total == pytest.approx(3.0 * single, abs=1e-12)

    def test_mismatched_counts_rejected(self):
        b = self._batches(1)
        b[3] = unit_batch(7, 6, seed=99)
        with pytest.raises(ValueError, match="same sample count"):
            trimodal_loss(*b)

    def test_weights_scale_terms(self):
        b = self._batches(2)
        cfg = LossConfig(temperature=0.07, image_weight=2.0)
        total, terms = trimodal_loss(*b, config=cfg)
        _, plain = trimodal_loss(*b)
        assert terms["image"] == pytest.approx(2.0 * plain["image"], rel=1e-12)


class TestGraphLossAgreement:
    def test_graph_matches_numpy_value(self):
        rng = np.random.default_rng(0)
        z_val = l2_normalize_rows(rng.normal(size=(6, 5)))
        e_val = l2_normalize_rows(rng.normal(size=(6, 5)))
        tape = Tape()
        z = tape.leaf("z", z_val, trainable=True)
        e = tape.leaf("e", e_val, trainable=True)
        node = pairwise_loss_graph(tape, z, e, 0.07)
        assert float(node.value) == pytest.approx(pairwise_loss(z_val, e_val, 0.07), abs=1e-12)

    def test_trimodal_graph_matches_and_differentiates(self):
        rng = np.random.default_rng(1)
        tape = Tape()
        nodes = []
        values = []
        for name in ("a", "b", "c", "d", "e", "f"):
            raw = tape.leaf(name, rng.normal(size=(4, 5)), trainable=True)
            nodes.append(tape.l2norm_rows(raw))
            values.append(nodes[-1].value)
        total_node, _ = trimodal_loss_graph(tape, *nodes)
        tape.mark_output("loss", total_node)
        expected, _ = trimodal_loss(*values)
        assert float(total_node.value) == pytest.approx(expected, abs=1e-12)
        grads = backward(tape)
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        # a generic batch moves every input of every term
        assert all(np.linalg.norm(grads[n]) > 0 for n in ("a", "b", "c", "d", "e", "f"))
        report = finite_diff_check(tape, tolerance=1e-4)
        assert report.passed, str(report)

    def test_near_parallel_gradients_finite(self):
        tape = Tape()
        base = np.ones((8, 6)) + 1e-6 * np.arange(48).reshape(8, 6)
        z = tape.leaf("z", base, trainable=True)
        zn = tape.l2norm_rows(z)
        node = pairwise_loss_graph(tape, zn, zn, 0.07)
        tape.mark_output("loss", node)
        grads = backward(tape)
        assert np.all(np.isfinite(grads["z"]))
        assert np.isfinite(float(node.value))
