import numpy as np
import pytest

from satalign.optim import AdamState, ParameterStore, adam_step


def make_store(**tensors):
    store = ParameterStore()
    for name, value in tensors.items():
        store.add(name, value)
    return store


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = make_store(w=np.ones(2))
        with pytest.raises(ValueError, match="duplicate parameter"):
            store.add("w", np.zeros(2))

    def test_shape_immutable(self):
        store = make_store(w=np.ones(2))
        with pytest.raises(ValueError, match="shape"):
            store.set("w", np.ones(3))

    def test_blob_hash_tracks_any_bit(self):
        store = make_store(w=np.ones(2), b=np.zeros(1))
        h0 = store.blob_hash()
        assert store.blob_hash() == h0
        store.set("w", np.array([1.0, np.nextafter(1.0, 2.0)]))
        assert store.blob_hash() != h0


class TestAdam:
    def test_hand_computed_first_step(self):
        # p=0, g=1, lr=0.1, defaults: m_hat = v_hat = 1 -> p = -0.1/(1 + 1e-8)
        store = make_store(p=np.array(0.0))
        state = AdamState(lr=0.1)
        adam_step(store, {"p": np.array(1.0)}, state)
        expected = -0.1 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert abs(float(store.get("p")) - expected) < 1e-15
        assert abs(float(store.get("p")) + 0.1) < 1e-8
        assert state.t == 1

    def test_zero_gradient_leaves_parameter_bit_identical(self):
        store = make_store(p=np.array([0.3, -1.7]))
        before = store.get("p").copy()
        state = AdamState(lr=0.5)
        for _ in range(7):  # any t
            adam_step(store, {"p": np.zeros(2)}, state)
        np.testing.assert_array_equal(store.get("p"), before)
        assert state.t == 7

    def test_parameters_update_independently(self):
        store = make_store(a=np.array(1.0), b=np.array(2.0))
        b_before = store.get("b").copy()
        adam_step(store, {"a": np.array(0.5)}, AdamState(lr=0.1))
        np.testing.assert_array_equal(store.get("b"), b_before)
        assert float(store.get("a")) != 1.0

    def test_matches_reference_formula_over_steps(self):
        # Oracle: direct transcription of bias-corrected Adam, run side by side.
        rng = np.random.default_rng(0)
        store = make_store(w=rng.normal(size=(3, 2)))
        ref = store.get("w").copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        state = AdamState(lr=0.01)
        for t in range(1, 6):
            g = rng.normal(size=ref.shape)
            adam_step(store, {"w": g}, state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(store.get("w"), ref, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        store = make_store(w=np.ones((2, 2)))
        with pytest.raises(ValueError, match="gradient shape mismatch"):
            adam_step(store, {"w": np.ones(3)}, AdamState())

    def test_unknown_name_rejected(self):
        store = make_store(w=np.ones(2))
        with pytest.raises(ValueError, match="unknown parameter"):
            adam_step(store, {"nope": np.ones(2)}, AdamState())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected_before_any_update(self, bad):
        store = make_store(a=np.ones(2), b=np.zeros(3))
        state = AdamState(lr=0.1)
        adam_step(store, {"a": np.ones(2), "b": np.ones(3)}, state)
        before = store.copy_values()
        m_before = {k: v.copy() for k, v in state.m.items()}
        v_before = {k: v.copy() for k, v in state.v.items()}
        # "a" sorts first, so a check made while updating would already have moved it
        with pytest.raises(RuntimeError, match="non-finite gradient for 'b' at step 2"):
            adam_step(store, {"a": np.ones(2), "b": np.array([0.0, bad, 1.0])}, state)
        assert state.t == 1
        for name, value in before.items():
            np.testing.assert_array_equal(store.get(name), value)
            np.testing.assert_array_equal(state.m[name], m_before[name])
            np.testing.assert_array_equal(state.v[name], v_before[name])


def reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place expressions adam_step replaced, kept as its oracle:
    new arrays for m, v and each parameter."""
    bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for name in sorted(grads):
        g = np.asarray(grads[name], dtype=np.float64)
        m0 = m.get(name, np.zeros_like(g))
        v0 = v.get(name, np.zeros_like(g))
        m[name] = beta1 * m0 + (1.0 - beta1) * g
        v[name] = beta2 * v0 + (1.0 - beta2) * g * g
        update = lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        params[name] = params[name] - update


def test_in_place_adam_equals_the_out_of_place_expressions_bitwise():
    rng = np.random.default_rng(3)
    start = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5), "c": np.array(0.25)}
    store = make_store(**{k: v.copy() for k, v in start.items()})
    state = AdamState(lr=0.03)
    params, m, v = dict(start), {}, {}
    for t in range(1, 8):
        grads = {"a": rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-8, 4),
                 # -0.0 on the first step: 0.0 + -0.0 is +0.0, unlike -0.0 alone
                 "b": np.array([-0.0, 0.0, 1e-310, -3.0, 2.0]) if t < 3 else rng.normal(size=5),
                 # a read-only broadcast view with zero strides
                 "c": np.broadcast_to(np.float64(rng.normal()), ())}
        if t == 4:
            grads["a"] = np.broadcast_to(rng.normal(size=3), (4, 3))
        if t == 5:
            del grads["b"]  # a parameter without a gradient keeps its bits
        adam_step(store, grads, state)
        reference_adam_step(params, grads, m, v, t, lr=0.03)
        for name in start:
            assert store.get(name).tobytes() == params[name].tobytes(), (t, name)
            assert state.m[name].tobytes() == m[name].tobytes(), (t, name)
            assert state.v[name].tobytes() == v[name].tobytes(), (t, name)
    assert state.t == 7


def test_adam_writes_no_gradient_and_no_earlier_parameter():
    store = make_store(w=np.ones(3))
    before, g = store.get("w"), np.array([0.5, -1.0, 2.0])
    adam_step(store, {"w": g}, AdamState(lr=0.1))
    assert before.tolist() == [1.0, 1.0, 1.0] and g.tolist() == [0.5, -1.0, 2.0]
    assert store.get("w") is not before
