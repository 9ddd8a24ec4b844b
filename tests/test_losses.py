import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import central_difference, softmax_bruteforce
from simreg import losses
from simreg.encoder import Model, build_vocab, forward_backward, head_parts
from simreg.errors import InvalidInputError
from simreg.labelmap import LabelMapping
from simreg.losses import (
    LossKind,
    LossSpec,
    cross_entropy,
    info_nce,
    l1_loss,
    mse_loss,
    smooth_k2,
    translated_relu,
)


FOUR_CLASS = LabelMapping(["irrelevant", "slight", "moderate", "high"], 0.0, 1.0)


def mse_with_prediction(prediction, target, clamp_range=None):
    """forward_backward MSE of one pair whose raw prediction is fixed.

    The head weights are zeroed, so the raw prediction is the head bias.
    Returns the loss and the gradient reaching the head bias.
    """
    model = Model.initialize(build_vocab(["a man", "the dog"]), dim=4, seed=0,
                             label_range=(0.0, 3.0))
    model.params.head_weights[...] = 0.0
    model.params.head_bias[...] = prediction
    pairs = model.encode(["a man", "the dog"])
    value, grads = forward_backward(model.params, pairs.pooling, [target],
                                    model.feature_mode, LossSpec(LossKind.MSE),
                                    clamp_range)
    return value, float(head_parts(grads.head, model.params.weights_shape)[1])


def tr_spec(k=2.0, x0=0.25, d=1.0):
    return LossSpec(LossKind.TRANSLATED_RELU, k=k, x0=x0, d=d)

def k2_spec(k=2.0, x0=0.25, d=1.0):
    return LossSpec(LossKind.SMOOTH_K2, k=k, x0=x0, d=d)


class TestLossSpec:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.SMOOTH_K2, k=0.0)

    def test_rejects_x0_past_half_interval(self):
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.SMOOTH_K2, k=1.0, x0=0.6, d=1.0)

    def test_rejects_negative_x0(self):
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.TRANSLATED_RELU, k=1.0, x0=-0.1)

    def test_info_nce_needs_tau(self):
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.INFO_NCE)
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.INFO_NCE, tau=0.0)
        assert LossSpec(LossKind.INFO_NCE, tau=0.05).tau == 0.05

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["k", "x0", "d", "tau"])
    def test_rejects_non_finite_values(self, name, value):
        kind = LossKind.INFO_NCE if name == "tau" else LossKind.SMOOTH_K2
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            LossSpec(kind, **{name: value})

    def test_x0_equal_to_half_interval_allowed(self):
        assert LossSpec(LossKind.SMOOTH_K2, x0=0.5, d=1.0).x0 == 0.5


class TestResidual:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            mse_with_prediction(float("nan"), 1.0)
        with pytest.raises(InvalidInputError):
            mse_with_prediction(1.0, float("inf"))


BAD_RESIDUALS = {"negative": -1.0, "-inf": -math.inf, "inf": math.inf, "nan": math.nan}


def residual_cases():
    """(id, x) of a scalar and of a flat and a stacked array holding the bad
    value first, in the middle and last among valid residuals."""
    for name, bad in BAD_RESIDUALS.items():
        yield f"{name}-scalar", bad
        for where, at in (("first", 0), ("middle", 2), ("last", 4)):
            x = np.array([0.5, 0.0, 1.5, 2.0, 3.0])
            x[at] = bad
            yield f"{name}-{where}", x
            stacked = np.ones((2, 5))
            stacked[1, at] = bad
            yield f"{name}-{where}-stacked", stacked


@pytest.mark.parametrize("x", [x for _, x in residual_cases()],
                         ids=[name for name, _ in residual_cases()])
def test_residual_check_rejects_every_bad_entry_anywhere(x):
    first = next(v for v in np.ravel(x) if not 0.0 <= v < math.inf)
    message = (f"residual must be finite and non-negative, got 1 bad of {np.size(x)} "
               f"entries, the first {first}")
    with pytest.raises(InvalidInputError) as info:
        losses._residuals(x)
    assert str(info.value) == message


@pytest.mark.parametrize("x", [
    -0.0, 0.0, 2.5, np.array([-0.0, 1.0, -0.0]), np.array([1.0, -0.0]),
    np.zeros((2, 0)), [[0.0, 1e308], [-0.0, 5e-324]],
], ids=["-0", "0", "scalar", "-0-first-last", "-0-last", "empty", "nested-list"])
def test_residual_check_accepts_zeros_of_both_signs(x):
    got = losses._residuals(x)
    expect = np.asarray(x, dtype=float)
    assert np.shape(got) == expect.shape
    assert np.asarray(got).tobytes() == expect.tobytes()  # -0.0 is kept


class TestTranslatedRelu:
    def test_zero_at_threshold(self):
        value, grad = translated_relu(0.25, tr_spec(k=2.0, x0=0.25))
        assert value == 0.0
        assert grad == 2.0  # right-sided derivative at the knot

    def test_zero_inside_buffer_zone(self):
        assert translated_relu(0.10, tr_spec(k=2.0, x0=0.25)) == (0.0, 0.0)

    def test_linear_branch(self):
        value, grad = translated_relu(1.0, tr_spec(k=2.0, x0=0.25))
        assert value == pytest.approx(1.5, abs=1e-12)
        assert grad == 2.0

    @given(st.floats(0.3, 10.0))
    def test_matches_finite_differences_past_knot(self, x):
        spec = tr_spec(k=2.0, x0=0.25)
        _, grad = translated_relu(x, spec)
        fd = central_difference(lambda t: translated_relu(t, spec)[0], x)
        assert grad == pytest.approx(fd, rel=1e-4)


class TestSmoothK2:
    def test_both_branches_agree_at_knot(self):
        assert smooth_k2(0.25, k2_spec(k=2.0, x0=0.25)) == (0.0, 0.0)

    def test_quadratic_branch(self):
        value, grad = smooth_k2(0.75, k2_spec(k=2.0, x0=0.25))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert grad == pytest.approx(2.0, abs=1e-12)

    def test_buffer_zone_with_k3(self):
        assert smooth_k2(0.20, k2_spec(k=3.0, x0=0.25)) == (0.0, 0.0)

    @given(st.floats(1e-3, 10.0))
    def test_matches_finite_differences(self, x):
        spec = k2_spec(k=2.0, x0=0.25)
        if abs(x - spec.x0) < 1e-4:
            return  # C1, but central differences straddle the branch switch
        _, grad = smooth_k2(x, spec)
        fd = central_difference(lambda t: smooth_k2(t, spec)[0], x)
        assert grad == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestBaselines:
    def test_l1(self):
        assert l1_loss(0.0) == (0.0, 0.0)
        assert l1_loss(1.5) == (1.5, 1.0)

    def test_mse(self):
        value, grad = mse_loss(0.5)
        assert value == pytest.approx(0.25)
        assert grad == pytest.approx(1.0)

    def test_negative_residual_rejected(self):
        for bad in (-0.1, float("nan"), float("inf"), [0.5, -0.1]):
            for fn in (l1_loss, mse_loss, lambda x: smooth_k2(x, k2_spec())):
                with pytest.raises(InvalidInputError):
                    fn(bad)


class TestBufferZoneProperties:
    @given(
        st.floats(0.01, 5.0),
        st.floats(0.01, 0.5),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_zero_throughout_buffer_zone(self, k, x0, frac):
        x = x0 * frac
        assume(x < x0)  # product rounding can land exactly on the knot
        assert translated_relu(x, tr_spec(k=k, x0=x0)) == (0.0, 0.0)
        assert smooth_k2(x, k2_spec(k=k, x0=x0)) == (0.0, 0.0)

    @given(st.floats(0.01, 5.0), st.floats(0.0, 0.5), st.floats(0.0, 10.0))
    def test_exact_closed_forms_past_threshold(self, k, x0, extra):
        x = x0 + extra
        value, _ = translated_relu(x, tr_spec(k=k, x0=x0))
        assert value == pytest.approx(max(0.0, k * (x - x0)), abs=1e-12)
        value, _ = smooth_k2(x, k2_spec(k=k, x0=x0))
        # refactored quadratic k(x^2 - 2*x0*x + x0^2)
        assert value == pytest.approx(k * (x * x - 2 * x0 * x + x0 * x0), abs=1e-12)

    def test_continuity_at_knot(self):
        k, x0, eps = 2.0, 0.25, 1e-9
        v_lo, g_lo = smooth_k2(x0 - eps, k2_spec(k=k, x0=x0))
        v_hi, g_hi = smooth_k2(x0 + eps, k2_spec(k=k, x0=x0))
        assert abs(v_hi - v_lo) < 1e-8 and abs(g_hi - g_lo) < 1e-8
        v_lo, g_lo = translated_relu(x0 - eps, tr_spec(k=k, x0=x0))
        v_hi, g_hi = translated_relu(x0 + eps, tr_spec(k=k, x0=x0))
        assert abs(v_hi - v_lo) < 1e-8
        assert g_hi - g_lo == k  # gradient jump of exactly k

    @given(st.floats(0.01, 5.0), st.floats(0.0, 0.5))
    def test_monotone_in_residual(self, k, x0):
        grid = np.linspace(0.0, 3.0, 200)
        tr = [translated_relu(x, tr_spec(k=k, x0=x0))[0] for x in grid]
        k2 = [smooth_k2(x, k2_spec(k=k, x0=x0))[0] for x in grid]
        assert all(b >= a for a, b in zip(tr, tr[1:]))
        assert all(b >= a for a, b in zip(k2, k2[1:]))

    def test_reduction_to_l1_and_mse(self):
        spec_tr = tr_spec(k=1.0, x0=0.0)
        spec_k2 = k2_spec(k=1.0, x0=0.0)
        for x in np.linspace(0.0, 5.0, 1000):
            assert translated_relu(x, spec_tr)[0] == l1_loss(x)[0]
            assert smooth_k2(x, spec_k2)[0] == pytest.approx(mse_loss(x)[0], abs=1e-12)
            assert smooth_k2(x, spec_k2)[1] == pytest.approx(mse_loss(x)[1], abs=1e-12)
            if x > 0.0:  # slope conventions differ only at the x = 0 kink
                assert translated_relu(x, spec_tr)[1] == l1_loss(x)[1]


class TestClamp:
    CLAMP = (FOUR_CLASS.low, FOUR_CLASS.high)

    def test_overshoot_reassigned_to_boundary(self):
        # 3.57 is clamped to the top node 3.0: no loss against 3.0, no gradient
        assert mse_with_prediction(3.57, 3.0, self.CLAMP) == (0.0, 0.0)
        value, grad = mse_with_prediction(3.57, 2.0, self.CLAMP)
        assert value == pytest.approx(1.0) and grad == 0.0

    def test_undershoot(self):
        assert mse_with_prediction(-0.4, 0.0, self.CLAMP) == (0.0, 0.0)
        value, grad = mse_with_prediction(-0.4, 1.0, self.CLAMP)
        assert value == pytest.approx(1.0) and grad == 0.0

    def test_in_range_identity(self):
        clamped = mse_with_prediction(1.5, 0.0, self.CLAMP)
        assert clamped == pytest.approx((2.25, 3.0))
        assert clamped == mse_with_prediction(1.5, 0.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        value, _ = cross_entropy([0.0, 0.0, 0.0], 1)
        assert value == pytest.approx(math.log(3))

    def test_saturated_correct_class(self):
        value, _ = cross_entropy([10.0, -10.0], 0)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_matches_softmax_oracle(self):
        value, grad = cross_entropy([1.0, 2.0, 3.0], 2)
        assert value == pytest.approx(0.4076059644443803, abs=1e-12)
        probs = softmax_bruteforce([1.0, 2.0, 3.0])
        expect = np.array(probs) - np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(grad, expect, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            cross_entropy([0.0, 1.0], 2)
        with pytest.raises(InvalidInputError):
            cross_entropy([0.0, 1.0], -1)

    def test_extreme_logits_stay_finite(self):
        value, grad = cross_entropy([1000.0, -1000.0, 0.0], 2)
        assert math.isfinite(value) and np.all(np.isfinite(grad))


class TestInfoNce:
    def test_single_pair_is_zero(self):
        value, da, dp = info_nce([[1.0, 2.0]], [[0.3, -0.7]], tau=0.5)
        assert value == 0.0
        assert not da.any() and not dp.any()

    def test_orthogonal_two_pair_batch(self):
        anchors = [[1.0, 0.0], [0.0, 1.0]]
        positives = [[1.0, 0.0], [0.0, 1.0]]
        value, _, _ = info_nce(anchors, positives, tau=1.0)
        assert value == pytest.approx(0.31326168751822286, abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        anchors = rng.normal(size=(4, 6))
        positives = rng.normal(size=(4, 6))
        tau = 0.3
        _, da, dp = info_nce(anchors, positives, tau)
        step = 1e-5
        for arr, grad in ((anchors, da), (positives, dp)):
            for i in range(4):
                for j in range(6):
                    orig = arr[i, j]
                    arr[i, j] = orig + step
                    up = info_nce(anchors, positives, tau)[0]
                    arr[i, j] = orig - step
                    down = info_nce(anchors, positives, tau)[0]
                    arr[i, j] = orig
                    fd = (up - down) / (2 * step)
                    assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_zero_norm_embedding_rejected(self):
        with pytest.raises(InvalidInputError):
            info_nce([[0.0, 0.0]], [[1.0, 0.0]], tau=1.0)

    def test_batch_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            info_nce([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], tau=1.0)
        with pytest.raises(InvalidInputError):
            info_nce([], [], tau=1.0)
