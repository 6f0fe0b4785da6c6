"""Tests for activation definitions, derivatives, and transformations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcmap import (
    DomainError,
    Identity,
    LReLU,
    ReLU,
    SoftPlus,
    Tanh,
    TReLU,
    TransformedActivation,
    UnsupportedDerivativeError,
    eval_activation,
    parse_activation,
    simulate_relu_via_lrelu,
)


class TestValues:
    def test_trelu_scale_is_exact(self):
        a = TReLU(0.5)
        assert a.scale == math.sqrt(2.0 / 1.25)

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 1.0])
    def test_trelu_is_a_scaled_lrelu(self, alpha):
        # TReLU overrides only scale: its value and slope are scale times the
        # leaky ReLU's, bit for bit, signed zeros and huge inputs included
        x = np.array([-1e300, -3.5, -1e-300, -0.0, 0.0, 1e-300, 0.7, 1e300])
        t, raw = TReLU(alpha), LReLU(alpha)
        for method in ("value", "deriv1"):
            got, want = getattr(t, method)(x), t.scale * getattr(raw, method)(x)
            assert got.tobytes() == want.tobytes()
        assert LReLU.scale == ReLU.scale == 1.0

    def test_trelu_negative_branch(self):
        # sqrt(2/1.25) * 0.5 * (-2)
        got = eval_activation(TReLU(0.5), -2.0)
        assert got == pytest.approx(-1.264911, abs=1e-6)

    def test_softplus_second_derivative_at_zero(self):
        # phi'' = sigma'(0) = 1/4 for the logistic sigma
        assert eval_activation(SoftPlus(), 0.0, 2) == pytest.approx(0.25, abs=1e-12)

    def test_identity_first_derivative(self):
        for x in (-3.0, 0.0, 7.5):
            assert eval_activation(Identity(), x, 1) == 1.0

    def test_relu_is_lrelu_zero(self):
        x = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(ReLU()(x), LReLU(0.0)(x))
        np.testing.assert_array_equal(ReLU()(x), np.maximum(x, 0.0))

    def test_lrelu_right_derivative_at_kink(self):
        assert eval_activation(LReLU(0.25), 0.0, 1) == 1.0

    def test_softplus_overflow_safe(self):
        big = 1e4
        assert eval_activation(SoftPlus(), big) == pytest.approx(big)
        assert eval_activation(SoftPlus(), -big) == 0.0
        assert np.isfinite(eval_activation(SoftPlus(), big, 1))
        assert np.isfinite(eval_activation(SoftPlus(), big, 2))

    def test_tanh_derivatives_match_finite_differences(self):
        a = Tanh()
        h = 1e-6
        for x in np.linspace(-2, 2, 9):
            fd1 = (a(x + h) - a(x - h)) / (2 * h)
            fd2 = (a(x + h) - 2 * a(x) + a(x - h)) / h**2
            assert eval_activation(a, x, 1) == pytest.approx(fd1, abs=1e-8)
            assert eval_activation(a, x, 2) == pytest.approx(fd2, abs=1e-3)

    def test_softplus_derivatives_match_finite_differences(self):
        a = SoftPlus()
        h = 1e-6
        for x in np.linspace(-2, 2, 9):
            fd1 = (a(x + h) - a(x - h)) / (2 * h)
            fd2 = (a(x + h) - 2 * a(x) + a(x - h)) / h**2
            assert eval_activation(a, x, 1) == pytest.approx(fd1, abs=1e-8)
            assert eval_activation(a, x, 2) == pytest.approx(fd2, abs=1e-3)


class TestDerivativeSupport:
    @pytest.mark.parametrize("act", [ReLU(), LReLU(0.3), TReLU(0.7)])
    def test_second_derivative_rejected_on_piecewise_linear(self, act):
        with pytest.raises(UnsupportedDerivativeError):
            eval_activation(act, 1.0, 2)

    def test_order_above_two_rejected(self):
        with pytest.raises(UnsupportedDerivativeError):
            eval_activation(Tanh(), 0.0, 3)


class TestTransformed:
    def test_identity_transform_equals_base(self):
        base = Tanh()
        t = TransformedActivation(base, 1.0, 0.0, 1.0, 0.0)
        x = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(t(x), base(x), atol=0)
        np.testing.assert_allclose(t.deriv1(x), base.deriv1(x), atol=0)
        np.testing.assert_allclose(t.deriv2(x), base.deriv2(x), atol=0)

    def test_affine_composition_value(self):
        t = TransformedActivation(Tanh(), 2.0, 0.5, 3.0, -0.1)
        x = 0.7
        assert t(x) == pytest.approx(3.0 * (math.tanh(2.0 * x + 0.5) - 0.1))

    def test_chain_rule_derivatives(self):
        t = TransformedActivation(SoftPlus(), 1.7, -0.4, 2.2, 0.3)
        h = 1e-6
        for x in (-1.0, 0.0, 2.0):
            fd = (t(x + h) - t(x - h)) / (2 * h)
            assert t.deriv1(x) == pytest.approx(fd, abs=1e-7)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            TransformedActivation(Tanh(), 1.0, 0.0, -1.0, 0.0)

    def test_transformed_lrelu_reports_nonsmooth(self):
        t = TransformedActivation(LReLU(0.2), 1.0, 0.5, 1.0, 0.0)
        assert not t.smooth
        # kink moves to where alpha*x + beta = 0
        assert t.kinks() == pytest.approx((-0.5,))


class TestReluSimulation:
    def test_positive_input(self):
        assert simulate_relu_via_lrelu(0.5, 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_negative_input(self):
        assert simulate_relu_via_lrelu(0.5, -3.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_input(self):
        for alpha in (-0.9, 0.0, 0.3, 0.99):
            assert simulate_relu_via_lrelu(alpha, 0.0) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_degenerate_slope_rejected(self, alpha):
        with pytest.raises(DomainError):
            simulate_relu_via_lrelu(alpha, 1.0)

    def test_identity_on_random_pairs(self):
        rng = np.random.default_rng(20240817)
        alphas = rng.uniform(-0.99, 0.99, size=10_000)
        xs = rng.normal(scale=3.0, size=10_000)
        got = simulate_relu_via_lrelu(alphas, xs)
        np.testing.assert_allclose(got, np.maximum(xs, 0.0), atol=1e-12)


class TestProperties:
    @given(st.floats(-50, 50))
    def test_trelu_alpha_one_is_identity(self, x):
        assert TReLU(1.0)(x) == pytest.approx(x, abs=1e-12, rel=1e-12)

    @given(st.floats(-0.99, 0.99), st.floats(-100, 100))
    def test_relu_simulation_pointwise(self, alpha, x):
        assert simulate_relu_via_lrelu(alpha, x) == pytest.approx(
            max(x, 0.0), abs=1e-12, rel=1e-9
        )

    @given(st.floats(-20, 20))
    def test_softplus_first_derivative_is_logistic(self, x):
        assert SoftPlus().deriv1(x) == pytest.approx(
            1.0 / (1.0 + math.exp(-x)), abs=1e-12
        )


class TestParsing:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("relu", ReLU()),
            ("lrelu:0.25", LReLU(0.25)),
            ("trelu:0.3", TReLU(0.3)),
            ("tanh", Tanh()),
            ("softplus", SoftPlus()),
        ],
    )
    def test_round_trip(self, spec, expected):
        assert parse_activation(spec) == expected

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_activation("swish")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_activation("lrelu:zero")

    @pytest.mark.parametrize("cls", [LReLU, ReLU, TReLU])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_rejected(self, cls, alpha):
        with pytest.raises(DomainError):
            cls(alpha)
