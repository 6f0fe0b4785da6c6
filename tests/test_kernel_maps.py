"""Tests for local/global Q-C map evaluation and the closed-form LReLU maps.

The kernel_map routes (arc-cosine closed form, Hermite series) are checked
against local_c quadrature, which shares no code with either of them.
"""

import math
import os

import numpy as np
import pytest

from qcmap import (
    CStats,
    DomainError,
    Identity,
    LocalMapParams,
    LReLU,
    QuadratureRule,
    ReLU,
    SoftPlus,
    Tanh,
    TransformedActivation,
    TReLU,
    UnsupportedDerivativeError,
    build_rescaled_resnet,
    build_vanilla,
    cstats,
    default_rule,
    eval_U,
    global_c,
    kernel_map,
    local_c,
    local_c_derivative,
    local_q,
    lrelu_c_map,
    lrelu_c_map_derivative,
    solve_dks,
    solve_tat_smooth,
)
from qcmap.kernel_maps import (
    _HERMITE_RTOL,
    DEFAULT_QUAD_ORDER,
    _clamp_unit,
    _hermite_coefficients,
    _hermite_jet,
)

RULE = default_rule()
RULE_120 = QuadratureRule.gauss_hermite(120)
GRID = np.linspace(-1.0, 1.0, 201)
# (q1, q2, sigma_w, sigma_b): the plain map and a biased one off the diagonal
KERNEL_CASES = [(1.0, 1.0, 1.0, 0.0), (0.7, 2.3, 1.3, 0.4)]


class TestQuadratureRule:
    def test_weights_sum_to_one(self):
        assert sum(RULE.weights) == pytest.approx(1.0, abs=1e-12)

    def test_second_moment_is_one(self):
        assert RULE.expect(lambda z: z * z) == pytest.approx(1.0, abs=1e-12)

    def test_default_rule_is_one_shared_60_point_rule(self):
        assert default_rule() is default_rule()
        assert default_rule().order == 60
        assert len(default_rule().nodes) == 60

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule.gauss_hermite(0)

    def test_correlated_expectation_covariance(self):
        # E[z1 z2'] = c by construction of the substitution
        for c in (-0.8, 0.0, 0.6):
            got = RULE.expect2(lambda z1, z2: z1 * z2, c)
            assert got == pytest.approx(c, abs=1e-12)

    def test_expect2_rejects_out_of_range_c(self):
        with pytest.raises(DomainError):
            RULE.expect2(lambda a, b: a * b, 1.5)


class TestLreluClosedForm:
    def test_alpha_one_is_identity(self):
        assert lrelu_c_map(1.0, 0.3) == pytest.approx(0.3, abs=0)

    def test_relu_at_zero(self):
        assert lrelu_c_map(0.0, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_relu_matches_arccosine_kernel(self):
        # normalized-ReLU map (sqrt(1-c^2) + (pi - arccos c) c) / pi
        for c in np.linspace(-1, 1, 41):
            want = (math.sqrt(1 - c * c) + (math.pi - math.acos(c)) * c) / math.pi
            assert lrelu_c_map(0.0, c) == pytest.approx(want, abs=1e-14)

    def test_fixes_one(self):
        for alpha in (0.0, 0.25, 0.7, 1.0):
            assert lrelu_c_map(alpha, 1.0) == 1.0

    def test_maps_interval_into_itself(self):
        grid = np.linspace(-1, 1, 201)
        for alpha in (0.0, 0.3, 0.8):
            out = lrelu_c_map(alpha, grid)
            assert np.all(out >= -1.0 - 1e-12)
            assert np.all(out <= 1.0 + 1e-12)

    def test_clamps_round_off_but_rejects_beyond(self):
        assert lrelu_c_map(0.3, 1.0 + 1e-13) == 1.0
        with pytest.raises(DomainError):
            lrelu_c_map(0.3, 1.1)

    def test_scalar_and_array_paths_agree(self):
        grid = np.concatenate([np.linspace(-1, 1, 4001), [-1.0, 0.0, 1.0, 1.0 + 1e-13]])
        for alpha in (0.0, 0.05, 0.3, 0.77, 1.0, np.float64(0.4)):
            arr = lrelu_c_map(alpha, grid)
            for c, want in zip(grid, arr):
                got = lrelu_c_map(alpha, float(c))
                assert type(got) is float
                assert abs(got - want) <= 4e-16

    def test_scalar_and_array_paths_share_the_domain(self):
        for c in (1.0 + 1e-9, -1.0 - 1e-9, math.inf):
            with pytest.raises(DomainError):
                lrelu_c_map(0.2, c)
            with pytest.raises(DomainError):
                lrelu_c_map(0.2, np.array([0.0, c]))
        assert math.isnan(lrelu_c_map(0.2, math.nan))
        assert np.isnan(lrelu_c_map(0.2, np.array([math.nan]))).all()

    def test_monte_carlo_oracle_light(self):
        # scaled-down version of the acceptance check
        rng = np.random.default_rng(3)
        n = 200_000
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        for alpha, c in ((0.25, 0.5), (0.9, -0.9)):
            phi = TReLU(alpha)
            za = z1
            zb = c * z1 + math.sqrt(1 - c * c) * z2
            mc = float(np.mean(phi(za) * phi(zb)))
            assert lrelu_c_map(alpha, c) == pytest.approx(mc, abs=5e-3)


class TestLreluDerivative:
    def test_one_at_endpoint(self):
        for alpha in (0.0, 0.2, 0.9):
            assert lrelu_c_map_derivative(alpha, 1.0) == 1.0

    def test_relu_slope_vanishes_at_minus_one(self):
        assert lrelu_c_map_derivative(0.0, -1.0) == pytest.approx(0.0, abs=1e-14)

    def test_in_unit_interval(self):
        grid = np.linspace(-1, 1, 101)
        for alpha in (0.0, 0.4, 1.0):
            d = lrelu_c_map_derivative(alpha, grid)
            assert np.all(d >= -1e-14)
            assert np.all(d <= 1.0 + 1e-14)

    def test_matches_finite_differences(self):
        h = 1e-6
        for alpha in (0.0, 0.3, 0.75):
            for c in np.linspace(-0.99, 0.99, 21):
                fd = (lrelu_c_map(alpha, c + h) - lrelu_c_map(alpha, c - h)) / (2 * h)
                assert lrelu_c_map_derivative(alpha, c) == pytest.approx(fd, abs=1e-6)


class TestLocalQ:
    def test_trelu_preserves_q(self):
        for alpha in (0.0, 0.3, 0.9):
            p = LocalMapParams(TReLU(alpha))
            for q in (0.25, 1.0, 3.7):
                assert local_q(p, RULE, q) == pytest.approx(q, abs=1e-10)

    def test_identity(self):
        assert local_q(LocalMapParams(Identity()), RULE, 2.0) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_normalized_relu(self):
        # sqrt(2) max(x, 0): E[2 z^2 1(z>0)] = 1
        p = LocalMapParams(ReLU(), sigma_w=math.sqrt(2.0))
        assert local_q(p, RULE, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_sigma_scaling(self):
        p = LocalMapParams(Identity(), sigma_w=2.0, sigma_b=0.5)
        assert local_q(p, RULE, 1.0) == pytest.approx(4.0 + 0.25, abs=1e-12)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            local_q(LocalMapParams(Tanh()), RULE, 0.0)


class TestLocalC:
    def test_perfect_correlation(self):
        for act in (TReLU(0.4), Tanh(), SoftPlus()):
            p = LocalMapParams(act)
            assert local_c(p, RULE, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_trelu_matches_closed_form(self):
        p = LocalMapParams(TReLU(0.2))
        got = local_c(p, RULE, 0.5, 1.0, 1.0)
        assert got == pytest.approx(lrelu_c_map(0.2, 0.5), abs=1e-6)

    def test_trelu_matches_closed_form_on_grid(self):
        p = LocalMapParams(TReLU(0.35))
        for c in np.linspace(-0.95, 0.95, 9):
            assert local_c(p, RULE, c, 1.0, 1.0) == pytest.approx(
                lrelu_c_map(0.35, c), abs=1e-10
            )

    def test_tanh_uncorrelated(self):
        p = LocalMapParams(Tanh())
        assert local_c(p, RULE, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_c_zero_nonnegative_for_builtins(self):
        for act in (ReLU(), LReLU(0.3), TReLU(0.5), Tanh(), SoftPlus(), Identity()):
            p = LocalMapParams(act)
            assert local_c(p, RULE, 0.0, 1.0, 1.0) >= -1e-14

    def test_c_zero_equals_mean_squared_over_q(self):
        for act in (SoftPlus(), TReLU(0.4)):
            p = LocalMapParams(act)
            kinks = act.kinks()
            mean = RULE.expect(lambda z: act(z), kinks=kinks)
            q1 = RULE.expect(lambda z: act(z) ** 2, kinks=kinks)
            want = mean * mean / q1
            assert local_c(p, RULE, 0.0, 1.0, 1.0) == pytest.approx(want, abs=1e-12)


class TestDoublingConsistency:
    @pytest.mark.parametrize(
        "act", [ReLU(), LReLU(0.25), TReLU(0.6), Tanh(), SoftPlus(), Identity()]
    )
    def test_local_maps_stable_under_doubled_order(self, act):
        lo = QuadratureRule.gauss_hermite(60)
        hi = QuadratureRule.gauss_hermite(120)
        p = LocalMapParams(act)
        for q in (0.5, 1.0, 2.0):
            assert local_q(p, lo, q) == pytest.approx(local_q(p, hi, q), abs=1e-10)
        for c in (-0.9, 0.0, 0.7, 1.0):
            assert local_c(p, lo, c, 1.0, 2.0) == pytest.approx(
                local_c(p, hi, c, 1.0, 2.0), abs=1e-10
            )


class TestLocalCDerivative:
    def test_identity_slope_one(self):
        p = LocalMapParams(Identity())
        for c in (-0.5, 0.0, 0.9):
            assert local_c_derivative(p, RULE, c, 1.0, 1.0) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_slope_at_one_is_mean_squared_derivative(self):
        # normalized by Q(1); for tanh Q(1) != 1 so the factor matters
        act = Tanh()
        p = LocalMapParams(act)
        q1 = RULE.expect(lambda z: act(z) ** 2, kinks=(0.0,))
        want = RULE.expect(lambda z: act.deriv1(z) ** 2, kinks=(0.0,)) / q1
        assert local_c_derivative(p, RULE, 1.0, 1.0, 1.0) == pytest.approx(
            want, abs=1e-12
        )
        # with a unit-Q activation the slope is the plain second moment
        act2 = TReLU(0.4)
        p2 = LocalMapParams(act2)
        want2 = RULE.expect(lambda z: act2.deriv1(z) ** 2, kinks=act2.kinks())
        assert local_c_derivative(p2, RULE, 1.0, 1.0, 1.0) == pytest.approx(
            want2, abs=1e-10
        )

    def test_matches_finite_differences(self):
        p = LocalMapParams(Tanh())
        h = 1e-5
        for c in np.linspace(-0.9, 0.9, 7):
            fd = (
                local_c(p, RULE, c + h, 1.0, 1.0) - local_c(p, RULE, c - h, 1.0, 1.0)
            ) / (2 * h)
            assert local_c_derivative(p, RULE, c, 1.0, 1.0) == pytest.approx(
                fd, abs=1e-5
            )

    def test_second_derivative_matches_finite_differences(self):
        p = LocalMapParams(SoftPlus())
        h = 1e-4
        for c in (-0.5, 0.0, 0.5):
            fd = (
                local_c(p, RULE, c + h, 1.0, 1.0)
                - 2 * local_c(p, RULE, c, 1.0, 1.0)
                + local_c(p, RULE, c - h, 1.0, 1.0)
            ) / h**2
            assert local_c_derivative(p, RULE, c, 1.0, 1.0, order=2) == pytest.approx(
                fd, abs=1e-4
            )

    def test_order_two_rejected_for_kinked(self):
        p = LocalMapParams(TReLU(0.3))
        with pytest.raises(UnsupportedDerivativeError):
            local_c_derivative(p, RULE, 0.5, 1.0, 1.0, order=2)

    def test_order_three_rejected(self):
        with pytest.raises(UnsupportedDerivativeError):
            local_c_derivative(LocalMapParams(Tanh()), RULE, 0.5, 1.0, 1.0, order=3)

    @pytest.mark.parametrize("act, order", [(TReLU(0.3), 2), (Tanh(), 3)])
    @pytest.mark.parametrize("c, q", [(1.5, 1.0), (0.5, -1.0)])
    def test_unsupported_order_is_reported_before_the_domain(self, act, order, c, q):
        # the order checks come before the shared pair expectation's checks
        # of c and q
        with pytest.raises(UnsupportedDerivativeError):
            local_c_derivative(LocalMapParams(act), RULE, c, q, 1.0, order=order)


class TestGlobalC:
    def test_hundred_fold_composition(self):
        g = build_vanilla(100)
        alpha = 0.55
        c = 0.0
        for _ in range(100):
            c = lrelu_c_map(alpha, c)
        assert global_c(g, lambda x: lrelu_c_map(alpha, x), 0.0) == pytest.approx(
            c, abs=0
        )

    def test_one_is_fixed(self):
        for g in (build_vanilla(20), build_rescaled_resnet(4, 0.5)):
            assert global_c(g, lambda x: lrelu_c_map(0.3, x), 1.0) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_block_formula(self):
        w = 0.8
        g = build_rescaled_resnet(1, w, branch_nonlinear_count=1)
        r = lambda c: lrelu_c_map(0.1, c)
        for c in np.linspace(-1, 1, 21):
            assert global_c(g, r, c) == pytest.approx(
                w * w * c + (1 - w * w) * r(c), abs=1e-14
            )

    def test_relu_concentration_toward_one(self):
        c = 0.0
        for _ in range(100):
            c = lrelu_c_map(0.0, c)
        assert c > 0.99


class TestCStats:
    def test_identity(self):
        s = cstats(LocalMapParams(Identity()), RULE)
        assert s.q1 == pytest.approx(1.0, abs=1e-12)
        assert s.qp1 == pytest.approx(1.0, abs=1e-12)
        assert s.cp1 == pytest.approx(1.0, abs=1e-12)
        assert s.cpp1 == pytest.approx(0.0, abs=1e-12)
        assert s.c0 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 0.99])
    def test_trelu_normalization(self, alpha):
        s = cstats(LocalMapParams(TReLU(alpha)), RULE)
        assert s.q1 == pytest.approx(1.0, abs=1e-10)
        assert s.cp1 == pytest.approx(1.0, abs=1e-10)
        assert math.isinf(s.cpp1)
        assert s.c0 == pytest.approx(lrelu_c_map(alpha, 0.0), abs=1e-10)

    def test_tanh_statistics_match_direct_integrals(self):
        act = Tanh()
        s = cstats(LocalMapParams(act), RULE)
        assert s.q1 == pytest.approx(RULE.expect(lambda z: act(z) ** 2), abs=1e-13)
        assert s.qp1 == pytest.approx(
            RULE.expect(lambda z: act(z) * act.deriv1(z) * z), abs=1e-13
        )
        assert s.cp1 == pytest.approx(
            RULE.expect(lambda z: act.deriv1(z) ** 2), abs=1e-13
        )
        assert s.cpp1 == pytest.approx(
            RULE.expect(lambda z: act.deriv2(z) ** 2), abs=1e-13
        )
        assert s.c0 == pytest.approx(0.0, abs=1e-13)

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            CStats(c0=0.0, cp1=1.0, cpp1=0.0, q1=-1.0, qp1=1.0)
        with pytest.raises(ValueError):
            CStats(c0=2.0, cp1=1.0, cpp1=0.0, q1=1.0, qp1=1.0)


class TestBlockEquivalence:
    """A rescaled block with a plain leaky-ReLU branch reproduces the scaled
    leaky-ReLU local map when the shortcut weight is sqrt(2 alpha/(1+alpha^2))."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7])
    def test_correct_shortcut_weight(self, alpha):
        w = math.sqrt(2 * alpha / (1 + alpha * alpha))
        grid = np.linspace(-1, 1, 201)
        lhs = lrelu_c_map(alpha, grid)
        rhs = w * w * grid + (1 - w * w) * lrelu_c_map(0.0, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7])
    def test_uncorrected_weight_fails(self, alpha):
        w = math.sqrt(alpha / (1 + alpha * alpha))
        grid = np.linspace(-1, 1, 201)
        lhs = lrelu_c_map(alpha, grid)
        rhs = w * w * grid + (1 - w * w) * lrelu_c_map(0.0, grid)
        assert np.max(np.abs(lhs - rhs)) > 1e-12


class TestDeviationBounds:
    def test_trelu_map_and_slope_bounds(self):
        from qcmap import eval_U_with_derivative, solve_tat_lrelu

        grid = np.linspace(-1, 1, 201)
        for depth, eta in ((50, 0.9), (100, 0.95)):
            g = build_vanilla(depth)
            alpha = solve_tat_lrelu(g, eta).alpha
            r = lambda c: lrelu_c_map(alpha, c)
            rp = lambda c: lrelu_c_map_derivative(alpha, c)
            vals, grads = eval_U_with_derivative(g, r, rp, grid)
            c0 = eval_U(g, r, 0.0)
            bound_map = min(4 * c0, 1 + c0)
            bound_slope = min(4 * c0, 1.0)
            assert np.max(np.abs(vals - grid)) <= bound_map + 1e-9
            assert np.max(np.abs(grads - 1.0)) <= bound_slope + 1e-9


class TestLocalMapParams:
    @pytest.mark.parametrize(
        "kwargs", [{"sigma_w": math.nan}, {"sigma_b": math.nan},
                   {"sigma_w": math.inf}, {"sigma_b": -0.1}]
    )
    def test_non_finite_or_negative_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LocalMapParams(Tanh(), **kwargs)

    def test_zero_weight_and_bias_scales_rejected(self):
        # the layer's output is identically zero, so it has no C map
        for act in (Tanh(), ReLU()):
            with pytest.raises(ValueError, match="both be zero"):
                LocalMapParams(act, sigma_w=0.0, sigma_b=0.0)
        assert LocalMapParams(Tanh(), sigma_w=0.0, sigma_b=0.1).sigma_b == 0.1


@pytest.fixture(scope="module")
def solved_smooth():
    g = build_vanilla(50)
    return [solve_tat_smooth(g, Tanh(), 0.3).activation,
            solve_dks(g, SoftPlus(), 1.1).activation]


class TestKernelMap:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_series_matches_quadrature(self, case, solved_smooth):
        q1, q2, sw, sb = case
        for act in [Tanh(), SoftPlus(), Identity(), *solved_smooth]:
            p = LocalMapParams(act, sigma_w=sw, sigma_b=sb)
            k = kernel_map(p, q1, q2)
            assert k.route == "hermite"
            want = local_c(p, RULE_120, GRID, q1, q2)
            assert np.max(np.abs(k(GRID) - want)) <= 1e-10, act

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_arccos_matches_quadrature(self, case):
        q1, q2, sw, sb = case
        acts = [LReLU(a) for a in (0.0, 0.05, 0.5, -0.3, 2.0)] + [ReLU(), TReLU(0.4)]
        for act in acts:
            p = LocalMapParams(act, sigma_w=sw, sigma_b=sb)
            k = kernel_map(p, q1, q2)
            assert k.route == "arccos"
            want = local_c(p, RULE, GRID, q1, q2)
            assert np.max(np.abs(k(GRID) - want)) <= 1e-9, act

    def test_trelu_is_the_closed_form_exactly(self):
        k = kernel_map(LocalMapParams(TReLU(0.3)))
        assert np.array_equal(k(GRID), lrelu_c_map(0.3, GRID))
        assert k(0.25) == lrelu_c_map(0.3, 0.25)

    def test_kinked_transform_uses_quadrature(self):
        p = LocalMapParams(TransformedActivation(ReLU(), beta=0.3), sigma_b=0.2)
        k = kernel_map(p, 0.7, 2.3)
        assert k.route == "quadrature" and k.tail_bound is None
        assert np.array_equal(k(GRID), local_c(p, RULE, GRID, 0.7, 2.3))

    @pytest.mark.parametrize(
        "act", [TReLU(0.2), LReLU(0.3), Tanh(), TransformedActivation(ReLU(), beta=0.3)]
    )
    def test_shared_domain_rules(self, act):
        k = kernel_map(LocalMapParams(act))
        for c in (1.0 + 1e-9, -1.0 - 1e-9):
            with pytest.raises(DomainError):
                k(c)
            with pytest.raises(DomainError):
                k(np.array([0.0, c]))
        assert math.isnan(k(math.nan))
        assert np.isnan(k(np.array([math.nan]))).all()
        assert isinstance(k(0.5), float)
        assert k(1.0 + 1e-13) == pytest.approx(k(1.0), abs=1e-12)

    def test_rejects_nonpositive_q(self):
        for q1, q2 in ((0.0, 1.0), (1.0, -2.0)):
            with pytest.raises(DomainError):
                kernel_map(LocalMapParams(Tanh()), q1, q2)

    @pytest.mark.parametrize("q1, q2", [(4.0, 4.0), (9.0, 9.0), (4.0, 9.0)])
    def test_certificate_bounds_the_deviation(self, q1, q2):
        # at these input scales the series hits its term cap with a tail far
        # above the quadrature floor, so the bound is exercised, not vacuous
        p = LocalMapParams(Tanh(), sigma_b=0.1)
        k = kernel_map(p, q1, q2)
        dev = np.abs(k(GRID) - local_c(p, RULE_120, GRID, q1, q2))
        assert k.tail_bound > 1e-9
        assert np.max(dev) <= k.tail_bound + 1e-13
        if q1 == q2:
            # divided by its kept mass, the series is exact at c = 1
            assert dev[-1] <= 1e-15

    @pytest.mark.parametrize("act", [Tanh(), SoftPlus()])
    def test_hermite_jet(self, act):
        # coefficients of phi(alpha z + beta) against order-120 quadrature of
        # E[phi h_n] with numpy's He_n / sqrt(n!), and the analytic alpha,
        # beta columns against central differences of the coefficients
        alpha, beta, h = 0.8, -0.3, 1e-6
        jet = _hermite_jet(act, alpha, beta, RULE.order)
        for n in range(7):
            he_n = np.polynomial.hermite_e.HermiteE.basis(n)
            want = RULE_120.expect(
                lambda z: act.value(alpha * z + beta) * he_n(z) / math.sqrt(math.factorial(n))
            )
            assert jet[n, 0] == pytest.approx(want, abs=1e-12)
        a = lambda al, be: _hermite_jet(act, al, be, RULE.order)[:, 0]
        d_alpha = (a(alpha + h, beta) - a(alpha - h, beta)) / (2 * h)
        d_beta = (a(alpha, beta + h) - a(alpha, beta - h)) / (2 * h)
        assert np.max(np.abs(jet[:, 1] - d_alpha)) <= 1e-8
        assert np.max(np.abs(jet[:, 2] - d_beta)) <= 1e-8

    def test_certificates_of_the_exact_routes(self):
        assert kernel_map(LocalMapParams(LReLU(0.1))).tail_bound == 0.0
        k = kernel_map(LocalMapParams(SoftPlus()))
        dev = np.abs(k(GRID) - local_c(LocalMapParams(SoftPlus()), RULE_120, GRID, 1.0, 1.0))
        assert k.tail_bound <= 1e-14 and np.max(dev) <= k.tail_bound + 1e-13


def _bits(x):
    """The float64 bytes of x: equal only for bit-identical values, signed
    zeros and NaNs included."""
    return np.asarray(x, dtype=float).tobytes()


def _reference_arccos(params, q1, q2, c):
    """The arc-cosine route as one expression, a * C(c) + b, in numpy's
    wrappers (math's scalars for a Python float)."""
    phi = params.activation
    alpha, sw2, sb2 = phi.alpha, params.sigma_w**2, params.sigma_b**2
    m = phi.scale * phi.scale * (1.0 + alpha * alpha) / 2.0
    t1, t2 = sw2 * m * q1, sw2 * m * q2
    a = math.sqrt(t1 / (t1 + sb2) * (t2 / (t2 + sb2)))
    b = math.sqrt(sb2 / (t1 + sb2) * (sb2 / (t2 + sb2)))
    coef = (1.0 - alpha) ** 2 / (math.pi * (1.0 + alpha * alpha))
    if type(c) is float:
        x = min(max(c, -1.0), 1.0)
        return a * (x + coef * (math.sqrt(1.0 - x * x) - x * math.acos(x))) + b
    x = np.clip(np.asarray(c, dtype=float), -1.0, 1.0)
    out = x + coef * (np.sqrt(1.0 - x * x) - x * np.arccos(x))
    return a * out + b if out.ndim else a * float(out) + b


def _reference_hermite(params, q1, q2, c):
    """The Hermite route's truncated series summed by numpy's polyval."""
    phi, sw2, sb2 = params.activation, params.sigma_w**2, params.sigma_b**2
    a1, m1, r1 = _hermite_coefficients(phi, math.sqrt(q1), DEFAULT_QUAD_ORDER)
    a2, m2, r2 = _hermite_coefficients(phi, math.sqrt(q2), DEFAULT_QUAD_ORDER)
    n = int(np.argmax((r1 - max(r1[-1], 0.0) <= _HERMITE_RTOL * m1)
                      & (r2 - max(r2[-1], 0.0) <= _HERMITE_RTOL * m2)))
    if q1 == q2:
        denom = sw2 * float(np.dot(a1[: n + 1], a1[: n + 1])) + sb2  # the kept mass
    else:
        denom = math.sqrt((sw2 * m1 + sb2) * (sw2 * m2 + sb2))
    coef = sw2 * a1[: n + 1] * a2[: n + 1] / denom
    coef[0] += sb2 / denom
    out = np.polynomial.polynomial.polyval(np.clip(np.asarray(c, dtype=float), -1.0, 1.0),
                                           coef)
    return out if out.ndim else float(out)


# 0-d inputs of each kind, 1-d and 2-d arrays, NaN, and the clip at +-1
ROUTE_INPUTS = [0.25, -1.0, 1.0 + 1e-13, math.nan, np.float64(-0.6), np.asarray(0.7),
                np.float64(math.nan), GRID, GRID[:200].reshape(8, 25),
                np.array([math.nan, -1.0 - 1e-13, 0.0, -0.0, 0.5])]
# (q1, q2, sigma_w, sigma_b): sigma_b = 0 on and off the diagonal, and a bias
ROUTE_CASES = [(1.0, 1.0, 1.0, 0.0), (0.7, 2.3, 1.3, 0.0), (0.7, 2.3, 1.3, 0.4)]


class TestEvaluationCost:
    """The cheaper domain guard keeps every rule and every bit of the maps."""

    def test_clamp_unit_keeps_its_rules(self):
        assert math.isnan(_clamp_unit(math.nan, "t"))
        assert np.isnan(_clamp_unit(np.array([0.5, math.nan]), "t")[1])
        for c in (np.array([math.nan, 2.0]), [2.0, math.nan], [[math.nan], [-2.0]],
                  1.0 + 2e-12, -math.inf):
            with pytest.raises(DomainError, match="^t: "):
                _clamp_unit(c, "t")
        assert _clamp_unit(1.0 + 1e-12, "t") == 1.0
        assert _clamp_unit(-1.0 - 1e-12, "t") == -1.0
        for c in (0.5, np.float64(-0.5), np.asarray(0.5), 1, [0.1, -0.0],
                  np.array([1.0 + 1e-12, -0.3]), np.full((2, 3), -1.0 - 1e-13)):
            got = _clamp_unit(c, "t")
            want = np.clip(np.asarray(c, dtype=float), -1.0, 1.0)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("case", ROUTE_CASES)
    @pytest.mark.parametrize("route, acts, reference", [
        ("arccos", [TReLU(0.3), LReLU(-0.2), LReLU(0.77), LReLU(1.0), ReLU()],
         _reference_arccos),
        ("hermite", [Tanh(), SoftPlus()], _reference_hermite),
    ])
    def test_routes_match_the_one_expression_forms(self, case, route, acts, reference):
        q1, q2, sw, sb = case
        for act in acts:
            p = LocalMapParams(act, sigma_w=sw, sigma_b=sb)
            k = kernel_map(p, q1, q2)
            assert k.route == route
            for c in ROUTE_INPUTS:
                before = np.array(c, copy=True)
                got, want = k(c), reference(p, q1, q2, c)
                assert type(got) is type(want) and np.shape(got) == np.shape(want), (act, c)
                assert _bits(got) == _bits(want), (act, c)
                # the input is never a buffer of the evaluation
                assert _bits(c) == _bits(before)
