"""Tests for the infinite-depth ODE limit of the leaky-ReLU C map.

Oracles:
- [TRIVIAL] the right-hand side at x in {-1, 0, 1} has closed-form values
  pi, 1, and 0.
- [DERIVED] the lower bound rhs(x) >= (2 sqrt(2) / 3) (1 - x)^{3/2} on
  [-1, 1], checked pointwise on a dense grid, which forces finite-time
  arrival at any eta < 1.
- [DERIVED] step-halving consistency of the integrator; the small-eta
  expansion T = eta (1 + pi eta / 4) + O(eta^3) of the time to reach eta.
- [INDEPENDENT] the RK4 flow as the oracle for the quadrature time solver
  (psi(0, find_T(eta)) = eta), and the time to reach eta against test-local
  quadratures of dt = dx / f(x) in other variables and rules.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qcmap import (
    DomainError,
    UnattainableTargetError,
    find_T,
    integrate_psi,
    lrelu_c_map,
    ode_rhs,
    psi,
    verify_convergence,
)
from qcmap.ode_limit import _T_MAX, _rk4_states, _rk4_steps


class TestOdeRhs:
    def test_anchor_values(self):
        assert ode_rhs(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ode_rhs(0.0) == pytest.approx(1.0, abs=1e-15)
        assert ode_rhs(-1.0) == pytest.approx(math.pi, abs=1e-15)

    def test_positive_inside_interval(self):
        x = np.linspace(-1.0, 1.0, 1001)[:-1]
        assert np.all(ode_rhs(x) > 0.0)

    def test_lower_bound_near_equilibrium(self):
        # rhs(x) >= (2 sqrt(2) / 3) (1 - x)^{3/2}: guarantees finite-time
        # arrival at any level below 1
        x = np.linspace(-1.0, 1.0, 1001)
        bound = (2.0 * math.sqrt(2.0) / 3.0) * (1.0 - x) ** 1.5
        assert np.all(ode_rhs(x) >= bound - 1e-12)

    def test_array_broadcasting(self):
        x = np.array([[0.0, 1.0], [-1.0, 0.5]])
        out = ode_rhs(x)
        assert out.shape == (2, 2)
        assert out[0, 1] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            ode_rhs(1.5)


class TestPsi:
    def test_time_zero_is_identity(self):
        for c0 in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert psi(c0, 0.0) == c0

    def test_equilibrium_at_one(self):
        assert psi(1.0, 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_time(self):
        values = [psi(0.0, t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_approaches_one(self):
        # the approach is algebraic: 1 - psi ~ (9/2) t^{-2}
        value = psi(0.0, 50.0)
        assert value >= 0.998
        assert 1.0 - value == pytest.approx(4.5 / 50.0**2, rel=0.15)

    def test_dominates_comparison_solution(self):
        # integrating the lower bound exactly: 1 - x(t) <= (1/(x0_term + t/3))^2
        # with x0_term = (sqrt(2) (1 - c0)^{-1/2}) / 2 ... checked numerically
        # via the simpler statement psi(c0, t) >= flow of the bound
        c0, t = -0.5, 2.0
        k = 2.0 * math.sqrt(2.0) / 3.0
        # closed-form flow of dx/dt = k (1 - x)^{3/2}
        a0 = (1.0 - c0) ** -0.5
        lower = 1.0 - (a0 + 0.5 * k * t) ** -2.0
        assert psi(c0, t) >= lower - 1e-9

    def test_vectorized_initial_conditions(self):
        c = np.linspace(-1.0, 1.0, 11)
        out = psi(c, 1.0)
        assert out.shape == c.shape
        assert np.all(np.diff(out) >= -1e-12)  # flow preserves order

    def test_step_halving_consistency(self):
        # halving the step changes psi by O(h^4); require agreement to 1e-10
        *_, last = _rk4_states(0.0, *_rk4_steps(3.0))
        fine = psi(0.0, 3.0)
        # integrate with double the duration resolution by splitting in two
        mid = psi(0.0, 1.5)
        two_stage = psi(mid, 1.5)
        assert float(last) == fine
        assert two_stage == pytest.approx(fine, abs=1e-10)

    def test_array_flow_keeps_one_state(self):
        # 1000 steps of 2001 points: every state kept would be 16 MB
        c = np.linspace(-1.0, 1.0, 2001)
        tracemalloc.start()
        try:
            psi(c, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("T", [1e-9, 1e-4, 0.37, 1.0, 8.0, _T_MAX])
    def test_starts_next_to_the_ends_stay_inside_in_order(self, T):
        # no RK4 stage is clipped: each must stay within ode_rhs's 1e-12
        # tolerance of [-1, 1] on its own, from starts 1e-16 ... 1e-1 inside
        gaps = 10.0 ** -np.arange(1, 17)
        c = np.sort(np.concatenate([-1.0 + gaps, 1.0 - gaps, [-1.0, 0.0, 1.0]]))
        out = psi(c, T)
        assert np.all((-1.0 <= out) & (out <= 1.0))
        assert np.all(np.diff(out) >= 0.0)
        assert [psi(float(v), T) for v in c[::5]] == out[::5].tolist()


class TestIntegratePsi:
    def test_records_trajectory(self):
        sol = integrate_psi(0.0, 4.0)
        assert sol.times[0] == 0.0
        assert sol.times[-1] == pytest.approx(4.0)
        assert sol.states[0] == 0.0
        assert sol.final == pytest.approx(psi(0.0, 4.0), abs=1e-12)
        assert 500 <= len(sol.times) <= 2100
        assert all(a <= b for a, b in zip(sol.states, sol.states[1:]))

    def test_zero_duration(self):
        sol = integrate_psi(0.3, 0.0)
        assert sol.final == 0.3
        assert sol.step_size == 0.0
        assert sol.times == (0.0,) and sol.states == (0.3,)

    @pytest.mark.parametrize("c0, T, rows", [
        # (index, t, x) rows of the RK4 record; 1e-13 leaves room for other libms
        (0.0, find_T(0.9), [(1, 0.004509938135408464, 0.004494016332795024),
                            (500, 2.254969067704232, 0.7712920789976967),
                            (1000, 4.509938135408464, 0.8999999999999992)]),
        (0.2, 3.7, [(1, 0.0037, 0.20260525878658972),
                    (500, 1.8499999999999999, 0.7527867236106004),
                    (1000, 3.6999999999999997, 0.8803575556377423)]),
        (0.0, _T_MAX, [(1, 0.8500000000000001, 0.5018606947582996),
                       (500, 425.00000000000006, 0.9999753460690456),
                       (1000, 850.0000000000001, 0.9999938042030251)]),
    ])
    def test_recorded_rows_are_pinned(self, c0, T, rows):
        sol = integrate_psi(c0, T)
        assert len(sol.times) == len(sol.states) == 1001
        assert sol.step_size == pytest.approx(T / 10_000, rel=1e-15)
        for k, t, x in rows:
            assert sol.times[k] == pytest.approx(t, rel=1e-13)
            assert sol.states[k] == pytest.approx(x, rel=1e-13)

    def test_bad_c0_rejected(self):
        with pytest.raises(DomainError):
            integrate_psi(1.5, 1.0)

    @pytest.mark.parametrize(
        "c0, T",
        [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (0.0, -1.0), (2.0, 1.0)],
    )
    def test_non_finite_or_negative_inputs_rejected(self, c0, T):
        for f in (integrate_psi, psi):
            with pytest.raises(DomainError):
                f(c0, T)

    def test_longest_flow_meets_the_time_integral(self):
        # find_T is the oracle: each recorded row (t, x) from 0 must sit at
        # time find_T(x).  The step 1e-4 T grows with T, and the miss passes
        # 1e-6 from T ~ 893, so T = 850 is the longest flow served
        sol = integrate_psi(0.0, _T_MAX)
        miss = max(abs(find_T(x) - t) for t, x in zip(sol.times[1:], sol.states[1:]))
        assert miss <= 1e-6
        for f in (integrate_psi, psi):
            with pytest.raises(DomainError, match=r"T must lie in \[0, 850\]"):
                f(0.0, math.nextafter(_T_MAX, math.inf))

    def test_psi_rejects_one_bad_start_in_an_array(self):
        for bad in (2.0, math.nan):
            with pytest.raises(DomainError):
                psi(np.array([0.0, bad, 0.5]), 1.0)


class TestFindT:
    @pytest.mark.parametrize("eta", [0.01, 0.3, 0.5, 0.9, 0.99])
    def test_round_trip(self, eta):
        # the RK4 flow is the independent oracle for the quadrature
        T = find_T(eta)
        assert abs(psi(0.0, T) - eta) <= 1e-12

    @pytest.mark.parametrize("eta", [0.5, 0.9, 0.95, 0.99])
    def test_time_matches_quadrature_of_inverse_rhs(self, eta):
        # T(eta) = int_0^eta dx / f(x); in u = (1 - x)^(-1/2) the integrand
        # 2 u^-3 / f(1 - u^-2) stays bounded up to x = 1, so 100-point
        # Gauss-Legendre gives it to ~1e-14
        gx, gw = np.polynomial.legendre.leggauss(100)
        u_hi = (1.0 - eta) ** -0.5
        u = 1.0 + 0.5 * (u_hi - 1.0) * (gx + 1.0)
        x = 1.0 - u**-2
        f = np.sqrt(1.0 - x * x) - x * np.arccos(x)
        want = 0.5 * (u_hi - 1.0) * float(np.sum(gw * 2.0 * u**-3 / f))
        assert abs(find_T(eta) - want) <= 1e-8

    @pytest.mark.parametrize("eta", [1e-12, 1e-9])
    def test_small_eta_expansion(self, eta):
        # 1 / f(x) = 1 + (pi / 2) x + O(x^2), so T = eta + (pi / 4) eta^2 + O(eta^3)
        want = eta * (1.0 + 0.25 * math.pi * eta)
        assert abs(find_T(eta) - want) <= 1e-12 * want

    def test_near_one_against_log_variable_simpson(self):
        # in s = -ln(1 - x), dt = e^-s / f(1 - e^-s) ds; f = sin(th) - th cos(th)
        # with th = arccos(x), summed as its cancellation-free Taylor series
        # sum_k (-1)^(k+1) 2k th^(2k+1) / (2k+1)!, composite Simpson in s
        eta = 1.0 - 1e-8
        n = 4000
        s = np.linspace(0.0, -math.log(1.0 - eta), n + 1)
        eps = np.exp(-s)
        th = 2.0 * np.arcsin(np.sqrt(0.5 * eps))
        f = sum((-1) ** (k + 1) * 2 * k * th ** (2 * k + 1) / math.factorial(2 * k + 1)
                for k in range(1, 20))
        g = eps / f
        want = (s[1] - s[0]) / 3.0 * (g[0] + 4.0 * g[1:-1:2].sum()
                                      + 2.0 * g[2:-1:2].sum() + g[-1])
        assert want == pytest.approx(21210.97, rel=1e-6)
        assert abs(find_T(eta) - want) <= 1e-8 * want

    def test_tiny_eta_tiny_time(self):
        # rhs(0) = 1, so T ~ eta for small eta
        assert find_T(1e-6) <= 1.1e-6

    def test_monotone_in_eta(self):
        ts = [find_T(e) for e in (0.1, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.2])
    def test_eta_outside_open_interval_rejected(self, eta):
        with pytest.raises(DomainError):
            find_T(eta)


class TestVerifyConvergence:
    def test_deviation_shrinks_with_depth(self):
        grid = np.linspace(-1.0, 1.0, 101)
        out = verify_convergence(0.8, (20, 50, 200), grid)
        devs = [d.max_deviation for d in out]
        assert all(a >= b for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 0.01
        assert all(0.0 < d.alpha < 1.0 for d in out)

    def test_fixed_point_exactly_reproduced(self):
        # both the composed map and the flow leave c = 1 untouched
        out = verify_convergence(0.6, (10,), np.array([1.0]))
        assert out[0].max_deviation == pytest.approx(0.0, abs=1e-12)

    def test_unattainable_eta_at_small_depth_raises(self):
        with pytest.raises(UnattainableTargetError):
            verify_convergence(0.9, (10,), np.linspace(-1, 1, 11))

    def test_composed_map_interpretation(self):
        # a depth-d composition with the solved slope matches the flow it is
        # being compared against near c = 0 by construction of alpha
        out = verify_convergence(0.7, (100,), np.array([0.0]))
        assert out[0].max_deviation <= 5e-3
        alpha = out[0].alpha
        c = 0.0
        for _ in range(100):
            c = lrelu_c_map(alpha, c)
        assert c == pytest.approx(0.7, abs=1e-6)
