"""Tests for the transformation solvers and their numerical kit.

Oracles:
- [DERIVED] leaky-ReLU global map values via an inline arccosine-kernel
  composition written independently of the library code.
- [DERIVED] edge-of-chaos constants for tanh, frozen from a trapezoid-rule
  oracle on 400001 points (fixed point solved by damped iteration).
- [DERIVED] the textbook nested edge-of-chaos method (plain fixed-point
  iteration of q inside a bisection on sigma_w) on test-side order-120
  Gauss-Legendre nodes.
- [TRIVIAL] algebraic identities (slope of identity, zeta = m**L, etc.).
"""

import contextlib
import math

import numpy as np
import pytest

from qcmap import (
    BracketError,
    GraphValidationError,
    Identity,
    LReLU,
    LocalMapParams,
    NetworkGraph,
    Node,
    QuadratureRule,
    ReLU,
    SoftPlus,
    SolverFailure,
    Tanh,
    TReLU,
    TransformedActivation,
    UnattainableTargetError,
    UnsupportedDerivativeError,
    bisect,
    build_rescaled_resnet,
    build_vanilla,
    cstats,
    default_rule,
    eoc_lrelu,
    eval_M,
    find_T,
    local_c,
    solve_dks,
    solve_eoc_smooth,
    solve_nonlinear_system,
    solve_tat_lrelu,
    solve_tat_smooth,
)
from qcmap import kernel_maps, solvers
from qcmap.kernel_maps import DEFAULT_QUAD_ORDER
from qcmap.netgraph import AFFINE, INPUT, NONLINEAR, SUM
from qcmap.solvers import max_c_value

RULE = default_rule()


def oracle_lrelu_map(alpha, c):
    """Independent arccosine-kernel form of the rescaled leaky-ReLU C map."""
    k = (1.0 - alpha) ** 2 / (math.pi * (1.0 + alpha * alpha))
    return c + k * (math.sqrt(max(0.0, 1.0 - c * c)) - c * math.acos(min(1.0, max(-1.0, c))))


def oracle_vanilla_c0(alpha, depth):
    c = 0.0
    for _ in range(depth):
        c = oracle_lrelu_map(alpha, c)
    return c


def counted(f):
    """f, and the list of points at which it was evaluated."""
    points = []

    def wrapped(x):
        points.append(x)
        return f(x)

    return wrapped, points


def halving_evaluations(f, lo, hi, tol=1e-10):
    """Evaluations plain halving makes, with bisect's stopping rules: the
    reference for its halving guard."""
    f_lo, evaluations = f(lo), 2
    if abs(f_lo) <= tol or abs(f(hi)) <= tol:
        return evaluations
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        evaluations += 1
        if abs(f_mid) <= tol or hi - lo <= 1e-14:
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return evaluations


class TestBisect:
    def test_finds_cosine_root(self):
        assert bisect(math.cos, 0.0, 2.0) == pytest.approx(math.pi / 2, abs=1e-9)

    @pytest.mark.parametrize("f, lo, hi, root, most", [
        (math.cos, 0.0, 2.0, math.pi / 2, 9),  # plain halving: 33
        (lambda x: 1.0 - x * x, 0.0, 5.0, 1.0, 14),  # plain halving: 38
    ])
    def test_superlinear_evaluation_count(self, f, lo, hi, root, most):
        g, points = counted(f)
        assert bisect(g, lo, hi) == pytest.approx(root, abs=1e-10)
        assert len(points) <= most

    @pytest.mark.parametrize("k, r", [(10, 0.3), (30, 0.8)])
    def test_halving_guard_on_a_convex_residual(self, k, r):
        # x^k - r^k keeps false position on one side of the root, and the
        # Anderson-Bjorck factor 1 - f(c)/f(b) nears 0 there: unguarded, it
        # spends all 200 steps short of the root
        f = lambda x: x**k - r**k
        g, points = counted(f)
        root = bisect(g, 0.0, 1.0)
        assert abs(f(root)) <= 1e-10
        assert len(points) <= 3 * halving_evaluations(f, 0.0, 1.0)

    def test_halving_guard_on_a_dyadic_root(self):
        # plain halving lands on 0.5 at its first midpoint (3 evaluations)
        g, points = counted(lambda x: x**10 - 0.5**10)
        assert bisect(g, 0.0, 1.0) == pytest.approx(0.5, abs=1e-8)
        assert len(points) <= 12

    def test_infinite_end_value(self):
        # an overflowing residual (DKS's global slope on a deep chain) makes
        # the false-position point NaN: that step halves instead
        f = lambda x: math.inf if x > 1.0 else x - 0.5
        assert bisect(f, 0.0, 2.0) == pytest.approx(0.5, abs=1e-10)

    def test_unreachable_tolerance_closes_the_bracket(self):
        # cos has no float root, so |f| <= 0 never holds: the steps next to
        # the root close the bracket instead of halving it down to 1e-14
        g, points = counted(math.cos)
        assert bisect(g, 0.0, 2.0, tol=0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert len(points) <= 10  # plain halving: 51

    def test_exact_root_at_endpoint(self):
        assert bisect(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert bisect(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_decreasing_function(self):
        assert bisect(lambda x: 1.0 - x * x, 0.0, 5.0) == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_within_tol_needs_no_sign_change(self):
        # |f| <= tol at an end meets the contract without a bracket
        assert bisect(lambda x: x + 1e-12, 0.0, 1.0, tol=1e-10) == 0.0
        assert bisect(lambda x: x - 1.0 - 1e-12, 0.0, 1.0, tol=1e-10) == 1.0


class TestSolveNonlinearSystem:
    def test_two_dimensional_root(self):
        def F(v):
            x, y = v
            return np.array([x * x + y - 3.0, x + y * y - 5.0])

        def jac(v):
            x, y = v
            return np.array([[2.0 * x, 1.0], [1.0, 2.0 * y]])

        root = solve_nonlinear_system(F, (1.0, 1.0), jac=jac)
        assert np.max(np.abs(F(root))) <= 1e-10
        # the root with x, y > 0 is (1, 2)
        assert root == pytest.approx([1.0, 2.0], abs=1e-10)

    def test_linear_system_one_step(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        root = solve_nonlinear_system(lambda v: A @ v - b, (0.0, 0.0), jac=lambda v: A)
        assert root == pytest.approx(np.linalg.solve(A, b), abs=1e-9)

    def test_analytic_jacobian_finds_the_same_root(self):
        def F(v):
            x, y = v
            return np.array([x * x + y - 3.0, x + y * y - 5.0])

        def jac(v):
            x, y = v
            return np.array([[2.0 * x, 1.0], [1.0, 2.0 * y]])

        def fd_jac(v, h=1e-6):
            # central differences, independent of the analytic form
            cols = []
            for j in range(len(v)):
                step = np.zeros(len(v))
                step[j] = h
                cols.append((F(v + step) - F(v - step)) / (2 * h))
            return np.column_stack(cols)

        by_fd = solve_nonlinear_system(F, (1.0, 1.0), jac=fd_jac)
        by_jac = solve_nonlinear_system(F, (1.0, 1.0), jac=jac)
        assert by_jac == pytest.approx(by_fd, abs=1e-9)
        assert np.max(np.abs(F(by_jac))) <= 1e-10

    def test_slow_progress_is_refused(self):
        # x^2 + 0.01 has no root: ||F|| creeps towards 0.01 and stops
        # halving long before the line search stalls (320 evaluations)
        g, points = counted(lambda v: np.array([v[0] ** 2 + 0.01]))
        with pytest.raises(SolverFailure, match="has not halved") as exc:
            solve_nonlinear_system(g, (10.0,), jac=lambda v: np.array([[2.0 * v[0]]]))
        assert len(points) <= 60
        assert exc.value.residual == pytest.approx([0.01], abs=1e-3)
        assert len(exc.value.last_iterate) == 1

    @pytest.mark.parametrize("solve, target", [(solve_dks, 10.0), (solve_tat_smooth, 15.0)])
    def test_transform_refusal_is_bounded(self, monkeypatch, solve, target):
        # one layer asked for C'(1) = 10 or C''(1) = 15: Newton cannot reach
        # the moments and is refused after a few iterations, not when the
        # line search stalls (1 496 and 4 130 residuals)
        evaluations = []

        def counting(F, x0, jac):
            g, points = counted(F)
            evaluations.append(points)
            return solve_nonlinear_system(g, x0, jac=jac)

        monkeypatch.setattr(solvers, "solve_nonlinear_system", counting)
        with pytest.raises(SolverFailure, match="moment system unsolved.*has not halved"):
            solve(build_vanilla(1), Tanh(), target)
        assert len(evaluations) == 1 and len(evaluations[0]) <= 80

    def test_stalled_search_raises(self):
        # gradient is zero everywhere except the (unreachable) minimum
        with pytest.raises(SolverFailure):
            solve_nonlinear_system(
                lambda v: np.array([1.0 + 0.0 * v[0]]), (0.0,),
                jac=lambda v: np.zeros((1, 1)),
            )


class TestMaxCValue:
    @pytest.mark.parametrize("depth", [1, 2, 3, 10, 13])
    def test_vanilla_matches_inline_composition(self, depth):
        g = build_vanilla(depth)
        for alpha in (0.0, 0.25, 0.6):
            assert max_c_value(g, alpha) == pytest.approx(
                oracle_vanilla_c0(alpha, depth), abs=1e-12
            )

    def test_relu_depth_values(self):
        # frozen iterates of the relu arccosine map starting from 0
        g = lambda L: max_c_value(build_vanilla(L), 0.0)
        assert g(1) == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert g(10) == pytest.approx(0.8715355160, abs=1e-9)
        assert g(13) == pytest.approx(0.9070988508, abs=1e-9)

    def test_decreasing_in_alpha(self):
        g = build_vanilla(6)
        values = [max_c_value(g, a) for a in (0.0, 0.2, 0.5, 0.8, 0.99)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert max_c_value(g, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestSolveTatLrelu:
    def test_vanilla_round_trip(self):
        g = build_vanilla(5)
        sol = solve_tat_lrelu(g, 0.5)
        assert 0.0 < sol.alpha < 1.0
        assert sol.achieved_eta == pytest.approx(0.5, abs=1e-6)
        assert oracle_vanilla_c0(sol.alpha, 5) == pytest.approx(0.5, abs=1e-6)

    def test_deep_vanilla_high_eta(self):
        sol = solve_tat_lrelu(build_vanilla(13), 0.9)
        assert oracle_vanilla_c0(sol.alpha, 13) == pytest.approx(0.9, abs=1e-6)

    def test_resnet_round_trip(self):
        g = build_rescaled_resnet(4, 0.8)
        # the 3-layer branch dominates: max eta is 0.6048 at alpha = 0
        assert max_c_value(g, 0.0) == pytest.approx(0.6048257201, abs=1e-9)
        sol = solve_tat_lrelu(g, 0.55)
        assert max_c_value(g, sol.alpha) == pytest.approx(0.55, abs=1e-6)

    def test_unattainable_eta_raises_with_max_value(self):
        g = build_vanilla(10)
        with pytest.raises(UnattainableTargetError) as exc:
            solve_tat_lrelu(g, 0.9)
        assert "unattainable target; max C_f(0)=" in str(exc.value)
        assert exc.value.max_value == pytest.approx(0.8715355160, abs=1e-9)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.3, 1.5])
    def test_eta_outside_open_interval_rejected(self, eta):
        with pytest.raises(ValueError):
            solve_tat_lrelu(build_vanilla(3), eta)

    def test_determinism(self):
        g = build_vanilla(7)
        assert solve_tat_lrelu(g, 0.6) == solve_tat_lrelu(g, 0.6)

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("graph", [
        build_vanilla(10), build_vanilla(200), build_rescaled_resnet(50, 0.5),
        build_rescaled_resnet(25, 0.3, with_transitions=True),
    ])
    def test_residual_count(self, graph, eta):
        # plain halving on [0, 1] took 19-23 residuals, one eval_M pass
        # each, and false position on [0, 1] 5-12; from the depth-limit
        # slope these cases take 4-5
        sol = solve_tat_lrelu(graph, eta)
        assert max_c_value(graph, sol.alpha) == pytest.approx(eta, abs=1e-6)
        assert sol.bisection_iterations <= 5

    @pytest.mark.parametrize("graph, eta", [(build_vanilla(10), 0.5),
                                            (build_rescaled_resnet(5, 0.5), 0.3)])
    def test_one_pass_per_residual(self, monkeypatch, graph, eta):
        # one curvature pass for the depth-limit start, then one pass per
        # alpha: achieved_eta reuses the pass at the returned alpha, which
        # bisect has evaluated
        passes = []
        monkeypatch.setattr(solvers, "eval_M", lambda *a: passes.append(a) or eval_M(*a))
        sol = solve_tat_lrelu(graph, eta)
        assert len(passes) == sol.bisection_iterations + 1
        monkeypatch.undo()
        assert sol.achieved_eta == max_c_value(graph, sol.alpha)

    @pytest.mark.parametrize("graph, eta", [
        (build_vanilla(1), 0.2), (build_vanilla(2), 0.3), (build_vanilla(5), 0.7),
        (build_rescaled_resnet(4, 0.8), 0.5),
    ])
    def test_start_far_from_the_root_widens(self, graph, eta):
        # on shallow graphs the depth-limit slope misses by more than the
        # first bracket's half-width 0.02, below the root on the chains and
        # above it on the resnet; widening still lands within 1e-6
        m = eval_M(graph, lambda x: 1.0 + x, 0.0)
        alpha0 = solvers._depth_limit_slope(m, eta)
        sol = solve_tat_lrelu(graph, eta)
        assert abs(alpha0 - sol.alpha) > 0.02
        assert max_c_value(graph, sol.alpha) == pytest.approx(eta, abs=1e-6)
        assert sol.bisection_iterations <= 6

    @pytest.mark.parametrize("graph, excess", [
        (build_vanilla(10), 1e-3), (build_vanilla(3), 1e-7),
        (build_rescaled_resnet(4, 0.8), 1e-3),
    ])
    def test_unattainable_keeps_its_envelope(self, graph, excess):
        # on the resnet the start lies above 0 (0.059), so the bracket widens
        # down to alpha = 0 first; max_value is the pass at 0 bit for bit
        reach = max_c_value(graph, 0.0)
        with pytest.raises(UnattainableTargetError) as exc:
            solve_tat_lrelu(graph, reach + excess)
        assert exc.value.max_value == reach
        assert str(exc.value) == (
            f"unattainable target; max C_f(0)={reach:.10g} < eta={reach + excess}")

    def test_depth_limit_slope(self):
        # coef(alpha0) = T(eta) / m, and 0 where the limit cannot reach eta
        for m, eta in ((50.0, 0.9), (200.0, 0.5), (112.5, 0.99)):
            alpha0 = solvers._depth_limit_slope(m, eta)
            coef = (1.0 - alpha0) ** 2 / (math.pi * (1.0 + alpha0 ** 2))
            assert coef == pytest.approx(find_T(eta) / m, rel=1e-12)
        assert solvers._depth_limit_slope(1.0, 0.5) == 0.0

    def test_invalid_graph_reported_after_eta(self):
        # the graph is validated once, when eval_M compiles it, so a bad
        # eta is reported first and a good one reaches the graph error
        nodes = (Node(0, INPUT), Node(1, AFFINE), Node(2, NONLINEAR),
                 Node(3, SUM, (0.5, 0.5)))
        g = NetworkGraph(nodes, ((), (0,), (1,), (0, 2)), 3)
        with pytest.raises(ValueError, match="eta must lie"):
            solve_tat_lrelu(g, 1.5)
        with pytest.raises(GraphValidationError, match="unnormalized sum"):
            solve_tat_lrelu(g, 0.5)
        with pytest.raises(GraphValidationError, match="unnormalized sum"):
            solve_tat_smooth(g, Tanh(), 0.3)
        with pytest.raises(GraphValidationError, match="unnormalized sum"):
            solve_dks(g, SoftPlus(), 1.5)


class TestHermiteMoments:
    def test_gradients_match_central_differences(self):
        # an independent check of the solvers' analytic Jacobian: every row,
        # with a_0 != 0 as TAT's free delta leaves it
        n = solvers._N.size
        a = np.random.default_rng(7).normal(size=n) * 0.8 ** np.arange(n)
        a[0] = 0.4
        _, grad = solvers._moments(a)
        h = 1e-6
        fd = np.empty_like(grad)
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            fd[:, j] = (solvers._moments(a + step)[0] - solvers._moments(a - step)[0]) / (2 * h)
        assert grad == pytest.approx(fd, abs=1e-7, rel=1e-6)


def transformed_stats(sol, order=120):
    rule = QuadratureRule.gauss_hermite(order)
    return cstats(LocalMapParams(sol.activation), rule)


class TestSolveTatSmooth:
    @pytest.mark.parametrize("tau", [0.2, 0.3, 0.5])
    @pytest.mark.parametrize("base", [SoftPlus(), Tanh()])
    def test_moment_round_trip_vanilla(self, base, tau):
        depth = 8
        sol = solve_tat_smooth(build_vanilla(depth), base, tau)
        assert sol.residual_norm <= 1e-8
        assert sol.target_local_cpp1 == pytest.approx(tau / depth, abs=1e-13)
        s = transformed_stats(sol)
        assert s.q1 == pytest.approx(1.0, abs=1e-8)
        assert s.qp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cpp1 == pytest.approx(tau / depth, abs=1e-8)

    def test_resnet_curvature_budget(self):
        # curvature accumulates as max(branch depth, total * (1 - w^2))
        g = build_rescaled_resnet(10, 0.5)
        m = eval_M(g, lambda x: 1.0 + x, 0.0)
        assert m == pytest.approx(max(3.0, 30.0 * 0.75), abs=1e-12)
        sol = solve_tat_smooth(g, SoftPlus(), 0.3)
        assert sol.target_local_cpp1 == pytest.approx(0.3 / m, abs=1e-13)

    def test_shortcut_dominated_resnet(self):
        g = build_rescaled_resnet(10, 0.99)
        m = eval_M(g, lambda x: 1.0 + x, 0.0)
        assert m == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("local", [0.01, 0.2])
    @pytest.mark.parametrize("graph", [
        build_vanilla(10), build_vanilla(100), build_rescaled_resnet(5, 0.3),
        build_rescaled_resnet(25, 0.95, with_transitions=True, final_nonlinear=True),
    ])
    @pytest.mark.parametrize("base", [SoftPlus(), Tanh()])
    def test_converges_from_the_first_start(self, monkeypatch, base, graph, local):
        # the ends of the benchmark's local C''(1) range
        calls = []

        def counting(F, x0, **kwargs):
            calls.append(tuple(x0))
            return solve_nonlinear_system(F, x0, **kwargs)

        monkeypatch.setattr(solvers, "solve_nonlinear_system", counting)
        tau = local * eval_M(graph, lambda x: 1.0 + x, 0.0)
        sol = solve_tat_smooth(graph, base, tau)
        assert len(calls) == 1
        s = transformed_stats(sol)
        assert s.qp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cpp1 == pytest.approx(local, abs=1e-8)

    def test_tanh_keeps_negative_beta(self):
        # tanh is odd, so (alpha, -beta, gamma, -delta) solves too; the
        # solver keeps the beta < 0 branch
        sol = solve_tat_smooth(build_vanilla(50), Tanh(), 0.3)
        assert sol.beta == pytest.approx(-0.5258489, abs=1e-6)

    def test_sharp_transform_is_certified_or_refused(self):
        # local C''(1) = 0.5 makes softplus sharp enough that the degree-150
        # series misses the moments by ~2e-7: the answer must meet the
        # order-120 oracle to 1e-8 or be refused, never returned unchecked
        try:
            sol = solve_tat_smooth(build_vanilla(10), SoftPlus(), 5.0)
        except SolverFailure as err:
            assert "miss their targets" in str(err)
            assert len(err.last_iterate) == 4
            return
        s = transformed_stats(sol)
        assert s.q1 == pytest.approx(1.0, abs=1e-8)
        assert s.qp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cpp1 == pytest.approx(0.5, abs=1e-8)

    def test_non_smooth_base_rejected(self):
        with pytest.raises(UnsupportedDerivativeError):
            solve_tat_smooth(build_vanilla(3), ReLU(), 0.3)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_tau_rejected(self, tau):
        with pytest.raises(ValueError):
            solve_tat_smooth(build_vanilla(3), Tanh(), tau)

    def test_graph_without_nonlinear_node_refused(self):
        # as in TAT-lrelu: the curvature budget m is 0, so no C''(1) meets it
        g = NetworkGraph((Node(0, INPUT), Node(1, AFFINE)), ((), (0,)), 1)
        with pytest.raises(ValueError, match="graph has no nonlinear node"):
            solve_tat_smooth(g, Tanh(), 0.3)
        # a bad tau is refused first, and an invalid graph is reported as such
        with pytest.raises(ValueError, match="tau must be positive"):
            solve_tat_smooth(g, Tanh(), 0.0)
        dangling = NetworkGraph((Node(0, INPUT), Node(1, AFFINE), Node(2, AFFINE)),
                                ((), (0,), (0,)), 1)
        with pytest.raises(GraphValidationError):
            solve_tat_smooth(dangling, Tanh(), 0.3)


class TestSolveDks:
    @pytest.mark.parametrize("base", [SoftPlus(), Tanh()])
    def test_moment_round_trip_vanilla(self, base):
        depth = 6
        sol = solve_dks(build_vanilla(depth), base, 1.5)
        assert sol.residual_norm <= 1e-8
        # slope composes multiplicatively through a chain
        assert sol.target_local_cp1 == pytest.approx(1.5 ** (1.0 / depth), abs=1e-10)
        s = transformed_stats(sol)
        assert s.q1 == pytest.approx(1.0, abs=1e-8)
        assert s.qp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cp1 == pytest.approx(sol.target_local_cp1, abs=1e-8)
        assert s.c0 == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("base", [SoftPlus(), Tanh()])
    def test_moment_round_trip_resnet_with_transitions(self, base):
        g = build_rescaled_resnet(10, 0.5, with_transitions=True, final_nonlinear=True)
        sol = solve_dks(g, base, 2.0)
        assert sol.residual_norm <= 1e-8
        m = sol.target_local_cp1
        assert eval_M(g, lambda x: m * x, 1.0) == pytest.approx(2.0, abs=1e-10)
        s = transformed_stats(sol)
        assert s.q1 == pytest.approx(1.0, abs=1e-8)
        assert s.qp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cp1 == pytest.approx(m, abs=1e-8)
        assert s.c0 == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("graph, zeta", [
        (build_vanilla(87), 5778.55),
        (build_rescaled_resnet(25, 0.851568, with_transitions=True,
                               final_nonlinear=True), 20.4677),
    ])
    def test_softplus_converges_from_the_first_start(self, monkeypatch, graph, zeta):
        # the quadrature Newton needed a second start on these requests
        calls = []

        def counting(F, x0, **kwargs):
            calls.append(tuple(x0))
            return solve_nonlinear_system(F, x0, **kwargs)

        monkeypatch.setattr(solvers, "solve_nonlinear_system", counting)
        sol = solve_dks(graph, SoftPlus(), zeta)
        assert len(calls) == 1
        s = transformed_stats(sol)
        assert s.qp1 == pytest.approx(1.0, abs=1e-8)
        assert s.cp1 == pytest.approx(sol.target_local_cp1, abs=1e-8)

    def test_tanh_keeps_negative_beta(self):
        # tanh is odd, so (alpha, -beta, gamma, -delta) solves too; the
        # solver keeps the beta < 0 branch
        sol = solve_dks(build_vanilla(50), Tanh(), 1.5)
        assert sol.beta == pytest.approx(-0.5707795, abs=1e-6)

    def test_sharp_transform_is_certified_or_refused(self):
        # C'(1) = 2 makes tanh sharp enough that the degree-150 series
        # misses the moments by ~1e-6: the answer must meet the order-120
        # oracle or be refused, never returned unchecked
        g = build_vanilla(2)
        try:
            sol = solve_dks(g, Tanh(), 4.0)
        except SolverFailure as err:
            assert "miss their targets" in str(err)
            return
        s = transformed_stats(sol)
        assert s.qp1 == pytest.approx(1.0, abs=1e-6)
        assert s.cp1 == pytest.approx(2.0, abs=1e-6)
        assert s.c0 == pytest.approx(0.0, abs=1e-6)

    def test_refusal_builds_no_nodes_past_the_certificate(self, monkeypatch):
        # one order-60 solve and one order-120 certificate: a refusal builds
        # no node set of a higher order
        for cached in (kernel_maps._hermite_basis, kernel_maps._piecewise_1d,
                       kernel_maps._leggauss):
            cached.cache_clear()
        built, leggauss = [], kernel_maps._leggauss
        monkeypatch.setattr(kernel_maps, "_leggauss",
                            lambda order: built.append(order) or leggauss(order))
        with pytest.raises(SolverFailure, match="quadrature order 120 "):
            solve_dks(build_vanilla(2), Tanh(), 4.0)
        assert built and max(built) <= 120

    def test_global_map_hits_targets(self):
        depth = 6
        sol = solve_dks(build_vanilla(depth), SoftPlus(), 1.5)
        rule = QuadratureRule.gauss_hermite(120)
        p = LocalMapParams(sol.activation)
        # C_f(0) = 0 because the local map sends 0 to 0
        c = 0.0
        for _ in range(depth):
            c = local_c(p, rule, c, 1.0, 1.0)
        assert c == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("zeta", [1.01, 2.0, 20.0, 5778.55])
    @pytest.mark.parametrize("graph", [
        build_vanilla(87), build_vanilla(200), build_rescaled_resnet(50, 0.5),
        build_rescaled_resnet(25, 0.3, with_transitions=True),
    ])
    def test_slope_passes(self, monkeypatch, graph, zeta):
        # log M(e^u) is linear on a chain and close to it on a resnet; the
        # slope took 42-54 eval_M passes by halving.  zeta = 5778.55 makes
        # vanilla:200's M overflow over most of the bracket
        passes = []
        monkeypatch.setattr(solvers, "eval_M", lambda *a: passes.append(a) or eval_M(*a))
        m = solve_dks(graph, SoftPlus(), zeta).target_local_cp1
        assert len(passes) <= 16
        # |M - zeta| <= 1e-12 at zeta near 1; at large zeta one ulp of m
        # moves M by far more than 1e-12 (3e-10 on vanilla:87 at 5778.55)
        assert abs(eval_M(graph, lambda x: m * x, 1.0) - zeta) <= 1e-12 * zeta

    @pytest.mark.parametrize("zeta", [1.01, 1.5, 2.0, 20.0, 731.0, 5778.55])
    @pytest.mark.parametrize("graph", [
        build_vanilla(2), build_vanilla(5), build_vanilla(87), build_vanilla(200),
        build_rescaled_resnet(50, 0.5), build_rescaled_resnet(25, 0.3, with_transitions=True),
    ])
    def test_slope_meets_its_relative_bound(self, monkeypatch, graph, zeta):
        # |M - zeta| <= max(1e-12, 1e-14 L zeta), L the nonlinear-node count:
        # one ulp of m moves M = m^L by about L zeta 1.1e-16, so 1e-12 alone
        # is out of reach from zeta of a few hundred (vanilla:87 at 5778.55
        # misses by 1.2e-9).  The slope is checked whether or not the
        # transform for it is certified
        targets, solve = [], solvers._solve_transform
        monkeypatch.setattr(solvers, "_solve_transform",
                            lambda *a: targets.append(a[2][1]) or solve(*a))
        with contextlib.suppress(SolverFailure):
            solve_dks(graph, Tanh(), zeta)
        M = eval_M(graph, lambda x: targets[0] * x, 1.0)
        assert abs(M - zeta) <= max(1e-12, 1e-14 * graph.nonlinear_count() * zeta)

    @pytest.mark.parametrize("solve, target", [(solve_dks, 1.5), (solve_tat_smooth, 0.3)])
    def test_certificate_builds_no_hermite_table(self, solve, target):
        # the certificate reads only the order-120 nodes: the one Hermite
        # table a certified solve builds is the order-60 one of its Newton
        kernel_maps._hermite_basis.cache_clear()
        solve(build_vanilla(5), Tanh(), target)
        info = kernel_maps._hermite_basis.cache_info()
        assert info.currsize == 1
        kernel_maps._hermite_basis(DEFAULT_QUAD_ORDER)
        assert kernel_maps._hermite_basis.cache_info().hits == info.hits + 1

    @pytest.mark.parametrize("zeta", [3.0, 20.0, 5778.55])
    def test_top_of_the_bracket(self, monkeypatch, zeta):
        # on vanilla:1 the root m = zeta is the bracket's top end, which
        # bisect evaluates at exp(log zeta).  At 5778.55 that is an ulp off
        # zeta, which left no sign change and a BracketError reporting 0.0
        # at m = zeta; m = zeta itself answers there now, and elsewhere m
        # stays exp(log zeta).  Tanh cannot reach C'(1) = zeta, so each ends
        # in a refusal of the transform
        targets, solve = [], solvers._solve_transform
        monkeypatch.setattr(solvers, "_solve_transform",
                            lambda *a: targets.append(a[2][1]) or solve(*a))
        with pytest.raises(SolverFailure):
            solve_dks(build_vanilla(1), Tanh(), zeta)
        assert targets == [zeta if zeta == 5778.55 else math.exp(math.log(zeta))]

    def test_zeta_not_above_one_rejected(self):
        with pytest.raises(ValueError):
            solve_dks(build_vanilla(3), Tanh(), 1.0)

    def test_non_smooth_base_rejected(self):
        with pytest.raises(UnsupportedDerivativeError):
            solve_dks(build_vanilla(3), ReLU(), 1.5)


def _oracle_nodes(order=120, trunc=12.0):
    """Gauss-Legendre nodes on [-trunc, 0] and [0, trunc], density folded in."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    for a, b in ((-trunc, 0.0), (0.0, trunc)):
        x = 0.5 * (a + b) + 0.5 * (b - a) * gx
        xs.append(x)
        ws.append(0.5 * (b - a) * gw * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
    return np.concatenate(xs), np.concatenate(ws)


EOC_X, EOC_W = _oracle_nodes()


def oracle_eoc_sigma_w(phi, sigma_b):
    """The textbook nested method: q* by plain iteration of the q map from
    q = 1 at each trial sigma_w, and bisection of sigma_w on C'(1) = 1."""

    def slope(sigma_w):
        q = 1.0
        for _ in range(100000):
            q_new = sigma_w**2 * (EOC_W @ phi.value(math.sqrt(q) * EOC_X) ** 2) + sigma_b**2
            if abs(q_new - q) <= 1e-15 * max(1.0, q_new):
                break
            q = q_new
        else:
            raise AssertionError("q iteration did not settle")
        return sigma_w**2 * (EOC_W @ phi.deriv1(math.sqrt(q_new) * EOC_X) ** 2)

    lo, hi = 0.5, 4.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 1.0 else (lo, mid)
    return 0.5 * (lo + hi)


def eoc_misses(sol, phi):
    """|C'(1) - 1| and the relative miss of Q(q*) = q* on the oracle nodes."""
    q, sw2 = sol.q_fixed_point, sol.sigma_w**2
    a = EOC_W @ phi.value(math.sqrt(q) * EOC_X) ** 2
    b = EOC_W @ phi.deriv1(math.sqrt(q) * EOC_X) ** 2
    return abs(sw2 * b - 1.0), abs(sw2 * a + sol.sigma_b**2 - q) / max(1.0, q)


TRANSFORMED_TANH = TransformedActivation(Tanh(), 1.7, 0.3, 1.2, -0.1)


class TestNewtonIterates:
    # the Hermite jet and the moments of an iterate serve its residuals, the
    # Jacobian Newton takes there and the returned transform
    CASES = [
        (solve_tat_smooth, build_vanilla(50), Tanh(), 0.3,
         (0.08165523587370946, -0.5258489448021714, 15.941633503382977,
          0.4831889550303851, 0.006)),
        (solve_tat_smooth,
         build_rescaled_resnet(8, 0.5, with_transitions=True, final_nonlinear=True),
         SoftPlus(), 0.3,
         (0.3411273339792658, 0.5476787533195923, 4.617027745967283,
          -0.9986475297522609, 0.015000000000000005)),
        (solve_dks, build_vanilla(50), SoftPlus(), 1.5,
         (0.32662517297831484, 0.4093739680012246, 5.094842893486161,
          -0.9312843021232486, 1.0081422716124293)),
        (solve_dks,
         build_rescaled_resnet(25, 0.851568, with_transitions=True, final_nonlinear=True),
         Tanh(), 20.4677,
         (0.5271576565267442, -0.8245715761545099, 3.2383041193501803,
          0.5926989743842611, 1.1187065947370942)),
    ]

    @pytest.mark.parametrize("solve, graph, base, target, _", CASES)
    def test_one_jet_per_distinct_iterate(self, monkeypatch, solve, graph, base, target, _):
        jets, iterates = [], set()

        def counting_jet(*args):
            jets.append(args)
            return kernel_maps._hermite_jet(*args)

        def recording(F, x0, jac):
            def seen(f):
                return lambda x: iterates.add(x.tobytes()) or f(x)
            return solve_nonlinear_system(seen(F), x0, jac=seen(jac))

        monkeypatch.setattr(solvers, "_hermite_jet", counting_jet)
        monkeypatch.setattr(solvers, "solve_nonlinear_system", recording)
        solve(graph, base, target)
        assert len(jets) == len(iterates) >= 2

    @pytest.mark.parametrize("solve, graph, base, target, pinned", CASES)
    def test_answers_pinned(self, solve, graph, base, target, pinned):
        # the answers of the solver that evaluated each iterate twice; bit
        # for bit on one machine, to 1e-13 where the BLAS sums differ
        sol = solve(graph, base, target)
        target_field = (sol.target_local_cpp1 if solve is solve_tat_smooth
                        else sol.target_local_cp1)
        got = (sol.alpha, sol.beta, sol.gamma, sol.delta, target_field)
        assert got == pytest.approx(pinned, rel=1e-13, abs=1e-15)
        assert sol.residual_norm <= 1e-12


class TestSolveEocSmooth:
    @pytest.mark.parametrize("phi, sigma_b", [
        *((Tanh(), sb) for sb in (0.01, 0.05, 0.5, 1.5, 3.0)),
        *((TRANSFORMED_TANH, sb) for sb in (0.0, 0.2, 1.0)),
    ])
    def test_matches_the_nested_method(self, phi, sigma_b):
        sol = solve_eoc_smooth(phi, sigma_b=sigma_b)
        assert sol.sigma_w == pytest.approx(oracle_eoc_sigma_w(phi, sigma_b), abs=1e-8)
        assert max(eoc_misses(sol, phi)) <= 1e-9

    @pytest.mark.parametrize("sigma_b", [0.0444135, 0.5, 3.0])
    def test_each_residual_is_evaluated_once(self, sigma_b):
        # bisect reuses the decade ends the scan evaluated: every q the root
        # find visits on the solve's nodes is distinct
        x, _ = solvers._piecewise_1d((0.0,), DEFAULT_QUAD_ORDER)
        scales = []

        class Counting(Tanh):
            def deriv1(self, y):
                if np.shape(y) == x.shape:
                    scales.append(float(y[-1] / x[-1]))
                return super().deriv1(y)

        solve_eoc_smooth(Counting(), sigma_b=sigma_b)
        assert len(scales) >= 5 and len(set(scales)) == len(scales)

    def test_tanh_without_bias_sits_at_the_origin(self):
        # the edge is sigma_w = 1 with q* -> 0: C'(1) -> 1 there from above
        sol = solve_eoc_smooth(Tanh(), sigma_b=0.0)
        assert sol.q_fixed_point > 0.0
        assert sol.sigma_w == pytest.approx(1.0, abs=1e-6)
        assert max(eoc_misses(sol, Tanh())) <= 1e-9

    def test_scaled_input_is_a_rescaled_edge(self):
        # tanh(10 h) with (sigma_w, sigma_b) is tanh with (10 sigma_w, 10
        # sigma_b); near q = 1e4 the nodes no longer resolve tanh(10 z)'s
        # slope, so only the first sign change of the residual is the edge
        sol = solve_eoc_smooth(TransformedActivation(Tanh(), 10.0), sigma_b=0.01)
        ref = solve_eoc_smooth(Tanh(), sigma_b=0.1)
        assert 10.0 * sol.sigma_w == pytest.approx(ref.sigma_w, abs=1e-8)
        assert 100.0 * sol.q_fixed_point == pytest.approx(ref.q_fixed_point, rel=1e-7)

    def test_overflowing_fixed_point_is_refused(self):
        # softplus(sqrt(q) z)^2 leaves the float range: refused, no warning
        with pytest.raises(UnattainableTargetError, match="diverges"):
            solve_eoc_smooth(SoftPlus(), sigma_b=1e154)

    @pytest.mark.parametrize("sigma_b", [10.0, 20.0])
    def test_unresolved_large_bias_is_refused(self, sigma_b):
        # q* in the hundreds: phi'(sqrt(q*) z)^2 is too narrow for the
        # order-60 nodes, and the order-120 certificate sees the miss
        with pytest.raises(SolverFailure, match="certificate") as exc:
            solve_eoc_smooth(Tanh(), sigma_b=sigma_b)
        assert all(math.isfinite(v) for v in exc.value.last_iterate)

    def test_tanh_small_bias(self):
        # frozen trapezoid-rule oracle: sigma_w = 1.0667830930 at sigma_b = 0.02
        sol = solve_eoc_smooth(Tanh(), sigma_b=0.02)
        assert sol.sigma_w == pytest.approx(1.0667830930, abs=1e-6)
        assert sol.q_fixed_point == pytest.approx(0.0758641, abs=1e-4)

    def test_tanh_larger_bias(self):
        # frozen trapezoid-rule oracle: sigma_w = 1.3041458400 at sigma_b = 0.2
        sol = solve_eoc_smooth(Tanh(), sigma_b=0.2)
        assert sol.sigma_w == pytest.approx(1.3041458400, abs=1e-6)
        assert sol.q_fixed_point == pytest.approx(0.5120, abs=1e-3)

    def test_tanh_slope_condition_holds(self):
        sol = solve_eoc_smooth(Tanh(), sigma_b=0.2)
        s = math.sqrt(sol.q_fixed_point)
        chi = sol.sigma_w**2 * RULE.expect(
            lambda z: np.cosh(s * z) ** -4.0, kinks=(0.0,)
        )
        assert chi == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("base", [Identity(), TransformedActivation(Identity(), 2.0, 0.5)])
    @pytest.mark.parametrize("sigma_b", [0.0, 0.3])
    def test_affine_base_has_no_isolated_edge(self, base, sigma_b):
        # chi = sigma_w^2 E[phi'^2] is 1 for any q at one sigma_w, where the
        # q map is q -> q + sigma_b^2: no fixed point or a continuum of them
        with pytest.raises(UnattainableTargetError, match="affine"):
            solve_eoc_smooth(base, sigma_b=sigma_b)

    @pytest.mark.parametrize("sigma_b", [0.0, 0.109961, 0.5, 1.0])
    def test_softplus_has_no_edge(self, sigma_b):
        # sigma_w^2 E[sigmoid(sqrt(q*) z)^2] stays below 1 at every finite
        # q* and reaches 1 only as q* diverges, near sigma_w = sqrt(2)
        with pytest.raises(UnattainableTargetError, match="diverges") as exc:
            solve_eoc_smooth(SoftPlus(), sigma_b=sigma_b)
        assert 0.9 < exc.value.max_value < 1.0

    def test_non_smooth_base_rejected(self):
        with pytest.raises(UnsupportedDerivativeError):
            solve_eoc_smooth(ReLU())


class TestEocLrelu:
    def test_relu_scale(self):
        sol = eoc_lrelu(ReLU())
        assert sol.sigma_w == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert sol.q_fixed_point == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_scaled_lrelu_sits_on_edge(self, alpha):
        sol = eoc_lrelu(LReLU(alpha))
        # sigma_w^2 E[phi'(z)^2] = sigma_w^2 (1 + alpha^2) / 2 = 1
        assert sol.sigma_w**2 * (1 + alpha * alpha) / 2.0 == pytest.approx(
            1.0, abs=1e-14
        )
        # and the q map is exactly the identity: Q(q) = q
        p = LocalMapParams(TReLU(alpha))
        from qcmap import local_q

        for q in (0.25, 1.0, 4.0):
            assert local_q(p, RULE, q) == pytest.approx(q, abs=1e-10)

    @pytest.mark.parametrize("phi", [
        ReLU(), LReLU(0.2), LReLU(-0.3), LReLU(2.0),
        TReLU(0.0), TReLU(0.2), TReLU(0.5), TReLU(1.0),
    ])
    def test_unit_slope_against_quadrature(self, phi):
        # oracle: sigma_w^2 E[phi'(z)^2] on order-120 kink-split nodes; a
        # TReLU whose scale is applied a second time misses it
        sol = eoc_lrelu(phi)
        p = LocalMapParams(phi, sigma_w=sol.sigma_w)
        assert cstats(p, QuadratureRule.gauss_hermite(120)).cp1 == pytest.approx(1.0, abs=1e-12)
        assert (sol.sigma_b, sol.q_fixed_point) == (0.0, 1.0)

    @pytest.mark.parametrize("phi", [ReLU(), LReLU(0.2), TReLU(0.5)])
    @pytest.mark.parametrize("sigma_b", [1e-300, 0.5, 3.0])
    def test_bias_has_no_edge(self, phi, sigma_b):
        # C'(1) does not depend on q: where it is 1, Q(q) = q + sigma_b^2
        with pytest.raises(UnattainableTargetError, match="no fixed point"):
            eoc_lrelu(phi, sigma_b=sigma_b)

    @pytest.mark.parametrize("sigma_b", [-1e-3, math.inf, -math.inf, math.nan])
    def test_invalid_bias_rejected_as_for_smooth(self, sigma_b):
        with pytest.raises(ValueError) as smooth:
            solve_eoc_smooth(Tanh(), sigma_b=sigma_b)
        with pytest.raises(ValueError) as leaky:
            eoc_lrelu(ReLU(), sigma_b=sigma_b)
        assert str(leaky.value) == str(smooth.value)


class TestSolutionSerialization:
    def test_tat_lrelu_dict(self):
        d = solve_tat_lrelu(build_vanilla(5), 0.5).to_dict()
        assert d["method"] == "tat-lrelu"
        assert set(d) == {"method", "activation", "parameters", "targets", "residuals"}

    def test_eoc_dict(self):
        d = eoc_lrelu(LReLU(0.2)).to_dict()
        assert d["method"] == "eoc"
        assert d["parameters"]["sigma_b"] == 0.0
        # a closed form has no certificate
        assert d["residuals"] == {}

    def test_smooth_eoc_dict_reports_its_deviation(self):
        sol = solve_eoc_smooth(Tanh(), sigma_b=0.2)
        d = sol.to_dict()
        assert set(d) == {"method", "parameters", "targets", "residuals"}
        assert d["residuals"] == {"deviation": sol.deviation}
        assert 0.0 <= sol.deviation <= 1e-9
