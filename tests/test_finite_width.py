"""Tests for the finite-width Monte-Carlo validator.

Oracles:
- [TRIVIAL] exact orthogonality/scaling identities of the samplers.
- [DERIVED] an identity network with orthogonal weights preserves cosines
  and squared norms exactly (no randomness in the statistic), so the
  empirical trace must match theory to rounding error.
- statistical checks use wide layers and loose tolerances so they are
  deterministic given the fixed seeds.
"""

import inspect
import math
import threading

import numpy as np
import pytest

from qcmap import (
    EmpiricalTrace,
    Identity,
    InitScheme,
    SimConfig,
    Tanh,
    TReLU,
    compare_to_theory,
    lrelu_c_map,
    make_input_pair,
    propagate_pair,
    run_simulation,
    sample_weight_matrix,
    theory_trace,
)
from qcmap import finite_width
from qcmap.finite_width import _cholesky_factor, _fresh_layer, _solve_upper


RNG = lambda s=0: np.random.default_rng(s)


class TestSampleWeightMatrix:
    def test_suo_square_orthogonal(self):
        w = sample_weight_matrix(InitScheme.SUO, 64, 64, RNG())
        assert np.max(np.abs(w @ w.T - np.eye(64))) <= 1e-10

    def test_suo_wide_rows_orthonormal(self):
        # m < k: rows orthonormal, no scaling
        w = sample_weight_matrix(InitScheme.SUO, 32, 64, RNG(1))
        assert np.max(np.abs(w @ w.T - np.eye(32))) <= 1e-10

    def test_suo_tall_column_scaling(self):
        # m > k: columns orthogonal with norm sqrt(m/k)
        w = sample_weight_matrix(InitScheme.SUO, 128, 64, RNG(2))
        assert np.max(np.abs(w.T @ w - 2.0 * np.eye(64))) <= 1e-10

    def test_suo_preserves_scaled_norm(self):
        # ||W x||^2 / m == ||x||^2 / k for any x when m >= k
        w = sample_weight_matrix(InitScheme.SUO, 100, 40, RNG(3))
        x = RNG(4).normal(size=40)
        assert np.linalg.norm(w @ x) ** 2 / 100 == pytest.approx(
            np.linalg.norm(x) ** 2 / 40, rel=1e-12
        )

    def test_gaussian_variance(self):
        w = sample_weight_matrix(InitScheme.GAUSSIAN_FAN_IN, 400, 500, RNG(5))
        assert w.var() == pytest.approx(1.0 / 500, rel=0.02)
        assert w.mean() == pytest.approx(0.0, abs=1e-3)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            sample_weight_matrix(InitScheme.SUO, 0, 4, RNG())

    def test_determinism(self):
        a = sample_weight_matrix(InitScheme.SUO, 16, 16, RNG(7))
        b = sample_weight_matrix(InitScheme.SUO, 16, 16, RNG(7))
        assert np.array_equal(a, b)


class TestFreshLayer:
    def test_suo_matches_explicit_multiply_in_law(self):
        # exact invariants: norms and pairwise inner products preserved
        x = RNG(8).normal(size=(50, 6))
        y = _fresh_layer(x, InitScheme.SUO, RNG(9))
        assert np.max(np.abs(x.T @ x - y.T @ y)) <= 1e-10

    def test_suo_marginal_is_isotropic(self):
        # a fixed unit vector maps to a uniformly random unit vector: its
        # first coordinate has mean 0 and variance 1/n
        n, reps = 25, 4000
        rng = RNG(10)
        e = np.zeros((n, 1))
        e[0, 0] = 1.0
        firsts = np.array([_fresh_layer(e, InitScheme.SUO, rng)[0, 0] for _ in range(reps)])
        assert firsts.mean() == pytest.approx(0.0, abs=0.02)
        assert firsts.var() == pytest.approx(1.0 / n, rel=0.15)

    @pytest.mark.parametrize("singular", [False, True])
    def test_suo_preserves_gram_to_rounding(self, singular):
        x = RNG(16).normal(size=(400, 40))
        if singular:
            # equal and opposite columns: R_x comes from a QR of x
            x[:, 1], x[:, 3] = x[:, 0], -x[:, 2]
        h = _fresh_layer(x, InitScheme.SUO, RNG(17))
        gram = x.T @ x
        assert np.max(np.abs(h.T @ h - gram)) <= 1e-12 * np.max(np.abs(gram))

    @pytest.mark.parametrize("singular", [False, True])
    def test_gaussian_row_covariance_matches_explicit(self, singular):
        # rows of W x are iid N(0, x^T x / width); the Gram-space draw and
        # explicit sample_weight_matrix draws must agree on that covariance
        width, reps = 40, 3000
        x = RNG(18).normal(size=(width, 3))
        if singular:
            x[:, 2] = -x[:, 0]
        rng_fast, rng_explicit = RNG(19), RNG(20)
        fast = np.concatenate(
            [_fresh_layer(x, InitScheme.GAUSSIAN_FAN_IN, rng_fast) for _ in range(reps)]
        )
        explicit = np.concatenate([
            sample_weight_matrix(InitScheme.GAUSSIAN_FAN_IN, width, width, rng_explicit) @ x
            for _ in range(reps)
        ])
        want = x.T @ x / width
        scale = np.max(np.abs(want))
        for rows in (fast, explicit):
            assert np.max(np.abs(rows.mean(axis=0))) <= 0.02 * math.sqrt(scale)
            assert np.max(np.abs(rows.T @ rows / rows.shape[0] - want)) <= 0.03 * scale
        cov_fast = fast.T @ fast / fast.shape[0]
        cov_explicit = explicit.T @ explicit / explicit.shape[0]
        assert np.max(np.abs(cov_fast - cov_explicit)) <= 0.04 * scale

    def test_narrow_suo_matches_explicit_haar_in_law(self):
        # more vectors than the width: an explicit Haar U multiplies x.  Its
        # first row is uniform on the sphere, which fixes the second moments
        # x^T x / m and the fourth moment 3 |x_j|^4 / (m (m + 2)) of each
        # coordinate (a Gaussian row would give 3 |x_j|^4 / m^2)
        m, n, reps = 8, 12, 8000
        x = RNG(21).normal(size=(m, n))
        rng_fast, rng_explicit = RNG(22), RNG(23)
        h = _fresh_layer(x, InitScheme.SUO, rng_fast)
        assert np.max(np.abs(h.T @ h - x.T @ x)) <= 1e-10
        fast = np.array([_fresh_layer(x, InitScheme.SUO, rng_fast)[0] for _ in range(reps)])
        explicit = np.array([
            (sample_weight_matrix(InitScheme.SUO, m, m, rng_explicit) @ x)[0]
            for _ in range(reps)
        ])
        sq = np.sum(x * x, axis=0)
        for rows in (fast, explicit):
            second = rows.T @ rows / reps
            assert np.max(np.abs(second - x.T @ x / m)) <= 0.06 * np.max(sq) / m
            fourth = np.mean(rows**4, axis=0)
            assert fourth == pytest.approx(3.0 * sq**2 / (m * (m + 2)), rel=0.12)

    def test_many_vectors_take_the_explicit_gaussian_draw(self):
        # past 2 width / 3 vectors the layer is the explicit product, with
        # the same random stream as sample_weight_matrix
        for n in (21, 30, 45):
            x = RNG(27).normal(size=(30, n))
            want = sample_weight_matrix(InitScheme.GAUSSIAN_FAN_IN, 30, 30, RNG(28)) @ x
            assert np.array_equal(_fresh_layer(x, InitScheme.GAUSSIAN_FAN_IN, RNG(28)), want)

    @pytest.mark.parametrize("n", [1, 31, 33, 200, 601])
    def test_blocked_triangular_solve_matches_lu(self, n):
        # sizes on both sides of the 32 block and of odd halvings; R_G as
        # the SUO route forms it, against a general LU solve
        rng = RNG(30)
        g = rng.standard_normal((2 * n, n))
        r = _cholesky_factor(g.T @ g)
        b = np.linalg.qr(rng.standard_normal((2 * n, n)), mode="r")
        want = np.linalg.solve(r, b)
        got = _solve_upper(r, b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("scheme", list(InitScheme))
    def test_singular_gram_falls_back(self, scheme):
        # a zero column makes the Gram matrix singular, so Cholesky raises
        # and R_x comes from a QR of x: the zero column stays exactly zero
        x = RNG(24).normal(size=(30, 4))
        x[:, 2] = 0.0
        h = _fresh_layer(x, scheme, RNG(25))
        assert np.isfinite(h).all()
        assert np.array_equal(h[:, 2], np.zeros(30))
        # equal inputs (c0 = 1) duplicate every column of a wide layer
        cfg = SimConfig(width=64, depth=5, trials=2, pairs_per_trial=8, seed=26,
                        initial_c=1.0)
        trace = run_simulation(cfg, TReLU(0.2), scheme)
        assert np.isfinite(trace.mean_c).all() and np.isfinite(trace.mean_q).all()
        assert np.max(np.abs(trace.mean_c - 1.0)) <= 1e-12
        assert np.max(trace.std_c) <= 1e-12

    @pytest.mark.parametrize("scheme", list(InitScheme))
    @pytest.mark.parametrize("c0, act", [(1.0, TReLU(0.2)), (-1.0, Tanh())])
    def test_singular_wide_layers_draw_no_square_matrix(self, monkeypatch, scheme, c0, act):
        # c0 = 1, and c0 = -1 through an odd activation, keep the Gram
        # matrix singular at every layer; the wide layers must still take
        # the Gram route, not a width x width draw
        def refuse(*args):
            raise AssertionError("width x width weight matrix drawn")

        monkeypatch.setattr(finite_width, "sample_weight_matrix", refuse)
        cfg = SimConfig(width=300, depth=4, trials=2, pairs_per_trial=10, seed=29,
                        initial_c=c0)
        trace = run_simulation(cfg, act, scheme)
        assert np.max(np.abs(trace.mean_c - c0)) <= 1e-12


def _serial_trace(cfg, act, scheme):
    """run_simulation's trace from a plain loop of _fresh_layer calls, with
    no helper thread: the reference stream order."""
    depth, pairs = cfg.depth, cfg.pairs_per_trial
    all_c = np.empty((cfg.trials, pairs, depth + 1))
    all_q = np.empty((cfg.trials, pairs, depth + 1))
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        x = np.stack([v for _ in range(pairs)
                      for v in make_input_pair(cfg.width, cfg.initial_c, rng)], axis=1)
        finite_width._record_layer(x, all_c, all_q, trial, 0)
        for layer in range(1, depth + 1):
            x = act.value(_fresh_layer(x, scheme, rng))
            finite_width._record_layer(x, all_c, all_q, trial, layer)
    flat_c, flat_q = all_c.reshape(-1, depth + 1), all_q.reshape(-1, depth + 1)
    return flat_c.mean(axis=0), flat_c.std(axis=0), flat_q.mean(axis=0)


def _same_trace(trace, want):
    return all(np.array_equal(a, b) for a, b in zip((trace.mean_c, trace.std_c, trace.mean_q), want))


def _count_draw_aheads(monkeypatch):
    made = []

    class Spy(finite_width._DrawAhead):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(finite_width, "_DrawAhead", Spy)
    return made


# width, pairs: the explicit route, the Gram route below the helper's
# size gate (24 * 4 elements), and above it (200 * 60)
SIZES = [(30, 20), (24, 2), (200, 30)]


class TestDrawAhead:
    @pytest.mark.parametrize("scheme", list(InitScheme))
    @pytest.mark.parametrize("width, pairs", SIZES)
    @pytest.mark.parametrize("c0, act", [(0.3, TReLU(0.2)), (1.0, TReLU(0.2)), (-1.0, Tanh())])
    def test_bit_identical_to_the_serial_loop(self, monkeypatch, scheme, width, pairs, c0, act):
        # c0 = 1 through TReLU and c0 = -1 through tanh keep x^T x singular,
        # so R_x comes from a QR of x at every layer
        made = _count_draw_aheads(monkeypatch)
        cfg = SimConfig(width=width, depth=5, trials=3, pairs_per_trial=pairs, seed=31,
                        initial_c=c0)
        trace = run_simulation(cfg, act, scheme)
        assert _same_trace(trace, _serial_trace(cfg, act, scheme))
        assert len(made) == (cfg.trials if (width, pairs) == SIZES[2] else 0)

    def test_suo_fallback_keeps_the_stream_order(self, monkeypatch):
        # the 4th Cholesky of a SUO run is layer 2's G^T G (each layer
        # factors x^T x, then G^T G); failing it sends that layer to the
        # explicit draw while layer 3's G is being drawn ahead
        real = finite_width._cholesky_factor
        calls = [0]

        def fail_once(gram):
            calls[0] += 1
            if calls[0] == 4:
                raise np.linalg.LinAlgError("forced")
            return real(gram)

        explicit = []
        real_swm = finite_width.sample_weight_matrix
        monkeypatch.setattr(finite_width, "_cholesky_factor", fail_once)
        monkeypatch.setattr(finite_width, "sample_weight_matrix",
                            lambda *a: explicit.append(a[1:3]) or real_swm(*a))
        made = _count_draw_aheads(monkeypatch)
        cfg = SimConfig(width=200, depth=5, trials=2, pairs_per_trial=30, seed=32)
        act, traces = TReLU(0.2), []
        for run in (lambda: run_simulation(cfg, act, InitScheme.SUO),
                    lambda: run_simulation(cfg, act, InitScheme.SUO),
                    lambda: _serial_trace(cfg, act, InitScheme.SUO)):
            calls[0] = 0
            traces.append(run())
        assert len(made) == 2 * cfg.trials and explicit == [(200, 200)] * 3
        want = traces[2]
        assert _same_trace(traces[0], want) and _same_trace(traces[1], want)
        plain = run_simulation(cfg, act, InitScheme.SUO)  # 4th call passes now
        assert not np.array_equal(plain.mean_c, want[0])

    def test_no_qcmap_function_runs_on_the_helper(self, monkeypatch):
        threads = set()

        def on_thread(f):
            def wrapped(*args, **kwargs):
                threads.add(threading.current_thread())
                return f(*args, **kwargs)
            return wrapped

        for name, f in list(vars(finite_width).items()):
            if inspect.isfunction(f) and f.__module__ == finite_width.__name__:
                monkeypatch.setattr(finite_width, name, on_thread(f))
        for name in ("take", "rewind", "_start"):
            monkeypatch.setattr(finite_width._DrawAhead, name,
                                on_thread(getattr(finite_width._DrawAhead, name)))
        monkeypatch.setattr(TReLU, "value", on_thread(TReLU.value))
        act = TReLU(0.2)
        made = _count_draw_aheads(monkeypatch)
        cfg = SimConfig(width=200, depth=4, trials=2, pairs_per_trial=30, seed=33)
        for scheme in InitScheme:
            finite_width.run_simulation(cfg, act, scheme)
        assert len(made) == 2 * cfg.trials
        assert threads == {threading.current_thread()}


class TestMakeInputPair:
    @pytest.mark.parametrize("c0", [-1.0, -0.5, 0.0, 0.3, 1.0])
    def test_exact_geometry(self, c0):
        x1, x2 = make_input_pair(200, c0, RNG(11))
        assert np.linalg.norm(x1) ** 2 == pytest.approx(200, rel=1e-12)
        assert np.linalg.norm(x2) ** 2 == pytest.approx(200, rel=1e-12)
        cos = x1 @ x2 / (np.linalg.norm(x1) * np.linalg.norm(x2))
        assert cos == pytest.approx(c0, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_input_pair(10, 1.2, RNG())


class TestPropagatePair:
    def test_identity_suo_preserves_statistics(self):
        x1, x2 = make_input_pair(64, 0.4, RNG(12))
        stats = propagate_pair(Identity(), InitScheme.SUO, 64, 5, x1, x2, RNG(13))
        for q1, q2, c in stats:
            assert q1 == pytest.approx(1.0, abs=1e-12)
            assert q2 == pytest.approx(1.0, abs=1e-12)
            assert c == pytest.approx(0.4, abs=1e-12)

    def test_layer_count_and_c_range(self):
        x1, x2 = make_input_pair(32, 0.0, RNG(14))
        stats = propagate_pair(TReLU(0.3), InitScheme.GAUSSIAN_FAN_IN, 32, 4, x1, x2, RNG(15))
        assert len(stats) == 5
        assert all(-1.0 <= c <= 1.0 for _, _, c in stats)

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            propagate_pair(
                Identity(), InitScheme.SUO, 8, 1,
                np.zeros(8), np.zeros(9), RNG(),
            )


class TestRunSimulation:
    def test_identity_suo_exact(self):
        cfg = SimConfig(width=48, depth=6, trials=3, pairs_per_trial=2, seed=0,
                        initial_c=0.25)
        trace = run_simulation(cfg, Identity(), InitScheme.SUO)
        assert np.max(np.abs(trace.mean_c - 0.25)) <= 1e-12
        assert np.max(trace.std_c) <= 1e-12
        assert np.max(np.abs(trace.mean_q - 1.0)) <= 1e-12

    def test_deterministic_given_seed(self):
        cfg = SimConfig(width=24, depth=3, trials=2, pairs_per_trial=2, seed=42)
        a = run_simulation(cfg, TReLU(0.2), InitScheme.GAUSSIAN_FAN_IN)
        b = run_simulation(cfg, TReLU(0.2), InitScheme.GAUSSIAN_FAN_IN)
        assert np.array_equal(a.mean_c, b.mean_c)
        assert np.array_equal(a.std_c, b.std_c)

    def test_seed_changes_result(self):
        k = dict(width=24, depth=3, trials=2, pairs_per_trial=2)
        a = run_simulation(SimConfig(seed=1, **k), TReLU(0.2), InitScheme.GAUSSIAN_FAN_IN)
        b = run_simulation(SimConfig(seed=2, **k), TReLU(0.2), InitScheme.GAUSSIAN_FAN_IN)
        assert not np.array_equal(a.mean_c, b.mean_c)

    def test_statistics_shapes_and_ranges(self):
        cfg = SimConfig(width=64, depth=4, trials=2, pairs_per_trial=3, seed=3)
        trace = run_simulation(cfg, TReLU(0.5), InitScheme.SUO)
        assert trace.depth == 4
        assert trace.mean_c.shape == (5,)
        assert np.all(np.abs(trace.mean_c) <= 1.0)
        assert trace.mean_c[0] == pytest.approx(0.0, abs=1e-12)

    def test_wide_net_tracks_theory(self):
        alpha = 0.4
        cfg = SimConfig(width=400, depth=8, trials=20, pairs_per_trial=4, seed=7)
        trace = run_simulation(cfg, TReLU(alpha), InitScheme.GAUSSIAN_FAN_IN)
        report = compare_to_theory(trace, 8, lambda c: lrelu_c_map(alpha, c))
        assert report.max_abs_deviation <= 0.03
        assert report.theory_c[0] == 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(width=0, depth=1, trials=1, pairs_per_trial=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(width=2, depth=1, trials=1, pairs_per_trial=1, seed=0,
                      initial_c=1.5)


class TestTheoryAndComparison:
    def test_theory_trace_iterates_map(self):
        out = theory_trace(lambda c: 0.5 * c + 0.5, 0.0, 3)
        assert out == pytest.approx([0.0, 0.5, 0.75, 0.875], abs=1e-15)

    def test_identity_deviation_zero(self):
        trace = EmpiricalTrace(
            mean_c=np.array([0.2, 0.6, 0.8]),
            std_c=np.array([0.0, 0.01, 0.01]),
            mean_q=np.ones(3),
            initial_c=0.2,
        )
        report = compare_to_theory(trace, 2, lambda c: 0.5 * c + 0.5)
        assert report.max_abs_deviation <= 1e-15
        assert report.within_one_std_fraction == 1.0

    def test_depth_mismatch_rejected(self):
        trace = EmpiricalTrace(
            mean_c=np.zeros(3), std_c=np.zeros(3), mean_q=np.ones(3),
            initial_c=0.0,
        )
        with pytest.raises(ValueError):
            compare_to_theory(trace, 5, lambda c: c)
