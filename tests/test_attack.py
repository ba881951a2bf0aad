import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from losscarto import (
    AttackConfig,
    LossOracle,
    NetworkShape,
    NonFiniteLossError,
    Poly,
    QueryBudgetExceeded,
    RecoveryError,
    SpuriousKinkError,
    TrainingSample,
    detect_kinks_on_line,
    enumerate_singular_sheets,
    gen_instance,
    make_loss_fn,
    make_oracle,
    recover_architecture,
    run_attack,
)
from losscarto import attack as attack_module
from losscarto.attack import (
    GRID,
    ExtractedDirection,
    aligned_input_direction,
    fit_hyperplane,
    harvest_sheet_points,
    refine_kink,
)
from losscarto.network import _pre_outputs
from losscarto.errors import DegeneracyError

V = Poly.variable
F = Fraction
REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "references.json"
# the warm-up line: at w = (-a, 1, 1) the [2,1,1] network's loss is h(a), so t = a
WARMUP_BASE, WARMUP_DIRECTION = [0.0, 1.0, 1.0], [-1.0, 0.0, 0.0]


def warmup_oracle(pairs, budget=None):
    """The [2,1,1] loss with one sample ((x, y), (0,)) per pair, h(a) on the warm-up line."""
    samples = [TrainingSample((x, y), (0.0,)) for x, y in pairs]
    return LossOracle(make_loss_fn(NetworkShape([2, 1, 1]), samples), budget=budget)


def fsum_warmup(pairs):
    """h(a) = sum_i (1/2) max(0, y_i - a x_i)^2 in its own loop, the reference for the network line."""
    pts = [(float(x), float(y)) for x, y in pairs]

    def h(w) -> float:
        a = float(np.asarray(w, dtype=float).reshape(-1)[0])
        return math.fsum(0.5 * max(0.0, y - a * x) ** 2 for x, y in pts)

    return LossOracle(h)


class TestLossOracle:
    def test_budget_is_hard(self):
        oracle = LossOracle(lambda w: float(w[0]), budget=5)
        for _ in range(5):
            oracle([1.0])
        assert oracle.query_count == 5
        with pytest.raises(QueryBudgetExceeded):
            oracle([1.0])
        assert oracle.query_count == 5  # the failed query is not charged

    @pytest.mark.parametrize("budget", [-1, 2.5, True, "10"])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        with pytest.raises(ValueError, match="budget must be an integer >= 0"):
            LossOracle(lambda w: 0.0, budget=budget)

    def test_counts(self):
        oracle = LossOracle(lambda w: 0.0)
        for _ in range(3):
            oracle([0.0])
        assert oracle.query_count == 3

    def test_many_within_budget_matches_calls(self):
        calls = []
        W = np.arange(12.0).reshape(4, 3)
        batched = LossOracle(batched_first_coordinate(calls), budget=10)
        rowwise = LossOracle(lambda w: float(w[0]), budget=10)
        assert batched.many(W).tolist() == rowwise.many(W).tolist() == [0.0, 3.0, 6.0, 9.0]
        assert batched.query_count == rowwise.query_count == 4
        assert [c.shape for c in calls] == [(4, 3)]  # one call for the whole batch

    @pytest.mark.parametrize("batched", [True, False])
    def test_many_crossing_budget_charges_up_to_it(self, batched):
        calls = []
        fn = batched_first_coordinate(calls) if batched else (lambda w: calls.append(w) or float(w[0]))
        oracle = LossOracle(fn, budget=10)
        for _ in range(7):
            oracle([1.0, 0.0])
        calls.clear()
        with pytest.raises(QueryBudgetExceeded):
            oracle.many(np.ones((5, 2)))
        assert oracle.query_count == 10
        assert sum(len(np.atleast_2d(c)) for c in calls) == 3  # only the rows that fit ran
        calls.clear()
        with pytest.raises(QueryBudgetExceeded):
            oracle.many(np.ones((2, 2)))
        assert oracle.query_count == 10 and calls == []

    def test_non_finite_values_raise(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            oracle = LossOracle(lambda w, bad=bad: bad)
            with pytest.raises(NonFiniteLossError):
                oracle([0.0])
            assert oracle.query_count == 1
        assert issubclass(NonFiniteLossError, RuntimeError)

    @pytest.mark.parametrize("batched", [True, False])
    def test_many_stops_at_first_non_finite_row(self, batched):
        calls = []

        def fn(w):
            calls.append(w)
            w = np.asarray(w)
            return np.where(w[..., 0] > 2.5, np.nan, w[..., 0])

        fn.batched = batched
        oracle = LossOracle(fn)
        with pytest.raises(NonFiniteLossError):
            oracle.many(np.arange(6.0)[:, None])
        assert oracle.query_count == 4  # rows 0..2 and the NaN row 3, as four calls would be
        assert len(calls) == (1 if batched else 4)  # a per-row function never sees rows 4 and 5

    @pytest.mark.parametrize("batched", [True, False])
    def test_raising_function_charges_nothing(self, batched):
        # queries are charged once the function has answered: a batch it raises
        # on is charged nothing, row by row as at once
        calls = []

        def fn(w):
            calls.append(w)
            if (np.asarray(w)[..., 0] > 1.5).any():
                raise ArithmeticError("no loss here")
            return np.asarray(w)[..., 0] * 1.0

        fn.batched = batched
        oracle = LossOracle(fn, budget=10)
        assert oracle([1.0]) == 1.0 and oracle.query_count == 1
        assert calls[0].shape == ((1, 1) if batched else (1,))  # a call is a one-row many
        with pytest.raises(ArithmeticError):
            oracle.many(np.arange(4.0)[:, None])
        assert oracle.query_count == 1
        assert len(calls) == (2 if batched else 4)  # the per-row function stops at row 2


def batched_first_coordinate(calls):
    """Batch-capable test loss w -> w[0] that records each array it is given."""

    def fn(w):
        w = np.asarray(w)
        calls.append(w)
        return w[..., 0] * 1.0

    fn.batched = True
    return fn


def window_sizes(ys, degree):
    """The largest |y| of each window of degree + 2 consecutive values."""
    return np.array([np.abs(ys[i : i + degree + 2]).max() for i in range(len(ys) - degree - 1)])


def per_window_errors(ts, ys, degree):
    """|y - P(t)| at the last point of each window, P the np.polyfit through the rest, over the
    window's largest |y|: the reference."""
    errors = []
    for i in range(len(ts) - degree - 1):
        t, y = ts[i : i + degree + 2] - ts[i], ys[i : i + degree + 2]
        errors.append(abs(y[-1] - np.polyval(np.polyfit(t[:-1], y[:-1], degree), t[-1])))
    return np.array(errors) / window_sizes(ys, degree)


def piecewise_quadratic(breaks, jumps, curvatures, background=(1.0, 0.3, 0.2)):
    """Batched background(t) + sum_k jumps[k] (t - b_k)_+ + curvatures[k] (t - b_k)_+^2 on w[..., 0]."""

    def f(w):
        t = np.asarray(w, dtype=float)[..., 0]
        value = background[0] + background[1] * t + background[2] * t * t
        for b, jump, curvature in zip(breaks, jumps, curvatures):
            u = np.maximum(t - b, 0.0)
            value = value + jump * u + curvature * u * u
        return value

    f.batched = True
    return f


class TestDetectRefine:
    @given(
        st.integers(1, 4),
        st.lists(st.floats(0.05, 1.0), min_size=7, max_size=40),
        st.integers(0, 2**32 - 1),
    )
    def test_window_errors_match_per_window_fit(self, degree, spacings, seed):
        ts = np.cumsum(spacings)
        ys = np.random.default_rng(seed).uniform(-10.0, 10.0, len(ts))
        got = attack_module._window_errors(ts, ys, degree)
        want = per_window_errors(ts, ys, degree)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-7, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 20, 21, 22, 253])
    def test_window_errors_of_one_degree_up(self, n):
        # t^(p+1) at spacing h: every window's error is its (p+1)-th difference, (p+1)! h^(p+1),
        # over the window's largest |y|; a degree-p polynomial leaves none
        h = 1.0 / 32
        ts = -4.0 + h * np.arange(n)
        for degree in (1, 2):
            if n < degree + 2:
                continue
            ys = ts ** (degree + 1)
            errors = attack_module._window_errors(ts, ys, degree)
            assert len(errors) == n - degree - 1
            want = math.factorial(degree + 1) * h ** (degree + 1) / window_sizes(ys, degree)
            assert errors == pytest.approx(want, rel=1e-6)
            assert attack_module._window_errors(ts, 3.0 - ts**degree, degree).max() < 1e-12

    def test_first_order_kink(self):
        # |t - 0.37| has a slope jump of 2 at 0.37, on a quadratic background
        kink_at = 0.37

        def f(w):
            t = w[0]
            return abs(t - kink_at) + 0.3 * t * t + 1.0

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), GRID, 2)
        assert len(kinks) == 1
        assert abs(kinks[0].t - kink_at) < 1e-12
        assert kinks[0].slope_jump == pytest.approx(2.0, rel=1e-9)

    def test_second_order_kink(self):
        # max(0, t - c)^2 is C^1: only the curvature jumps (by 2); the kink sits where the slopes meet
        kink_at = -1.234

        def f(w):
            t = w[0]
            return max(0.0, t - kink_at) ** 2 + 0.1 * t**2

        oracle = LossOracle(f)
        kinks = detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)
        assert len(kinks) == 1
        assert abs(kinks[0].t - kink_at) < 1e-12
        assert kinks[0].curvature_jump == pytest.approx(2.0, rel=1e-9)
        assert oracle.query_count == GRID + 2 * 3  # the grid alone: a flat kink gets no check

    def test_multiple_kinks_sorted(self):
        spots = [-2.1, 0.4, 1.9]

        def f(w):
            t = w[0]
            return sum(abs(t - c) for c in spots)

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), GRID, 2)
        assert [k.t for k in kinks] == pytest.approx(spots, abs=1e-12)

    def test_weak_kink_beside_strong_one_comes_back(self):
        # no kink is capped away: the weak hinge comes back beside the strong one
        def f(w):
            t = w[0]
            return 5.0 * abs(t - 1.0) + 0.01 * abs(t + 2.0)

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), GRID, 2)
        assert [k.t for k in kinks] == pytest.approx([-2.0, 1.0], abs=1e-12)
        assert [k.slope_jump for k in kinks] == pytest.approx([0.02, 10.0], rel=1e-9)

    def test_bad_degree_or_grid_is_rejected_before_any_query(self):
        oracle = warmup_oracle([(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)])
        line = (WARMUP_BASE, WARMUP_DIRECTION, (-4, 4))
        for grid, degree in ((GRID, 0), (GRID, -1), (GRID, 2.0), (GRID, True), (1, 2), (33.0, 2)):
            with pytest.raises(ValueError, match="degree|grid"):
                detect_kinks_on_line(oracle, *line, grid, degree)
        # and a t_range that is no finite interval: an infinite end would pass t1 > t0 and spend
        # a grid before the oracle's loss goes infinite
        inf, nan = math.inf, math.nan
        for t_range in ((1, 0), (0, 0), (-inf, 4), (-4, inf), (-inf, inf), (nan, 4), (-4, nan)):
            with pytest.raises(ValueError, match="t_range"):
                detect_kinks_on_line(oracle, WARMUP_BASE, WARMUP_DIRECTION, t_range, GRID, 2)
        assert oracle.query_count == 0

    def test_mismatched_or_non_finite_line_is_rejected_before_any_query(self):
        # a base of length 3 and a direction of length 1 would broadcast to the diagonal
        oracle = warmup_oracle([(1.0, 2.0), (3.0, 1.0)])
        for base, direction in (
            (WARMUP_BASE, [1.0]),
            ([0.0], WARMUP_DIRECTION),
            ([WARMUP_BASE], WARMUP_DIRECTION),
            ([WARMUP_BASE], [WARMUP_DIRECTION]),
            (0.0, 1.0),
            ([0.0, math.nan, 1.0], WARMUP_DIRECTION),
            (WARMUP_BASE, [-math.inf, 0.0, 0.0]),
        ):
            with pytest.raises(ValueError, match="base and direction"):
                detect_kinks_on_line(oracle, base, direction, (-4, 4), GRID, 2)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("pairs,queries", [
        ([(1.0, 2.0), (3.0, 1.0)], GRID + 6),
        ([(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)], GRID + 6),
    ], ids=["criterion-1", "demo-01"])
    def test_warmup_line_matches_its_own_loop(self, pairs, queries):
        # the network's loss on the warm-up line against h(a) summed in its own loop: the
        # same kinks bit for bit, for the same queries (the grid alone: every warm-up kink is
        # flat), each at its hinge y / x, its curvature jump (right minus left) -x |x|: the extra
        # x^2 is on the side where y - a x > 0
        net, ref = warmup_oracle(pairs), fsum_warmup(pairs)
        got = detect_kinks_on_line(net, WARMUP_BASE, WARMUP_DIRECTION, (-4.0, 4.0), GRID, 2)
        want = detect_kinks_on_line(ref, [0.0], [1.0], (-4.0, 4.0), GRID, 2)
        assert [k.t for k in got] == pytest.approx(sorted(y / x for x, y in pairs), abs=1e-13)
        assert [(k.t, k.curvature_jump) for k in got] == [(k.t, k.curvature_jump) for k in want]
        assert net.query_count == ref.query_count == queries
        assert [k.slope_jump for k in got] == [0.0] * len(pairs)
        xs = [x for x, y in sorted(pairs, key=lambda pair: pair[1] / pair[0])]
        assert [k.curvature_jump for k in got] == pytest.approx([-x * abs(x) for x in xs])

    @pytest.mark.parametrize(
        "a,b",
        [(1.0, 1.0 + 5 / 32), (1.0, 1.0 + 6 / 32), (0.37, 0.37 + 7 / 32), (1.0, None)],
        ids=["5-spacings", "6-spacings", "7-spacings", "on-grid-point"],
    )
    def test_close_kinks_come_back_once_each(self, a, b):
        # grid (-4, 4) x 257 has spacing 1/32; t = 1.0 is a grid point
        def f(w):
            t = w[0]
            return abs(t - a) + (0.0 if b is None else 0.8 * abs(t - b)) + 0.3 * t * t

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), 257, 2)
        want = [a] if b is None else [a, b]
        assert [k.t for k in kinks] == pytest.approx(want, abs=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(1e-3, 2.0),  # gap past the previous breakpoint (the first: past -3.9)
                st.floats(0.2, 2.0) | st.floats(-2.0, -0.2),  # slope jump
                st.floats(-1.0, 1.0),  # curvature jump
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0.0, 1.0 / 3.0, 0.5]),
    )
    @example([(3.9, 1.0, 0.0)], 0.0)  # on a grid point
    @example([(1e-3, 1.0, 0.0), (1e-3, -1.0, 0.5), (1e-3, 0.5, 0.0)], 0.0)  # inside one cell
    def test_kinks_of_one_scan_are_its_breakpoints(self, steps, phase):
        # a continuous piecewise quadratic with known breakpoints: the scan returns each
        # breakpoint once, to float noise, with its signed slope jump (right minus left) and
        # its curvature jump's sign, and no other kink
        breaks = list(np.cumsum([gap for gap, _, _ in steps]) - 3.9 + phase * 0.25)
        breaks = [b for b in breaks if b < 3.9]
        jumps = [jump for _, jump, _ in steps][: len(breaks)]
        curvatures = [curvature for _, _, curvature in steps][: len(breaks)]
        oracle = LossOracle(piecewise_quadratic(breaks, jumps, curvatures))
        kinks = detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)
        assert [k.t for k in kinks] == pytest.approx(breaks, abs=1e-9)
        assert [k.slope_jump for k in kinks] == pytest.approx(jumps, rel=1e-6)
        # the curvature jump is 2c: its sign is never the wrong one (0 where it is within noise)
        assert all(np.sign(k.curvature_jump) in (0, np.sign(c)) for k, c in zip(kinks, curvatures))

    def test_tight_cluster_is_found(self):
        # four unit kinks 2-3 spacings of the (-4, 4) x 257 grid apart, at its cells 9, 11, 14
        # and 17, on a 0.2 t^2 background: no rolling scale to hide them, each found exactly
        spots = [-4.0 + (cell + 0.37) / 32 for cell in (9, 11, 14, 17)]
        oracle = LossOracle(piecewise_quadratic(spots, [2.0] * 4, [0.0] * 4, (0.0, 0.0, 0.2)))
        kinks = detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)
        assert [k.t for k in kinks] == pytest.approx(spots, abs=1e-12)
        assert [k.slope_jump for k in kinks] == pytest.approx([2.0] * 4, rel=1e-9)
        assert oracle.query_count <= 100

    def test_smooth_line_is_clean(self):
        def f(w):
            t = w[0]
            return (t - 0.3) ** 4 + 2.0 * t * t

        oracle = LossOracle(f)
        assert detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 4) == []
        assert oracle.query_count == GRID + 2 * 5  # the grid alone

    def test_refine_spurious_bracket(self):
        def f(w):
            t = w[0]
            return t**4 - t + 3.0

        with pytest.raises(SpuriousKinkError):
            refine_kink(LossOracle(f), [0.0], [1.0], (0.1, 0.2), 4)

    def test_refine_far_out_stops_at_float_resolution(self):
        # at |t| = 1e12 neighbouring doubles lie 1.2e-4 apart, far above REFINE_TOL: the check
        # pair t -+ 0.45 * REFINE_TOL collapses onto one double, whose value both models match
        oracle = LossOracle(lambda w: abs(w[0] - (1e12 + 0.3)))
        kink = refine_kink(oracle, [0.0], [1.0], (1e12, 1e12 + 1), 2)
        assert abs(kink.t - (1e12 + 0.3)) <= 2.5e-4
        assert oracle.query_count <= 31

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("max_queries", [1, 7, 10, 11])
    def test_refine_budget_below_stencil_charges_exactly(self, batched, max_queries):
        # the oracle's budget is the only one a refine has; its grid (queries 1-9) or its check
        # pair (10 and 11) that crosses it is charged up to it, then raises; the kink costs
        # nothing past its check, so 11 queries settle it
        def f(w):
            return np.abs(np.asarray(w)[..., 0] - 0.15)

        f.batched = batched
        oracle = LossOracle(f, budget=max_queries)
        if max_queries == 11:
            assert refine_kink(oracle, [0.0], [1.0], (0.1, 0.2), 2).t == pytest.approx(0.15, abs=1e-12)
        else:
            with pytest.raises(QueryBudgetExceeded):
                refine_kink(oracle, [0.0], [1.0], (0.1, 0.2), 2)
        assert oracle.query_count == max_queries

    @pytest.mark.parametrize("wrap", ["plain", "oracle", "batched"])
    def test_nan_half_space_raises(self, wrap):
        def f(w):
            w = np.asarray(w)
            return np.where(w[..., 0] > 1.0, np.nan, np.abs(w[..., 0] - 0.3))

        f.batched = wrap == "batched"
        oracle = f if wrap == "plain" else LossOracle(f)
        with pytest.raises(NonFiniteLossError):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)

    def test_oracle_budget_propagates(self):
        oracle = LossOracle(lambda w: abs(w[0]), budget=20)
        with pytest.raises(QueryBudgetExceeded):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)

    def test_oracle_budget_inside_refine_propagates(self):
        # the grid takes GRID + 6 queries, the crossing check of the kink at 0.3 runs into the budget
        oracle = LossOracle(lambda w: abs(w[0] - 0.3), budget=GRID + 7)
        with pytest.raises(QueryBudgetExceeded):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)
        assert oracle.query_count == GRID + 7

    def test_merged_walls_come_apart(self):
        # [2,2,1]: two walls of one line 2.3e-3 apart, where the activation pattern of
        # _pre_outputs changes; the loss is piecewise quartic on the line
        inst = gen_instance([2, 2, 1], 2, 4)
        start = np.array([0.19, 1.11, -0.21, -0.93, 0.58, 0.58])
        direction = np.array([-0.21, -0.78, 0.23, -2.49, 0.69, 0.49]) - start
        X = np.array([[float(v) for v in s.input] for s in inst.samples]).T
        z0, z1 = (_pre_outputs(inst.shape, w, X)[0] for w in (start, start + direction))
        walls = (-z0 / (z1 - z0)).ravel()  # hidden pre-outputs are linear in t
        walls = np.sort(walls[(walls > 0.0) & (walls < 1.0)])
        kinks = detect_kinks_on_line(LossOracle(make_oracle(inst)), start, direction, (0.0, 1.0), 257, 4)
        assert walls == pytest.approx([0.571113, 0.573445], abs=1e-5)
        assert [k.t for k in kinks] == pytest.approx(walls.tolist(), abs=1e-9)


def flat_walls(w):
    """sum_k max(0, w_k)^2 plus a bowl: every wall w_k = 0 is flat (C^1)."""
    w = np.asarray(w)
    return np.sum(np.maximum(w, 0.0) ** 2 + 0.1 * w * w, axis=-1)


flat_walls.batched = True


class TestGradientJump:
    """The jumps of the directional gradient across a kink, read off its side models.

    No query goes past the scan: a kink costs its grid and, unless it is
    flat, its 2-row crossing check.
    """

    def test_first_order_kink_costs_stencil_and_check(self):
        # exact quadratic pieces: the models cross on the wall and the check settles it
        n = np.array([1.0, -2.0, 0.5, 1.5, 0.0])
        direction = np.array([1.0, 0.2, -0.1, 0.3, 0.4])
        direction /= np.linalg.norm(direction)
        base = np.array([0.3, 0.4, -0.2, 0.1, 0.7])
        at = -float(n @ base) / float(n @ direction)
        bracket = (at - 0.03, at + 0.04)
        stencil = 3 + 2 * 3  # refine_kink's grid at degree 2: 3 points and 3 spacings beyond each end
        f = plane_kink_oracle(n)
        batches = []

        def spy(W):
            batches.append(len(np.atleast_2d(W)))
            return np.apply_along_axis(f, -1, W)

        spy.batched = True
        oracle = LossOracle(spy)
        kink = refine_kink(oracle, base, direction, bracket, 2)
        assert abs(float(n @ np.asarray(kink.location))) < 1e-12
        assert batches == [stencil, 2] and oracle.query_count == stencil + 2
        # |n.w| adds 2 |n.d| to the slope, rising across the wall; the bowl's curvature is smooth
        assert kink.slope_jump == pytest.approx(2.0 * abs(float(n @ direction)), rel=1e-9)
        assert kink.curvature_jump == 0.0
        # an unbatched oracle is asked row by row: the same queries and the same kink, bit for bit
        rows = LossOracle(f)
        assert refine_kink(rows, base, direction, bracket, 2) == kink
        assert rows.query_count == stencil + 2

    def test_flat_kink_gets_no_jump(self):
        # max(0, w_k)^2 walls: the slope does not jump, the curvature does, on the side w_k > 0
        direction = np.ones(4) / 2.0
        batches = []

        def spy(W):
            batches.append(len(W))
            return flat_walls(W)

        spy.batched = True
        kinks = detect_kinks_on_line(LossOracle(spy), [1.0, 2.0, 3.0, 4.0], direction, (-9, 0), 257, 2)
        assert [k.t for k in kinks] == pytest.approx([-8.0, -6.0, -4.0, -2.0], abs=1e-12)
        assert batches == [257 + 2 * 3]  # the grid alone: a flat kink gets no check
        assert all(k.slope_jump == 0.0 and k.curvature_jump > 0.0 for k in kinks)
        assert [k.curvature_jump for k in kinks] == pytest.approx([0.5] * 4, rel=1e-9)  # 2 (d_k)^2


def plane_kink_oracle(normal, smooth_scale=0.1):
    """|<n, w>| plus a smooth bowl: its kink sheet is the hyperplane n.w = 0."""
    n = np.asarray(normal, dtype=float)

    def f(w):
        w = np.asarray(w, dtype=float)
        return abs(float(n @ w)) + smooth_scale * float(w @ w)

    return f


def bisection_refine_kink(oracle, base, direction, bracket, degree):
    """A kink refined by pure bisection against np.polynomial fits: the reference.

    Fits degree-p models through p + 1 points spaced width / p beyond each
    end of the bracket, and queries the bracket's midpoint at every step,
    keeping the half whose model disagrees with it.  Then the spurious
    test, and the signed jumps (right minus left), each 0.0 within its
    floor.
    """
    oracle = attack_module._as_oracle(oracle)
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    lo, hi = float(bracket[0]), float(bracket[1])
    width0 = hi - lo
    h = width0 / degree
    left_ts = [lo - j * h for j in range(degree + 1)]
    right_ts = [hi + j * h for j in range(degree + 1)]
    ys = oracle.many(base + np.array(left_ts + right_ts)[:, None] * direction).tolist()
    p_left = np.polynomial.polynomial.Polynomial.fit(left_ts, ys[: degree + 1], degree)
    p_right = np.polynomial.polynomial.Polynomial.fit(right_ts, ys[degree + 1 :], degree)
    m = 0.5 * (lo + hi)
    while hi - lo > attack_module.REFINE_TOL and lo < m < hi:
        fm = oracle(base + m * direction)
        if abs(p_left(m) - fm) <= abs(p_right(m) - fm):
            lo = m
        else:
            hi = m
        m = 0.5 * (lo + hi)
    jump = abs(p_left.deriv()(m) - p_right.deriv()(m))
    jump2 = abs(p_left.deriv(2)(m) - p_right.deriv(2)(m))
    y_scale = 1.0 + max(abs(v) for v in ys)
    w0 = max(width0, 1e-12)
    slope_floor = attack_module.SPURIOUS_TOL * y_scale / w0
    curvature_floor = attack_module.SPURIOUS_TOL * y_scale / w0**2
    if jump <= slope_floor and jump2 <= curvature_floor:
        raise SpuriousKinkError("no kink in bracket")
    loc = base + m * direction
    slope = p_right.deriv()(m) - p_left.deriv()(m)
    curvature = p_right.deriv(2)(m) - p_left.deriv(2)(m)
    return attack_module.KinkPoint(
        t=m,
        location=tuple(float(v) for v in loc),
        line=(tuple(float(v) for v in base), tuple(float(v) for v in direction)),
        slope_jump=float(slope) if jump > slope_floor else 0.0,
        curvature_jump=float(curvature) if jump2 > curvature_floor else 0.0,
    )


def plane_kink_on_background(seed, sixth):
    """|n.w| plus a quartic in u = g.w plus sixth * u^6, on a line crossing the wall at t_wall.

    Returns (f, base, direction, t_wall).  The slope jump along the line is
    2|n.d|, between 1 and 4, and the wall lies at |t| <= 4.
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    n = rng.normal(size=3)
    n *= rng.uniform(0.5, 2.0) / abs(float(n @ direction))
    t_wall = rng.uniform(-4.0, 4.0)
    b = rng.normal(size=3)
    base = b - float(n @ (b + t_wall * direction)) / float(n @ n) * n
    g = rng.normal(size=3)
    g /= np.linalg.norm(g)
    coeffs = rng.uniform(-1.0, 1.0, size=5)

    def f(w):
        w = np.asarray(w, dtype=float)
        u = float(g @ w)
        return abs(float(n @ w)) + sum(c * u**k for k, c in enumerate(coeffs)) + sixth * u**6

    return f, base, direction, -float(n @ base) / float(n @ direction)


class TestRefineAgainstBisection:
    """refine_kink against bisection_refine_kink on one plane kink, at random bracket offsets."""

    def check(self, seed, offset, width, sixth):
        f, base, direction, t_wall = plane_kink_on_background(seed, sixth)
        bracket = (t_wall - offset * width, t_wall + (1.0 - offset) * width)
        queried = []

        def spy(w):
            queried.append(float(np.dot(np.asarray(w) - base, direction)))
            return f(w)

        reference, checked = LossOracle(f), LossOracle(spy)
        expected = bisection_refine_kink(reference, base, direction, bracket, 4)
        kink = refine_kink(checked, base, direction, bracket, 4)
        tol = attack_module.REFINE_TOL
        assert abs(expected.t - t_wall) <= tol
        assert abs(kink.t - t_wall) <= (1e-11 if sixth == 0.0 else tol)
        assert checked.query_count <= reference.query_count - 10
        # the kink is checked by queries: the check pair holds it, at most where the models
        # part by a few tolerances
        below = max(t for t in queried if t < kink.t)
        above = min(t for t in queried if t > kink.t)
        assert above - below <= 1e-6

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.02, 0.98),
        st.floats(0.01, 0.1),
    )
    def test_exact_models(self, seed, offset, width):
        # a quartic background: both models are exact, so the crossing is the wall
        self.check(seed, offset, width, 0.0)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.02, 0.98),
        st.floats(0.01, 0.1),
        st.floats(-1e-6, 1e-6),
    )
    # larger sixth-degree terms, where a pair at REFINE_TOL landed on one side of the wall:
    # both left (first) and both right (second)
    @example(848000030, 0.27, 0.091, 1.6e-05)
    @example(2256630508, 0.694, 0.088, -1.6e-05)
    def test_inexact_models(self, seed, offset, width, sixth):
        # a sixth-degree term the quartic models cannot follow: the windows still read clean,
        # and the crossing stays within REFINE_TOL of the wall
        self.check(seed, offset, width, sixth)


class TestHarvestAndFit:
    def test_fit_hyperplane_exact_points(self):
        rng = np.random.default_rng(0)
        n = np.array([3.0, -1.0, 2.0, 0.5])
        n /= np.linalg.norm(n)
        basis = np.linalg.svd(n[None, :])[2][1:]
        pts = rng.normal(size=(12, 3)) @ basis + 0.7 * n * 0.0
        normal, resid = fit_hyperplane(pts)
        assert resid < 1e-12
        assert abs(float(normal @ n)) > 1.0 - 1e-12

    def test_fit_hyperplane_degenerate(self):
        # all points on a line in R^3: the normal is not unique
        ts = np.linspace(0, 1, 10)
        pts = np.stack([ts, 2 * ts, -ts], axis=1)
        with pytest.raises(DegeneracyError):
            fit_hyperplane(pts)

    def test_fit_hyperplane_needs_enough_points(self):
        with pytest.raises(ValueError):
            fit_hyperplane(np.zeros((3, 4)))

    def test_harvest_points_lie_on_sheet(self):
        n = np.array([1.0, -2.0, 0.5, 1.5])
        n /= np.linalg.norm(n)
        oracle = LossOracle(plane_kink_oracle(n))
        rng = np.random.default_rng(1)
        base = np.array([0.3, 0.4, -0.2, 0.1])
        direction = np.array([1.0, 0.2, -0.1, 0.3])
        direction /= np.linalg.norm(direction)
        kinks = detect_kinks_on_line(oracle, base, direction, (-4, 4), 257, 2)
        assert len(kinks) == 1
        pts = harvest_sheet_points(oracle, kinks[0], 6, 0.01, 2, rng=rng)
        assert pts.shape == (7, 4)
        seed_pt = np.asarray(kinks[0].location)
        for p in pts:
            assert abs(float(n @ p)) < 1e-7
            assert np.linalg.norm(p - seed_pt) <= 0.02 + 1e-9
        normal, resid = fit_hyperplane(pts)
        assert abs(float(normal @ n)) > 1.0 - 1e-9

    def test_curved_sheet_residual_scales_quadratically(self):
        # points on a sphere cap: halving the cap radius quarters the
        # plane-fit residual, so curvature is detectable by rescan
        rng = np.random.default_rng(2)
        R = 1.0
        center = np.array([0.0, 0.0, -R])

        def cap_points(radius):
            xy = rng.normal(size=(40, 2))
            xy /= np.linalg.norm(xy, axis=1, keepdims=True)
            xy *= radius * rng.uniform(0.5, 1.0, size=(40, 1))
            z = np.sqrt(R**2 - np.sum(xy**2, axis=1)) - R
            return np.column_stack([xy, z]) - center * 0.0

        _, r1 = fit_hyperplane(cap_points(0.2))
        _, r2 = fit_hyperplane(cap_points(0.1))
        assert r1 / r2 == pytest.approx(4.0, rel=0.6)


class TestExtraction:
    def test_first_layer_column(self):
        s = NetworkShape([3, 4, 2])
        a = np.array([3.0, -1.0, 2.0])
        normal = np.zeros(s.weight_count)
        col = 2  # second-layer target node
        for i in range(3):
            normal[s.index_of(1, i + 1, col)] = a[i]
        normal /= np.linalg.norm(normal)
        ext = aligned_input_direction(normal, s.width(1))
        assert ext.kind == "input-direction"
        assert ext.node == col
        cos = abs(np.dot(ext.direction, a) / (np.linalg.norm(ext.direction) * np.linalg.norm(a)))
        assert cos > 1.0 - 1e-12

    def test_single_weight(self):
        s = NetworkShape([3, 4, 2])
        normal = np.zeros(s.weight_count)
        normal[17] = -1.0
        ext = aligned_input_direction(normal, s.width(1))
        assert ext == ExtractedDirection("weight-parameter")

    def test_mixed_support_is_nonlinear(self):
        s = NetworkShape([3, 4, 2])
        normal = np.zeros(s.weight_count)
        normal[0] = 1.0
        normal[13] = 1.0
        assert aligned_input_direction(normal, s.width(1)).kind == "nonlinear"

    def test_support_tolerance(self):
        s = NetworkShape([3, 4, 2])
        normal = np.zeros(s.weight_count)
        normal[0], normal[1], normal[2] = 1.0, 2.0, -1.0
        normal[12] = 1e-9  # numerical dust outside the column
        assert aligned_input_direction(normal, s.width(1)).kind == "input-direction"

    def test_support_direction_drops_dust(self):
        # how run_attack reads a gated jump: entries at or below SUPPORT_TOL times the
        # largest go, and the rest is a unit vector whose first nonzero entry is positive
        tol = attack_module.SUPPORT_TOL
        direction = attack_module._support_direction(np.array([1e-3 * tol, -2.0, 2.0 * tol, 1.0]))
        assert direction[0] == direction[2] == 0.0
        assert direction[1:4:2] == pytest.approx((2.0 / math.sqrt(5.0), -1.0 / math.sqrt(5.0)))

    def test_blind_agrees_with_white_box(self):
        s = NetworkShape([3, 4, 2])
        rng = np.random.default_rng(3)
        for col in range(1, 5):
            a = rng.normal(size=3)
            normal = np.zeros(s.weight_count)
            for i in range(3):
                normal[s.index_of(1, i + 1, col)] = a[i]
            b = aligned_input_direction(normal, 3)
            assert b.kind == "input-direction"
            assert b.node == col
            expected = a / np.linalg.norm(a)
            assert np.allclose(b.direction, expected if expected[0] > 0 else -expected)


class TestRecoverArchitecture:
    def test_221_from_enumerated_sheets(self):
        s = NetworkShape([2, 2, 1])
        from losscarto import TrainingSample

        sheets = enumerate_singular_sheets(
            s, [TrainingSample((F(1), F(2)), (F(1),))], 64, seed=0
        )
        assert recover_architecture([sh.poly for sh in sheets]) == (2, 2, 1)

    def test_hand_built_3321(self):
        s = NetworkShape([3, 3, 2, 1])
        x = (F(1), F(2), F(3))
        cols = []
        for j in range(1, 4):
            cols.append(sum((x[i] * V(s.index_of(1, i + 1, j)) for i in range(3)), Poly.zero()))
        # layer-2 rows into each layer-3 node, and the full depth-3 polynomial
        z3 = []
        for j in range(1, 3):
            z3.append(sum((cols[i] * V(s.index_of(2, i + 1, j)) for i in range(3)), Poly.zero()))
        z4 = sum((z3[i] * V(s.index_of(3, i + 1, 1)) for i in range(2)), Poly.zero())
        assert recover_architecture(cols + z3 + [z4]) == (3, 3, 2, 1)

    def test_order_repeats_and_scale_change_nothing(self):
        # the widths are read off variable supports alone
        s = NetworkShape([3, 3, 2, 1])
        samples = [TrainingSample((F(1), F(2), F(3)), (F(1),)),
                   TrainingSample((F(2), F(-1), F(1)), (F(0),))]
        polys = [sh.poly for sh in enumerate_singular_sheets(s, samples, 200, seed=1)]
        assert recover_architecture(polys) == (3, 3, 2, 1)
        for seed in range(20):
            rng = random.Random(seed)
            mixed = polys + rng.choices(polys, k=len(polys))  # every sheet, some twice or more
            rng.shuffle(mixed)
            scaled = [F(rng.choice((-7, -2, -1, 1, 3, 5)), rng.randint(1, 8)) * p for p in mixed]
            assert recover_architecture(scaled) == (3, 3, 2, 1)

    def test_no_linear_sheets(self):
        with pytest.raises(RecoveryError):
            recover_architecture([V(0) * V(4)])

    def test_divisibility_guard(self):
        # a fake degree-2 sheet claiming a single new variable for layer 2
        cols = [V(0) + V(1), V(2) + V(3)]
        bad = (V(0) + V(1)) * V(4)
        with pytest.raises(RecoveryError):
            recover_architecture(cols + [bad])

    def test_sheet_terms_are_k_first_power_variables(self):
        # a layer-2 sheet passes only when each term is two variables to the first power
        cols = [V(0) + V(1), V(2) + V(3)]
        good = (V(0) + V(1)) * V(4) + (V(2) + V(3)) * V(5)
        assert recover_architecture(cols + [good]) == (2, 2, 1)
        squared = (V(0) + V(1)) * V(4) + V(4) * V(4)
        mixed_degree = (V(0) + V(1)) * V(4) + V(5)
        cubic = (V(0) + V(1)) * V(4) * V(4)
        for bad in (squared, mixed_degree, cubic):
            assert recover_architecture(cols + [bad]) == (2, 2)


def true_inputs_of(inst):
    return [tuple(float(v) for v in s.input) for s in inst.samples]


def recovered_samples(report):
    return {m.sample_index for m in report.matches if m.cosine >= attack_module.MATCH_THRESHOLD}


def path_weights(n_weights, input_dim, seed):
    """The path's weights past v: KAPPA * U(0.5, 1.5) from default_rng(seed)."""
    return attack_module.KAPPA * np.random.default_rng(seed).uniform(0.5, 1.5, n_weights - input_dim)


class TestPathOracle:
    """run_attack scans the d_1-variable loss v -> E(v, r), r = KAPPA * U(0.5, 1.5) from the seed."""

    @pytest.mark.parametrize("widths", [(3, 4, 2), (3, 4, 4, 2), (4, 4)])
    def test_rows_are_the_full_oracles_bit_for_bit(self, widths):
        inst = gen_instance(list(widths), 5, 7)
        E, n, d1 = make_oracle(inst), inst.shape.weight_count, widths[0]
        V_ = np.random.default_rng(3).normal(size=(6, d1))
        rest = path_weights(n, d1, 11)
        assert np.all((rest >= 0.5 * attack_module.KAPPA) & (rest < 1.5 * attack_module.KAPPA))
        full = np.hstack([V_, np.tile(rest, (6, 1))])
        path = attack_module._path_oracle(E, n, d1, 11)
        assert path.batched
        assert path(V_).tolist() == E(full).tolist()
        assert [path(v) for v in V_] == [E(w) for w in full]
        unbatched = attack_module._path_oracle(lambda w: E(w), n, d1, 11)
        assert not unbatched.batched
        assert [unbatched(v) for v in V_] == [E(w) for w in full]

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("budget", [200_000, 1_000])
    def test_one_query_per_path_row_against_one_budget(self, batched, budget):
        inst = gen_instance([3, 4, 2], 5, 7)
        E, n = make_oracle(inst), inst.shape.weight_count
        rows = []

        def spy(W):
            rows.extend(np.atleast_2d(W).tolist())
            return E(W)

        spy.batched = batched
        report = run_attack(spy, n, 3, AttackConfig(budget=budget, n_lines=20))  # about 1,300 queries
        assert len(rows) == report.oracle_queries <= budget
        assert report.budget_exhausted == (report.oracle_queries == budget) == (budget == 1_000)
        assert all(row[3:] == path_weights(n, 3, AttackConfig().seed).tolist() for row in rows)

    @pytest.mark.parametrize("widths,samples", [((3, 4, 2), 5), ((4, 6, 3), 6),
                                                ((3, 4, 4, 2), 5), ((5, 8, 8, 2), 8)])
    @pytest.mark.parametrize("seed", [7, 107, 207])
    def test_every_sample_at_the_bench_seeds(self, widths, samples, seed):
        inst = gen_instance(list(widths), samples, seed)
        report = run_attack(make_oracle(inst), inst.shape.weight_count, widths[0], AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert recovered_samples(report) == set(range(samples))
        assert min(m.cosine for m in report.matches) >= attack_module.MATCH_THRESHOLD


def _attack_references():
    refs = json.loads(REFERENCES.read_text())
    return sorted((name, refs[name]) for name in refs if "@" not in name)


@pytest.mark.parametrize("name,counts", _attack_references(), ids=[n for n, _ in _attack_references()])
def test_recall_meets_bench_references(name, counts):
    # every attack instance bench/references.json records, at the default AttackConfig
    # with the bench's 200k budget: none may recover fewer samples than recorded
    widths, samples = name[1:].split("]x")
    widths = [int(w) for w in widths.split(",")]
    below = []
    for seed, want in sorted(counts.items(), key=lambda item: int(item[0])):
        inst = gen_instance(widths, int(samples), int(seed))
        report = run_attack(make_oracle(inst), inst.shape.weight_count, widths[0],
                            AttackConfig(budget=200_000), true_inputs=true_inputs_of(inst))
        if len(recovered_samples(report)) < want:
            below.append((int(seed), len(recovered_samples(report)), want))
    assert not below, f"{name}: (seed, recovered, recorded) {below}"


class TestAttackPipeline:
    def test_warmup_oracle_values(self):
        oracle = warmup_oracle([(1.0, 2.0), (3.0, 1.0)])

        def h(a):
            return oracle(np.add(WARMUP_BASE, np.multiply(a, WARMUP_DIRECTION)))

        assert h(0.0) == pytest.approx(2.5)  # 0.5*4 + 0.5*1
        assert h(-1.0) == pytest.approx(12.5)  # 0.5*9 + 0.5*16
        assert h(5.0) == pytest.approx(0.0)  # both hinges inactive
        assert oracle.query_count == 3

    def test_run_attack_deterministic(self):
        inst = gen_instance([2, 2, 1], 2, seed=11)
        cfg = AttackConfig(n_lines=4, budget=60_000, seed=5)
        reports = []
        for _ in range(2):
            oracle = make_oracle(inst)
            reports.append(run_attack(oracle, 6, 2, cfg))
        a, b = reports
        assert a.oracle_queries == b.oracle_queries
        assert [d.direction for d in a.directions] == [d.direction for d in b.directions]
        assert a.kinks == b.kinks

    @pytest.mark.parametrize("budget", [60_000, 700, 200])  # the whole run takes 371 queries
    def test_batched_oracle_matches_per_row_oracle(self, budget):
        inst = gen_instance([2, 2, 1], 2, seed=11)
        cfg = AttackConfig(n_lines=8, budget=budget, seed=5)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        E = make_oracle(inst)
        ranks = []

        def spy(w):
            ranks.append(np.ndim(w))
            return E(w)

        spy.batched = True
        fast = run_attack(spy, 6, 2, cfg, true_inputs=true_inputs)
        slow = run_attack(lambda w: E(w), 6, 2, cfg, true_inputs=true_inputs)
        assert 2 in ranks and len(ranks) < fast.oracle_queries  # the batch path ran
        assert fast.to_json() == slow.to_json()
        assert fast.kinks == slow.kinks

    @pytest.mark.parametrize("batched", [True, False])
    def test_run_attack_nan_half_space_raises(self, batched):
        inst = gen_instance([2, 2, 1], 2, seed=11)
        E = make_oracle(inst)

        def half(w):
            w = np.asarray(w)
            return np.where(w[..., 0] > 0.0, np.nan, E(w))

        half.batched = batched
        with pytest.raises(NonFiniteLossError):
            run_attack(half, 6, 2, AttackConfig(n_lines=4, budget=60_000, seed=5))

    @pytest.mark.parametrize(
        "n_weights,input_dim",
        [(0, 1), (-1, 1), (True, 1), (6.0, 2), ("6", 2), (6, 0), (6, -1), (6, 7), (6, True), (6, 2.0)],
    )
    def test_bad_arguments_raise_before_any_query(self, n_weights, input_dim):
        calls = []
        with pytest.raises(ValueError, match="n_weights|input_dim"):
            run_attack(lambda w: calls.append(w) or 0.0, n_weights, input_dim, AttackConfig(n_lines=1))
        assert calls == []

    def test_short_true_inputs_raise_before_any_query(self):
        calls = []
        with pytest.raises(ValueError, match="true_inputs"):
            run_attack(lambda w: calls.append(w) or 0.0, 15, 3, AttackConfig(n_lines=1),
                       true_inputs=[(1.0, 2.0)] * 5)
        assert calls == []

    def test_run_attack_respects_budget(self):
        inst = gen_instance([2, 2, 1], 2, seed=11)
        cfg = AttackConfig(n_lines=8, budget=200, seed=5)  # the whole run takes 371 queries
        report = run_attack(make_oracle(inst), 6, 2, cfg)
        assert report.oracle_queries <= 200
        assert report.budget_exhausted and report.stop == "budget"
        assert report.to_json()["budget_exhausted"] is True and report.to_json()["stop"] == "budget"

    def test_line_seeds_are_built_lazily(self, monkeypatch):
        # line i draws from SeedSequence(seed).spawn(n_lines)[i], built only when the
        # line is reached, so a huge n_lines costs nothing before the first query
        for i, child in enumerate(np.random.SeedSequence(5).spawn(4)):
            lazy = np.random.SeedSequence(5, spawn_key=(i,))
            assert np.array_equal(lazy.generate_state(8), child.generate_state(8))
        built, spawned = [], []

        class Spy(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("spawn_key", ()))
                super().__init__(*args, **kwargs)

            def spawn(self, n_children):
                spawned.append(n_children)
                return []

        monkeypatch.setattr(np.random, "SeedSequence", Spy)
        inst = gen_instance([2, 2, 1], 2, seed=11)
        cfg = AttackConfig(n_lines=10**9, budget=100, seed=5)
        report = run_attack(make_oracle(inst), 6, 2, cfg)
        assert report.budget_exhausted
        assert spawned == []
        assert 1 <= len(built) <= 3 and built == [(i,) for i in range(len(built))]

    def test_oracle_budget_inside_refine_sets_exhausted(self):
        inst = gen_instance([3, 4, 2], 5, 7)
        E = make_oracle(inst)
        batches = []

        def spy(W):
            batches.append(len(W))
            return E(W)

        spy.batched = True
        report = run_attack(spy, inst.shape.weight_count, 3, AttackConfig(budget=GRID + 6 + 3))
        assert batches == [GRID + 6, 3]  # the first line's grid, then a cut first round
        assert report.budget_exhausted
        assert report.oracle_queries == GRID + 6 + 3

    def test_flat_kinks_are_triangulated(self, monkeypatch):
        # walls v_1 = 0 and v_2 = 0 that are both flat: the slope never jumps, so both share
        # fingerprint 0 and fit no single wall; the split parts them, and each is read from its
        # curvature equations, exactly.  Flat kinks cost the grid alone, with no check
        batches, walls = [], spy_on(monkeypatch, "_split")

        def spy(W):
            batches.append(len(W))
            return flat_walls(W)

        spy.batched = True
        report = run_attack(spy, 6, 2, AttackConfig(n_lines=4), true_inputs=[(1.0, 0.0), (0.0, 1.0)])
        assert sorted(d.direction for d in report.directions) == [(0.0, 1.0), (1.0, 0.0)]
        assert recovered_samples(report) == {0, 1}
        assert report.rejections == {"faint": 0, "unmatched": 0} and report.stop == "explained"
        assert walls and len(walls[-1]) == 2
        assert batches == [GRID + 6] * report.lines_scanned and report.oracle_queries == sum(batches)

    def test_one_hot_input_is_recovered(self):
        # sample 0's input (0, 3/2, 0) has the path wall v_1 = 0, a jump on one coordinate
        inst = gen_instance([3, 4, 2], 5, 7)
        one_hot = TrainingSample((F(0), F(3, 2), F(0)), inst.samples[0].output)
        inst = dataclasses.replace(inst, samples=(one_hot, *inst.samples[1:]))
        report = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert recovered_samples(report) == set(range(5))
        assert (0.0, 1.0, 0.0) in [d.direction for d in report.directions]

    @pytest.mark.parametrize("widths,samples", [((3, 4, 2), 5), ((4, 6, 3), 6)])
    @pytest.mark.parametrize("seed", [7, 107, 207])
    def test_gradient_jump_directions_are_true_inputs(self, widths, samples, seed):
        # every direction is solved from the slope and curvature jumps of its wall's kinks, and
        # is its sample's input to float noise
        inst = gen_instance(list(widths), samples, seed)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(make_oracle(inst), inst.shape.weight_count, widths[0],
                            AttackConfig(), true_inputs=true_inputs)
        solved = [i for i, d in enumerate(report.directions) if d.provenance == "triangulated"]
        assert solved and len(solved) == len(report.directions)
        assert all(d.residual <= attack_module.FIT_TOL for d in report.directions)
        cosine = {m.direction_index: m.cosine for m in report.matches}
        assert all(cosine[i] >= 1.0 - 1e-9 for i in solved)

    @pytest.mark.parametrize("widths,samples", [((3, 4, 2), 5), ((3, 4, 4, 2), 5)])
    def test_path_kinks_are_the_true_walls(self, monkeypatch, widths, samples):
        # white-box reference: path line i meets sample p's wall v . x_p = 0 at
        # t = -(base . x_p) / (direction . x_p); the kinks of each line's scan are exactly
        # the walls in the scan range, each once, to float noise
        inst = gen_instance(list(widths), samples, 7)
        X = np.array(true_inputs_of(inst))
        scan, lines = attack_module.detect_kinks_on_line, []

        def spy_scan(oracle, base, direction, *args):
            kinks = scan(oracle, base, direction, *args)
            lines.append((-(X @ base) / (X @ direction), kinks))
            return kinks

        monkeypatch.setattr(attack_module, "detect_kinks_on_line", spy_scan)
        report = run_attack(make_oracle(inst), inst.shape.weight_count, widths[0], AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert recovered_samples(report) == set(range(samples))
        lo, hi = attack_module.T_RANGE
        assert len(lines) == report.lines_scanned >= AttackConfig().n_lines
        for walls, kinks in lines:
            assert [k.t for k in kinks] == pytest.approx(np.sort(walls[(walls >= lo) & (walls <= hi)]), abs=1e-11)

    @pytest.mark.parametrize("widths,samples", [((3, 4, 2), 5), ((3, 4, 4, 2), 5)])
    def test_crossing_check_matches_bisection_end_to_end(self, monkeypatch, widths, samples):
        # every kink of the attack's path scans, settled by crossing and check, is where pure
        # bisection of a bracket about it puts it, with the same slope jump and the same signs of
        # both jumps; and the whole attack costs fewer queries than those bisections alone
        inst = gen_instance(list(widths), samples, 7)
        n, X = inst.shape.weight_count, np.array(true_inputs_of(inst))
        scan, lines = attack_module.detect_kinks_on_line, []

        def spy_scan(oracle, base, direction, *args):
            kinks = scan(oracle, base, direction, *args)
            lines.append((base, direction, kinks))
            return kinks

        monkeypatch.setattr(attack_module, "detect_kinks_on_line", spy_scan)
        report = run_attack(make_oracle(inst), n, widths[0], AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert recovered_samples(report) == set(range(samples))
        reference = LossOracle(attack_module._path_oracle(make_oracle(inst), n, widths[0], 0))
        lo, hi = attack_module.T_RANGE
        spacing, tol = (hi - lo) / (attack_module.GRID - 1), attack_module.REFINE_TOL
        bisected = 0
        for base, direction, kinks in lines:
            walls = -(X @ base) / (X @ direction)
            for kink in kinks:
                # a bracket off-centre about the kink whose side models reach no other wall
                gap = min([spacing] + [abs(w - kink.t) for w in walls if abs(w - kink.t) > 1e-6])
                expected = bisection_refine_kink(
                    reference, base, direction, (kink.t - 0.3 * gap, kink.t + 0.2 * gap), 2)
                bisected += 1
                assert abs(expected.t - kink.t) <= tol
                assert kink.slope_jump == pytest.approx(expected.slope_jump, rel=1e-6) and expected.slope_jump
                # the scan's wider window may put a faint curvature jump below its floor, never on
                # the wrong side
                assert np.sign(kink.curvature_jump) in (0, np.sign(expected.curvature_jump))
        assert bisected == len(report.kinks) > 0
        assert report.oracle_queries < reference.query_count

    def test_float32_oracle_ends_under_budget(self):
        # float32 rounding of every loss value: the first grid's own noise floor sets the window
        # tolerance, and the scan stops splitting noise, so the three instances end well under
        # budget and say so; no noisy kink is read as a wrong direction
        queries = 0
        for seed in (7, 107, 207):
            inst = gen_instance([3, 4, 2], 5, seed)
            E = make_oracle(inst)

            def rounded(W):
                return np.asarray(E(W), dtype=np.float32).astype(float)

            rounded.batched = True
            report = run_attack(rounded, inst.shape.weight_count, 3, AttackConfig(),
                                true_inputs=true_inputs_of(inst))
            assert not report.budget_exhausted and report.stop in ("explained", "stalled")
            assert all(m.cosine >= attack_module.MATCH_THRESHOLD for m in report.matches)
            queries += report.oracle_queries
        assert queries < 20_000

    def test_rejections_by_reason(self, monkeypatch):
        # [3,4,4,2]x5 seed 7: every kink is faint or on a solved wall, the reasons sum to
        # rejected_sheets, and every tolerance that is a heuristic says so
        inst = gen_instance([3, 4, 4, 2], 5, 7)
        report = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig())
        data = report.to_json()
        assert set(data["rejections"]) == {"faint", "unmatched"}
        assert sum(data["rejections"].values()) == data["rejected_sheets"] == report.rejected_sheets
        assert data["rejections"]["unmatched"] == 0 and data["stop"] == "explained"
        assert data["lines_scanned"] == report.lines_scanned >= AttackConfig().n_lines
        for key in ("kappa", "fingerprint_tol", "fit_tol", "split_draws", "noise_factor"):
            assert data[key] == getattr(attack_module, key.upper()) and "heuristic" in data[key + "_note"]
        assert not {key for key in data if key.startswith(("jump_gate", "off_wall"))}
        # a fit no wall can pass: every kink with a curvature jump is unmatched, the scan stalls
        # n_lines lines after its first solve, and nothing is read; its first lines are the same
        monkeypatch.setattr(attack_module, "FIT_TOL", 0.0)
        strict = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig())
        faint = strict.rejections["faint"]
        assert strict.rejections == {"faint": faint, "unmatched": len(strict.kinks) - faint}
        assert strict.stop == "stalled" and strict.lines_scanned == 2 * AttackConfig().n_lines
        assert not strict.directions and strict.kinks[: len(report.kinks)] == report.kinks

    def test_oracle_budget_inside_scan_batch_sets_exhausted(self):
        # [3,4,2]x5 seed 7: a budget that ends inside the first subdivision round of the last
        # line cuts that batch to the rows that fit and ends the run there; the report says so,
        # and every direction read from the lines before is its sample's
        inst = gen_instance([3, 4, 2], 5, 7)
        n = inst.shape.weight_count
        E = make_oracle(inst)
        batches = []

        def spy(W):
            batches.append(len(np.atleast_2d(W)))
            return E(W)

        spy.batched = True
        full = run_attack(spy, n, 3, AttackConfig())
        grids = [i for i, size in enumerate(batches) if size == GRID + 6]
        assert len(grids) == full.lines_scanned and batches[grids[-1] + 1] > 5
        budget = sum(batches[: grids[-1] + 1]) + 5
        batches.clear()
        report = run_attack(spy, n, 3, AttackConfig(budget=budget), true_inputs=true_inputs_of(inst))
        assert batches[-1] == 5  # the batch is cut to the rows that fit
        assert report.budget_exhausted and report.stop == "budget"
        assert report.oracle_queries == budget and report.lines_scanned == full.lines_scanned - 1
        assert report.directions and all(m.cosine >= attack_module.MATCH_THRESHOLD for m in report.matches)

    def test_report_round_trip(self):
        inst = gen_instance([2, 2, 1], 1, seed=2)
        cfg = AttackConfig(n_lines=3, budget=40_000, seed=1)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(make_oracle(inst), 6, 2, cfg, true_inputs=true_inputs)
        data = report.to_json()
        assert data["oracle_queries"] == report.oracle_queries
        assert not report.budget_exhausted and data["budget_exhausted"] is False
        assert {"kappa_note", "fingerprint_tol_note", "fit_tol_note", "split_draws_note"} <= set(data)
        assert not {"weight_sheets", "residual_tol", "residual_tol_note"} & set(data)
        assert data["lines_scanned"] == report.lines_scanned and data["stop"] == report.stop
        assert all(d["provenance"] == "triangulated" for d in data["directions"])
        csv = report.kink_csv()
        assert csv.splitlines()[0] == "line_id,t,jump,refined"
        assert len(csv.splitlines()) == len(report.kinks) + 1

    def test_report_kinks_are_the_scans_kinks(self, monkeypatch):
        # report.kinks is every KinkPoint the line scans returned, in order, with its line id,
        # and the kink CSV is read off it: the slope jump's size, 0.0 within its floor
        inst = gen_instance([3, 4, 2], 5, 7)
        scans = spy_on(monkeypatch, "detect_kinks_on_line")
        report = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig())
        assert len(scans) == report.lines_scanned
        assert report.kinks == [(line_id, k) for line_id, kinks in enumerate(scans) for k in kinks]
        assert report.to_json()["kink_count"] == len(report.kinks) > 0
        rows = report.kink_csv().splitlines()
        assert rows[0] == "line_id,t,jump,refined"
        assert rows[1:] == [f"{line_id},{k.t!r},{abs(k.slope_jump)!r},true" for line_id, k in report.kinks]

    def test_config_json_keys(self):
        cfg = AttackConfig.from_json({"budget": 1000, "n_lines": 5, "seed": 3})
        assert (cfg.budget, cfg.n_lines, cfg.seed) == (1000, 5, 3)
        assert AttackConfig.from_json({}) == AttackConfig()
        bad_configs = [
            {"warp": 1}, {"paths": ["hyperplane"]}, {"budget": 0}, {"budget": "x"},
            {"budget": 2.5}, {"n_lines": 0}, {"refine_budget": -1}, {"retries": -1},
            {"grid": 4}, {"t_range": [1, 0]}, {"t_range": [0, 0]}, {"degree": 0}, {"seed": -1},
            {"t_range": "12"}, {"t_range": [True, 2]},
            # any other key, even one naming a module constant at its value
            {"tol": 12.0}, {"radius": 1e-3}, {"grid": 257}, {"probe_scale": 1.0},
            {"n_lines": True}, {"seed": 1.0},
        ]
        for bad in bad_configs:
            with pytest.raises(ValueError):
                AttackConfig.from_json(bad)

    def test_hyperplane_path_on_small_instance(self):
        inst = gen_instance([2, 2, 1], 1, seed=3)
        cfg = AttackConfig(n_lines=3, budget=100_000, seed=2)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(make_oracle(inst), 6, 2, cfg, true_inputs=true_inputs)
        assert any(m.cosine > 0.999 for m in report.matches)

    @pytest.mark.parametrize("seed", [7, 107, 207])
    def test_noisy_duplicate_walls_are_deduplicated(self, monkeypatch, seed):
        # relative noise of 1e-10 splits a fingerprint group, so one sample's wall comes
        # back more than once (9, 15 and 26 walls for 5 samples); the directions
        # keep one of each, and every sample is still recovered
        inst = gen_instance([3, 4, 2], 5, seed)
        exact, rng = make_oracle(inst), np.random.default_rng(0)

        def noisy(W):
            y = exact(W)
            return y * (1.0 + 1e-10 * rng.normal(size=np.shape(y)))

        noisy.batched = True
        walls = spy_on(monkeypatch, "_walls")
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(noisy, inst.shape.weight_count, 3, AttackConfig(seed=7), true_inputs=true_inputs)
        assert len(report.directions) < len(walls[-1])
        D = np.array([d.direction for d in report.directions])
        cos = np.abs(D @ D.T)[np.triu_indices(len(D), 1)]
        assert (cos < 1.0 - attack_module.DEDUP_TOL).all()
        recovered = {m.sample_index for m in report.matches if m.cosine >= attack_module.MATCH_THRESHOLD}
        assert recovered == set(range(5))


def one_hot_labels(inst):
    """inst with sample i's output the one-hot vector of output i mod d_L."""
    d_out = inst.shape.widths[-1]
    return dataclasses.replace(inst, samples=tuple(
        TrainingSample(s.input, tuple(F(int(o == i % d_out)) for o in range(d_out)))
        for i, s in enumerate(inst.samples)))


def spy_on(monkeypatch, name):
    """Record every result of attack_module.<name> while the test runs."""
    results, real = [], getattr(attack_module, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(attack_module, name, spy)
    return results


class TestTriangulation:
    """run_attack solves each wall v . x_p = 0 from the kinks on it, with no query past the scan."""

    @pytest.mark.parametrize("widths", [(3, 4, 2), (3, 4, 4, 2)])
    def test_curvature_root_is_one_scale_over_every_sample(self, monkeypatch, widths):
        # across sample p's wall the path pieces differ by alpha u^2 + beta_p u, u = v . x_p, with
        # one alpha for all samples: each kink's signed root of the curvature jump, m_k, is
        # sqrt(2 alpha) (d . x_p), which is what the solve rests on.  A kink 0.014 from its
        # neighbour reads its models through subdivided points 1e-3 apart, so the scale holds to
        # a relative 1e-8 (the fit tolerance is 1e-7)
        inst = gen_instance(list(widths), 5, 7)
        X = np.array(true_inputs_of(inst))
        scan, scans = attack_module.detect_kinks_on_line, []

        def spy_scan(oracle, base, direction, *args):
            scans.append((direction, scan(oracle, base, direction, *args)))
            return scans[-1][1]

        monkeypatch.setattr(attack_module, "detect_kinks_on_line", spy_scan)
        run_attack(make_oracle(inst), inst.shape.weight_count, widths[0], AttackConfig())
        scales, fingerprints = [], {}
        for direction, kinks in scans:
            for k in kinks:
                p = int(np.argmin(np.abs(X @ np.array(k.location)) / np.linalg.norm(X, axis=1)))
                s, c = k.slope_jump, k.curvature_jump
                if c:
                    scales.append(math.copysign(math.sqrt(abs(c)), c) / float(direction @ X[p]))
                    fingerprints.setdefault(p, []).append(s * abs(s) / abs(c))
        assert len(scales) >= 25 and min(scales) > 0.0
        assert np.ptp(scales) <= 1e-8 * np.median(scales)
        # and each sample's fingerprint is one number, within the grouping tolerance
        assert len(fingerprints) == 5
        assert all(np.ptp(f) <= attack_module.FINGERPRINT_TOL * np.abs(f).max() for f in fingerprints.values())

    @pytest.mark.parametrize("widths", [(3, 4, 2), (3, 4, 4, 2)])
    def test_directions_match_the_exact_layer_1_sheets(self, widths):
        # white-box reference: each sample's layer-1 walls, from enumerate_singular_sheets, are
        # linear in one first-layer column with the sample's input as coefficients
        inst = gen_instance(list(widths), 5, 7)
        d1 = widths[0]
        exact = {}
        for sheet in enumerate_singular_sheets(inst.shape, inst.samples, 64, seed=0):
            columns = {v // d1 for v in sheet.poly.variables()}  # layer-1 column q is node q + 1's row of W_1
            if sheet.poly.total_degree() == 1 and len(columns) == 1 and max(columns) < widths[1]:
                vec = np.zeros(d1)
                for key, c in sheet.poly.terms:
                    vec[key[0][0] % d1] = float(c)
                exact.setdefault(sheet.sample_index, vec / np.linalg.norm(vec))
        assert sorted(exact) == list(range(5))
        report = run_attack(make_oracle(inst), inst.shape.weight_count, d1, AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert len(report.matches) == len(report.directions) == 5
        for m in report.matches:
            direction = report.directions[m.direction_index].direction
            assert abs(float(np.dot(direction, exact[m.sample_index]))) >= 1.0 - 1e-9

    @pytest.mark.parametrize("widths,samples", [((3, 4, 2), 5), ((4, 6, 3), 6)])
    def test_one_hot_labels_are_split(self, monkeypatch, widths, samples):
        # one-hot labels give samples whose other layer-2 nodes stay off the same beta_p, so their
        # fingerprints collide; the split parts their walls, and every sample comes back
        inst = one_hot_labels(gen_instance(list(widths), samples, 7))
        splits = spy_on(monkeypatch, "_split")
        report = run_attack(make_oracle(inst), inst.shape.weight_count, widths[0], AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert recovered_samples(report) == set(range(samples))
        assert min(m.cosine for m in report.matches) >= attack_module.MATCH_THRESHOLD
        assert any(len(walls) >= 2 for walls in splits)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_colliding_fingerprints(self, monkeypatch, seed):
        # samples 0 and 1 get one label and inputs with every entry at most 0: every path weight
        # past v is positive, so no other layer-2 node turns on for them, B_p = 0 and their
        # fingerprints are equal.  Each is recovered or its kinks are counted unmatched, and no
        # direction is a wrong one
        inst = gen_instance([3, 4, 2], 5, 7)
        s0, s1 = inst.samples[:2]
        colliding = tuple(TrainingSample(tuple(-abs(v) for v in s.input), s0.output) for s in (s0, s1))
        inst = dataclasses.replace(inst, samples=colliding + inst.samples[2:])
        scans = spy_on(monkeypatch, "detect_kinks_on_line")
        report = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig(seed=seed),
                            true_inputs=true_inputs_of(inst))
        X = np.array(true_inputs_of(inst))
        prints = {0: [], 1: []}
        for k in (k for kinks in scans for k in kinks if k.curvature_jump):
            p = int(np.argmin(np.abs(X @ np.array(k.location)) / np.linalg.norm(X, axis=1)))
            if p in prints:
                prints[p].append(k.slope_jump * abs(k.slope_jump) / abs(k.curvature_jump))
        both = prints[0] + prints[1]
        assert prints[0] and prints[1] and np.ptp(both) <= attack_module.FINGERPRINT_TOL * np.abs(both).max()
        assert all(p in recovered_samples(report) or report.rejections["unmatched"] for p in (0, 1))
        assert all(m.cosine >= attack_module.MATCH_THRESHOLD for m in report.matches)

    @pytest.mark.parametrize("widths,samples,least", [((8, 30, 30, 30, 4), 16, 45), ((10, 50, 50, 5), 20, 57)])
    def test_wide_shapes(self, widths, samples, least):
        # the small kappa keeps each kink clear of the other samples' offsets at width
        recovered = 0
        for seed in (7, 107, 207):
            inst = gen_instance(list(widths), samples, seed)
            report = run_attack(make_oracle(inst), inst.shape.weight_count, widths[0], AttackConfig(),
                                true_inputs=true_inputs_of(inst))
            assert all(m.cosine >= attack_module.MATCH_THRESHOLD for m in report.matches)
            recovered += len(recovered_samples(report))
        assert recovered >= least
