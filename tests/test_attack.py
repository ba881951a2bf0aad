import dataclasses
import json
import math
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
        assert kinks[0].jump_magnitude == pytest.approx(2.0, rel=1e-9)

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
        assert [k.jump_magnitude for k in kinks] == pytest.approx([0.02, 10.0], rel=1e-9)

    def test_bad_degree_or_grid_is_rejected_before_any_query(self):
        oracle = warmup_oracle([(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)])
        line = (WARMUP_BASE, WARMUP_DIRECTION, (-4, 4))
        for grid, degree in ((GRID, 0), (GRID, -1), (GRID, 2.0), (GRID, True), (1, 2), (33.0, 2)):
            with pytest.raises(ValueError, match="degree|grid"):
                detect_kinks_on_line(oracle, *line, grid, degree)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("pairs,queries", [
        ([(1.0, 2.0), (3.0, 1.0)], GRID + 6),
        ([(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)], GRID + 6),
    ], ids=["criterion-1", "demo-01"])
    def test_warmup_line_matches_its_own_loop(self, pairs, queries):
        # the network's loss on the warm-up line against h(a) summed in its own loop: the
        # same kinks bit for bit, for the same queries (the grid alone: every warm-up kink is
        # flat), each at its hinge y / x, and no flat kink gets a jump batch
        net, ref = warmup_oracle(pairs), fsum_warmup(pairs)
        got = detect_kinks_on_line(net, WARMUP_BASE, WARMUP_DIRECTION, (-4.0, 4.0), GRID, 2)
        want = detect_kinks_on_line(ref, [0.0], [1.0], (-4.0, 4.0), GRID, 2)
        assert [k.t for k in got] == pytest.approx(sorted(y / x for x, y in pairs), abs=1e-13)
        assert [(k.t, k.curvature_jump) for k in got] == [(k.t, k.curvature_jump) for k in want]
        assert net.query_count == ref.query_count == queries
        assert all(k.gradient_jump is k.jump_agreement is k.rejection is None for k in got)

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
        # breakpoint once, to float noise, with its slope jump, and no other kink
        breaks = list(np.cumsum([gap for gap, _, _ in steps]) - 3.9 + phase * 0.25)
        breaks = [b for b in breaks if b < 3.9]
        jumps = [jump for _, jump, _ in steps][: len(breaks)]
        curvatures = [curvature for _, _, curvature in steps][: len(breaks)]
        oracle = LossOracle(piecewise_quadratic(breaks, jumps, curvatures))
        kinks = detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)
        assert [k.t for k in kinks] == pytest.approx(breaks, abs=1e-9)
        assert [k.jump_magnitude for k in kinks] == pytest.approx(np.abs(jumps), rel=1e-6)

    def test_tight_cluster_is_found(self):
        # four unit kinks 2-3 spacings of the (-4, 4) x 257 grid apart, at its cells 9, 11, 14
        # and 17, on a 0.2 t^2 background: no rolling scale to hide them, each found exactly
        spots = [-4.0 + (cell + 0.37) / 32 for cell in (9, 11, 14, 17)]
        oracle = LossOracle(piecewise_quadratic(spots, [2.0] * 4, [0.0] * 4, (0.0, 0.0, 0.2)))
        kinks = detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), GRID, 2)
        assert [k.t for k in kinks] == pytest.approx(spots, abs=1e-12)
        assert [k.jump_magnitude for k in kinks] == pytest.approx([2.0] * 4, rel=1e-9)
        assert oracle.query_count <= 100  # the jump batch, 8 rows per kink, included

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
        # the oracle's budget is the only one a refine has; its grid (queries 1-9), its check
        # pair (10 and 11) or its jump batch (12-19) that crosses it is charged up to it, then raises
        def f(w):
            return np.abs(np.asarray(w)[..., 0] - 0.15)

        f.batched = batched
        oracle = LossOracle(f, budget=max_queries)
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
    def test_first_order_kink_costs_stencil_check_and_jump(self):
        # exact quadratic pieces: the models cross on the wall and the check settles it
        n = np.array([1.0, -2.0, 0.5, 1.5, 0.0])
        direction = np.array([1.0, 0.2, -0.1, 0.3, 0.4])
        direction /= np.linalg.norm(direction)
        base = np.array([0.3, 0.4, -0.2, 0.1, 0.7])
        at = -float(n @ base) / float(n @ direction)
        bracket = (at - 0.03, at + 0.04)
        stencil = 3 + 2 * 3  # refine_kink's grid at degree 2: 3 points and 3 spacings beyond each end
        stencil_check = stencil + 2
        f = plane_kink_oracle(n)
        batches = []

        def spy(W):
            batches.append(len(np.atleast_2d(W)))
            return np.apply_along_axis(f, -1, W)

        spy.batched = True
        oracle = LossOracle(spy)
        kink = refine_kink(oracle, base, direction, bracket, 2)
        assert abs(float(n @ np.asarray(kink.location))) < 1e-12
        assert oracle.query_count == stencil_check + 8 * 5
        # one batch each: stencil, check, and the jump's 8 rows per coordinate of the line
        assert batches == [stencil, 2, 8 * 5]
        # |n.w| jumps by 2n; the Richardson jump has no spill off the support
        J = np.asarray(kink.gradient_jump)
        assert np.allclose(J, 2 * n if float(J @ n) > 0 else -2 * n, atol=1e-6)
        assert kink.jump_agreement > 1.0 - 1e-9 and kink.rejection is None
        # an unbatched oracle is asked row by row: the same queries and the same kink, bit for bit
        rows = LossOracle(f)
        assert refine_kink(rows, base, direction, bracket, 2) == kink
        assert rows.query_count == stencil_check + 8 * 5

    def test_flat_kink_gets_no_jump(self):
        direction = np.ones(4) / 2.0
        batches = []

        def spy(W):
            batches.append(len(W))
            return flat_walls(W)

        spy.batched = True
        kinks = detect_kinks_on_line(LossOracle(spy), [1.0, 2.0, 3.0, 4.0], direction, (-9, 0), 257, 2)
        assert [k.t for k in kinks] == pytest.approx([-8.0, -6.0, -4.0, -2.0], abs=1e-12)
        assert 8 * 4 not in batches  # no jump batch
        assert all(k.rejection is None for k in kinks)
        assert all(k.gradient_jump is None for k in kinks)
        assert all(k.jump_agreement is None for k in kinks)

    @pytest.mark.parametrize("gap,gated", [(0.75, True), (3.0, False)])
    def test_second_wall_within_offset_fails_the_gate(self, gap, gated):
        # wall 1 (w0 = c0) carries nearly all the slope jump along the line; wall 2 (w1 = c1),
        # orthogonal to it, crosses the line gap * s further on.  Within s, its jump adds to
        # J(s) in full and to J(s/2) barely.  The scan parts the two walls.
        s = attack_module.JUMP_OFFSET
        direction = np.array([0.6, 0.01, 0.0, 0.8])
        direction /= np.linalg.norm(direction)
        t1 = 0.3
        c0, c1 = direction[0] * t1, direction[1] * (t1 + gap * s)

        def two_walls(w):
            w = np.asarray(w)
            return abs(w[0] - c0) + abs(w[1] - c1) + 0.1 * float(w @ w)

        # the jump batch's two offsets decide
        kinks = detect_kinks_on_line(LossOracle(two_walls), np.zeros(4), direction, (-4, 4), 257, 2)
        assert [k.t for k in kinks] == pytest.approx([t1, t1 + gap * s], abs=1e-12)
        assert (kinks[0].jump_agreement < attack_module.JUMP_GATE) is gated
        assert kinks[0].rejection == ("jump-gate" if gated else None)
        if not gated:  # wall 1 alone: its jump is on w0 only
            J = np.abs(kinks[0].gradient_jump)
            assert np.flatnonzero(J > attack_module.SUPPORT_TOL * J.max()).tolist() == [0]


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
    test and, for a kink whose slope jumps, the gradient jump.
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
    if jump <= slope_floor and jump2 <= attack_module.SPURIOUS_TOL * y_scale / w0**2:
        raise SpuriousKinkError("no kink in bracket")
    loc = base + m * direction
    gradient_jump = agreement = rejection = None
    if jump > slope_floor:
        [(J, agreement, rejection)] = attack_module._gradient_jumps(oracle, loc[None], direction, [jump])
        if J is not None:
            gradient_jump = tuple(float(v) for v in J)
    return attack_module.KinkPoint(
        t=m,
        location=tuple(float(v) for v in loc),
        line=(tuple(float(v) for v in base), tuple(float(v) for v in direction)),
        jump_magnitude=float(jump),
        curvature_jump=float(jump2),
        gradient_jump=gradient_jump,
        jump_agreement=agreement,
        rejection=rejection,
    )


def full_gradient_jump(oracle, point, direction):
    """(J, |cos(J(s), J(s/2))|) over all N coordinates from one 8N-row batch: the reference.

    Central differences along every coordinate at +-s and +-s/2 off the
    wall, Richardson-combined.  The agreement is at most 1, and 0 when
    either jump is zero.
    """
    n = len(point)
    h, s = attack_module.JUMP_STEP, attack_module.JUMP_OFFSET
    unit = direction / float(np.linalg.norm(direction))
    centers = point + np.array([s, -s, s / 2, -s / 2])[:, None] * unit  # (4, N)
    steps = np.concatenate([h * np.eye(n), -h * np.eye(n)])  # (2N, N)
    ys = oracle.many((centers[:, None, :] + steps[None, :, :]).reshape(-1, n))
    ys = ys.reshape(4, 2, n)
    grads = (ys[:, 0] - ys[:, 1]) / (2.0 * h)  # (4, N): at +s, -s, +s/2, -s/2
    jump_s, jump_half = grads[0] - grads[1], grads[2] - grads[3]
    norms = float(np.linalg.norm(jump_s)) * float(np.linalg.norm(jump_half))
    agreement = min(1.0, abs(float(np.dot(jump_s, jump_half))) / norms) if norms > 0.0 else 0.0
    return 2.0 * jump_half - jump_s, agreement


def random_line_kinks(oracle, n_weights, degree, n_lines=12, seed=0):
    """Kinks of the scan run_attack ran before its path lines: random lines in all N weights.

    Line i draws base and direction from SeedSequence(seed) child i, as
    run_attack draws its path lines, and is scanned at degree (2 per
    weight layer), each kink with its gradient jump over all N weights.
    """
    kinks = []
    for line_id in range(n_lines):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(line_id,)))
        base = rng.normal(size=n_weights)
        direction = rng.normal(size=n_weights)
        direction /= np.linalg.norm(direction)
        kinks += detect_kinks_on_line(oracle, base, direction, attack_module.T_RANGE, GRID, degree)
    return kinks


def walls_through_a_point(seed, supports, n_weights):
    """sum_k |n_k . w| plus a bowl, each n_k on its own support, and a point on every wall.

    Returns (batched f, point, unit direction d, the true J . d).  Entries
    of each n_k have magnitudes in [0.5, 2].  d crosses the walls at a
    clear angle: |n_k . d| is at least 0.1 max|n_k|, so no central-difference
    step straddles a wall, and J . d = 2 sum_k |n_k . d| is at least 0.1.
    """
    rng = np.random.default_rng(seed)
    normals = np.zeros((len(supports), n_weights))
    for k, support in enumerate(supports):
        normals[k, support] = rng.choice([-1.0, 1.0], len(support)) * rng.uniform(0.5, 2.0, len(support))
    b = rng.normal(size=n_weights)
    point = b - np.linalg.lstsq(normals, normals @ b, rcond=None)[0]  # on every wall
    while True:
        direction = rng.normal(size=n_weights)
        direction /= np.linalg.norm(direction)
        along = normals @ direction
        if np.all(np.abs(along) >= 0.1 * np.max(np.abs(normals), axis=1)):
            break
    jump = 2.0 * np.sign(along) @ normals

    def f(w):
        w = np.asarray(w, dtype=float)
        return np.sum(np.abs(w @ normals.T), axis=-1) + 0.1 * np.sum(w * w, axis=-1)

    f.batched = True
    return f, point, direction, float(jump @ direction)


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


class TestJumpAgainstFullJump:
    """_gradient_jumps against full_gradient_jump, on walls through one point.

    N = 11 with supports laid out as for d_1 = 3, and N = d_1 = 3 as on
    run_attack's path lines.
    """

    KINDS = {  # a wall's support in N weights, from its own rng
        "first-layer column": lambda rng, n: [3 * int(rng.integers(n // 3)) + i for i in range(3)],
        "two columns": lambda rng, n: [i for q in rng.choice(n // 3 + 1, 2, replace=False)
                                       for i in range(3 * q, min(3 * q + 3, n))],
        "single weight": lambda rng, n: [int(rng.integers(n))],
        "last two weights": lambda rng, n: [n - 2, n - 1],
    }

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([11, 3]),
        st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=2),
    )
    def test_jump_is_the_full_jump_bit_for_bit(self, seed, n, kinds):
        rng = np.random.default_rng(seed)
        supports = [sorted(set(self.KINDS[kind](rng, n))) for kind in kinds]
        f, point, unit, along = walls_through_a_point(seed, supports, n)
        J_full, agreement_full = full_gradient_jump(LossOracle(f), point, unit)
        oracle = LossOracle(f)
        [(J, agreement, rejection)] = attack_module._gradient_jumps(oracle, point[None], unit, [along])
        assert oracle.query_count == 8 * n  # one batch, 8 rows per coordinate
        assert agreement == agreement_full >= attack_module.JUMP_GATE
        assert rejection is None and J.tolist() == J_full.tolist()
        # beside other points in one batch, each point's jump is the same bit for bit
        others = point + np.outer([0.5, -1.5], unit)
        verdicts = attack_module._gradient_jumps(LossOracle(f), np.vstack([others[:1], point, others[1:]]),
                                                 unit, [along] * 3)
        assert verdicts[1][0].tolist() == J.tolist() and verdicts[1][1] == agreement

    def test_zero_jump_is_a_gate_rejection(self, monkeypatch):
        # J(s) = 2 J(s/2) exactly: the two offsets agree (|cos| 1.0) on a Richardson jump of 0
        measure, calls = attack_module._jump_pairs, []

        def cancelling(*args):
            jump_s, jump_half = measure(*args)
            calls.append(jump_s.shape)
            return 2.0 * jump_half, jump_half

        monkeypatch.setattr(attack_module, "_jump_pairs", cancelling)
        f, point, unit, along = walls_through_a_point(5, [[3, 4, 5]], 11)
        verdicts = attack_module._gradient_jumps(LossOracle(f), point[None], unit, [along])
        assert verdicts == [(None, 0.0, "jump-gate")]
        assert calls == [(1, 11)]

    def test_zero_jump_never_becomes_a_direction(self, monkeypatch):
        # every jump cancels: each measured kink is a jump-gate rejection, and no zero
        # normal reaches the direction reading, which would divide by its norm
        monkeypatch.setattr(attack_module, "_jump_pairs",
                            lambda oracle, points, unit: (np.full(points.shape, 2.0), np.ones(points.shape)))
        inst = gen_instance([3, 4, 2], 5, 7)
        report = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig(n_lines=2))
        assert report.rejections["jump-gate"] == len(report.kinks) > 0 and not report.directions

    def test_agreement_is_at_most_one(self):
        # this v gives dot(3v, v) / (|3v| |v|) = 1.0000000000000002 in floats
        v = np.array([-0.6232744625373522, 0.0413259793472436, -2.3250307746388343,
                      -0.21879166393254573, -1.2459109472530652])
        norms = float(np.linalg.norm(3 * v)) * float(np.linalg.norm(v))
        assert abs(float(np.dot(3 * v, v))) / norms > 1.0
        jump, agreement = attack_module._richardson(3 * v, v)
        assert agreement == 1.0 and jump.tolist() == (2.0 * v - 3 * v).tolist()


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


class TestPathOracle:
    """run_attack scans the d_1-variable loss v -> E(v, 1, ..., 1)."""

    @pytest.mark.parametrize("widths", [(3, 4, 2), (3, 4, 4, 2), (4, 4)])
    def test_rows_are_the_full_oracles_bit_for_bit(self, widths):
        inst = gen_instance(list(widths), 5, 7)
        E, n, d1 = make_oracle(inst), inst.shape.weight_count, widths[0]
        V_ = np.random.default_rng(3).normal(size=(6, d1))
        full = np.hstack([V_, np.ones((6, n - d1))])
        path = attack_module._path_oracle(E, n, d1)
        assert path.batched
        assert path(V_).tolist() == E(full).tolist()
        assert [path(v) for v in V_] == [E(w) for w in full]
        unbatched = attack_module._path_oracle(lambda w: E(w), n, d1)
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
        report = run_attack(spy, n, 3, AttackConfig(budget=budget))
        assert len(rows) == report.oracle_queries <= budget
        assert report.budget_exhausted == (report.oracle_queries == budget) == (budget == 1_000)
        assert all(row[3:] == [1.0] * (n - 3) for row in rows)

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

    @pytest.mark.parametrize("budget", [60_000, 700, 200])  # the whole run takes 323 queries
    def test_batched_oracle_matches_per_row_oracle(self, budget):
        inst = gen_instance([2, 2, 1], 2, seed=11)
        cfg = AttackConfig(n_lines=4, budget=budget, seed=5)
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

    def test_run_attack_respects_budget(self):
        inst = gen_instance([2, 2, 1], 2, seed=11)
        cfg = AttackConfig(n_lines=4, budget=200, seed=5)  # the whole run takes 323 queries
        report = run_attack(make_oracle(inst), 6, 2, cfg)
        assert report.oracle_queries <= 200
        assert report.budget_exhausted
        assert report.to_json()["budget_exhausted"] is True

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
        cfg = AttackConfig(n_lines=10**9, budget=200, seed=5)
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

    def test_flat_kink_is_rejected_without_a_query_after_its_refine(self, monkeypatch):
        # a flat kink has no gradient jump to read: it costs its scan and nothing after it,
        # and is counted once as flat
        scan, scanned, batches = attack_module.detect_kinks_on_line, [], []

        def spy_scan(oracle, *args):
            kinks = scan(oracle, *args)
            scanned.append((kinks, oracle.query_count))
            return kinks

        def spy(W):
            batches.append(len(W))
            return flat_walls(W)

        spy.batched = True
        monkeypatch.setattr(attack_module, "detect_kinks_on_line", spy_scan)
        report = run_attack(spy, 6, 2, AttackConfig(n_lines=1))
        [(kinks, queries)] = scanned
        assert len(report.kinks) == len(kinks) > 0  # on the walls v_1 = 0 and v_2 = 0
        assert all(min(abs(v) for v in k.location) < 1e-12 for k in kinks)
        assert all(k.gradient_jump is None and k.rejection is None and k.curvature_jump > 0.1 for k in kinks)
        assert report.rejections == dict.fromkeys(attack_module.REJECTION_REASONS, 0) | {"flat": len(kinks)}
        assert report.oracle_queries == queries and batches == [GRID + 6]  # the grid alone
        assert not report.directions

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
        inst = gen_instance(list(widths), samples, seed)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(make_oracle(inst), inst.shape.weight_count, widths[0],
                            AttackConfig(), true_inputs=true_inputs)
        jumps = [i for i, d in enumerate(report.directions) if d.provenance == "gradient-jump"]
        assert jumps and len(jumps) == len(report.directions)
        cosine = {m.direction_index: m.cosine for m in report.matches}
        assert all(cosine[i] >= 1.0 - 1e-9 for i in jumps)

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
        assert len(lines) == AttackConfig().n_lines
        for walls, kinks in lines:
            assert [k.t for k in kinks] == pytest.approx(np.sort(walls[(walls >= lo) & (walls <= hi)]), abs=1e-11)

    @pytest.mark.parametrize("widths,samples", [((3, 4, 2), 5), ((3, 4, 4, 2), 5)])
    def test_crossing_check_matches_bisection_end_to_end(self, monkeypatch, widths, samples):
        # every kink of the attack's path scans, settled by crossing and check, is where pure
        # bisection of a bracket about it puts it, with the same slope jump, verdict and
        # direction; and the whole attack costs fewer queries than those bisections alone
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
        reference = LossOracle(attack_module._path_oracle(make_oracle(inst), n, widths[0]))
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
                assert expected.jump_magnitude == pytest.approx(kink.jump_magnitude, rel=1e-6)
                assert expected.rejection == kink.rejection
                assert (expected.gradient_jump is None) == (kink.gradient_jump is None)
                if kink.gradient_jump is not None:
                    a, b = np.array(expected.gradient_jump), np.array(kink.gradient_jump)
                    assert abs(float(a @ b)) >= (1.0 - 1e-9) * np.linalg.norm(a) * np.linalg.norm(b)
        assert bisected == len(report.kinks) > 0
        assert report.oracle_queries < reference.query_count

    def test_off_wall_kinks_are_labelled(self, monkeypatch):
        # a jump whose J . d misses the models' slope jump by OFF_WALL_RATIO is labelled
        # off-wall, whatever its agreement; on the path lines of [3,4,2]x5 seed 7 the exact
        # scan settles no kink off its wall, and every kink measured gets one share of its
        # line's jump batch, 8 rows per coordinate of the line
        f, point, unit, along = walls_through_a_point(5, [[3, 4, 5]], 11)
        ratio = attack_module.OFF_WALL_RATIO
        verdicts = attack_module._gradient_jumps(LossOracle(f), np.vstack([point] * 3), unit,
                                                 [along, along * ratio * 1.01, along / ratio / 1.01])
        assert [why for _, _, why in verdicts] == [None, "off-wall", "off-wall"]
        assert all(agreement >= attack_module.JUMP_GATE for _, agreement, _ in verdicts)

        measure, shapes = attack_module._jump_pairs, []

        def counted(oracle, points, unit):
            shapes.append(points.shape)
            return measure(oracle, points, unit)

        monkeypatch.setattr(attack_module, "_jump_pairs", counted)
        inst = gen_instance([3, 4, 2], 5, 7)
        report = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert report.rejections["off-wall"] == 0
        assert recovered_samples(report) == set(range(5))
        assert len(shapes) == AttackConfig().n_lines and all(n == 3 for _, n in shapes)
        assert sum(k for k, _ in shapes) == len(report.kinks) - report.rejections["flat"]

    def test_float32_oracle_ends_under_budget(self):
        # float32 rounding of every loss value: the first grid's own noise floor sets the window
        # tolerance, and the scan stops splitting noise, so the three instances end well under
        # budget and say so
        queries = 0
        for seed in (7, 107, 207):
            inst = gen_instance([3, 4, 2], 5, seed)
            E = make_oracle(inst)

            def rounded(W):
                return np.asarray(E(W), dtype=np.float32).astype(float)

            rounded.batched = True
            report = run_attack(rounded, inst.shape.weight_count, 3, AttackConfig())
            assert not report.budget_exhausted
            queries += report.oracle_queries
        assert queries < 20_000

    def test_rejections_by_reason(self, monkeypatch):
        # [3,4,4,2]: d_1 = 3, so each path-line kink's jump batch has 8 * 3 rows
        inst = gen_instance([3, 4, 4, 2], 5, 7)
        E = make_oracle(inst)
        batches = []

        def spy(W):
            batches.append(len(W))
            return E(W)

        spy.batched = True
        measure, shapes = attack_module._jump_pairs, []

        def counted(oracle, points, unit):
            shapes.append(points.shape)
            return measure(oracle, points, unit)

        monkeypatch.setattr(attack_module, "_jump_pairs", counted)
        report = run_attack(spy, inst.shape.weight_count, 3, AttackConfig())
        data = report.to_json()
        assert set(data["rejections"]) == {"jump-gate", "off-wall", "flat"}
        assert sum(data["rejections"].values()) == data["rejected_sheets"] == report.rejected_sheets
        assert data["jump_gate"] == attack_module.JUMP_GATE and "heuristic" in data["jump_gate_note"]
        assert data["off_wall_ratio"] == attack_module.OFF_WALL_RATIO
        assert "heuristic" in data["off_wall_ratio_note"]
        assert data["noise_factor"] == attack_module.NOISE_FACTOR and "heuristic" in data["noise_factor_note"]
        measured = len(report.kinks) - report.rejections["flat"]
        assert sum(k for k, _ in shapes) == measured  # every path-line kink is measured, and only once
        assert all(n == 3 for _, n in shapes) and 8 * 3 * measured <= sum(batches)
        # a gate no jump can pass rejects every kink as jump-gate after its jump batch,
        # which it has spent either way: no query more or fewer, and no other jump batch
        monkeypatch.setattr(attack_module, "JUMP_GATE", 2.0)
        shapes.clear()
        gated = run_attack(spy, inst.shape.weight_count, 3, AttackConfig())
        assert gated.rejections["jump-gate"] == measured == gated.rejected_sheets - gated.rejections["flat"]
        assert gated.kinks == report.kinks and not gated.directions
        assert measured > 0 and sum(k for k, _ in shapes) == measured
        assert gated.oracle_queries == report.oracle_queries

    def test_oracle_budget_inside_jump_batch_sets_exhausted(self):
        # [3,4,2]: N = 20 and d_1 = 3.  A kink's jump batch has 8 rows per coordinate of
        # its line: 8 * 3 on run_attack's path lines, 8 * 20 on a random line in all N weights;
        # a line's jump batch is its last
        inst = gen_instance([3, 4, 2], 5, 7)
        n = inst.shape.weight_count
        E = make_oracle(inst)
        batches = []

        def spy(W):
            batches.append(len(np.atleast_2d(W)))
            return E(W)

        spy.batched = True
        run_attack(spy, n, 3, AttackConfig(n_lines=1))
        uncut = list(batches)
        assert uncut[-1] % (8 * 3) == 0
        budget = sum(uncut[:-1]) + 5  # cut inside the first line's jump batch
        batches.clear()
        report = run_attack(spy, n, 3, AttackConfig(budget=budget))
        assert batches[-1] == 5  # the batch is cut to the rows that fit
        assert report.budget_exhausted
        assert report.oracle_queries == budget

        batches.clear()
        random_line_kinks(LossOracle(spy), n, 4, n_lines=1)
        assert batches[-1] % (8 * n) == 0
        budget = sum(batches[:-1]) + 5  # cut inside the first jump batch
        batches.clear()
        oracle = LossOracle(spy, budget=budget)
        with pytest.raises(QueryBudgetExceeded):
            random_line_kinks(oracle, n, 4, n_lines=1)
        assert batches[-1] == 5 and oracle.query_count == budget

    def test_report_round_trip(self):
        inst = gen_instance([2, 2, 1], 1, seed=2)
        cfg = AttackConfig(n_lines=3, budget=40_000, seed=1)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(make_oracle(inst), 6, 2, cfg, true_inputs=true_inputs)
        data = report.to_json()
        assert data["oracle_queries"] == report.oracle_queries
        assert not report.budget_exhausted and data["budget_exhausted"] is False
        assert "jump_gate_note" in data and "off_wall_ratio_note" in data
        assert not {"weight_sheets", "residual_tol", "residual_tol_note"} & set(data)
        assert all(d["provenance"] == "gradient-jump" for d in data["directions"])
        csv = report.kink_csv()
        assert csv.splitlines()[0] == "line_id,t,jump,refined"
        assert len(csv.splitlines()) == len(report.kinks) + 1

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
