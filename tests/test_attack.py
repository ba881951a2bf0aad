import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from losscarto import (
    AttackConfig,
    DegeneracyError,
    ExtractedDirection,
    HarvestError,
    LossOracle,
    NetworkShape,
    NonFiniteLossError,
    Poly,
    QueryBudgetExceeded,
    RecoveryError,
    SpuriousKinkError,
    aligned_input_direction,
    detect_kinks_on_line,
    enumerate_singular_sheets,
    fit_hyperplane,
    gen_instance,
    harvest_sheet_points,
    make_oracle,
    one_d_warmup_oracle,
    recover_architecture,
    refine_kink,
    run_attack,
)
from losscarto import attack as attack_module
from losscarto.attack import _rolling_median

V = Poly.variable
F = Fraction
REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "references.json"


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


def per_cell_median(x, win=10):
    """The rolling median as one np.median per cell: the reference."""
    n = len(x)
    local = np.empty(n)
    for i in range(n):
        a, b = max(0, i - win), min(n, i + win + 1)
        local[i] = np.median(x[a:b])
    return local


class TestDetectRefine:
    @given(
        st.lists(
            st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 1e-300, 7e12])
            | st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=300,
        )
    )
    def test_rolling_median_matches_per_cell_median(self, values):
        x = np.array(values)
        assert _rolling_median(x, 10).tolist() == per_cell_median(x).tolist()

    @pytest.mark.parametrize("n", [4, 5, 20, 21, 22, 253])
    def test_rolling_median_edge_lengths(self, n):
        x = np.abs(np.random.default_rng(n).normal(size=n)).round(1)  # ties and zeros
        assert _rolling_median(x, 10).tolist() == per_cell_median(x).tolist()

    def test_first_order_kink(self):
        # |t - 0.37| has a slope jump of 2 at 0.37, on a smooth background
        kink_at = 0.37

        def f(w):
            t = w[0]
            return abs(t - kink_at) + 0.3 * t * t + 1.0

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), 257)
        assert len(kinks) == 1
        assert abs(kinks[0].t - kink_at) < 1e-8
        assert kinks[0].jump_magnitude == pytest.approx(2.0, rel=1e-4)

    def test_second_order_kink(self):
        # max(0, t - c)^2 is C^1: only the curvature jumps (by 2)
        kink_at = -1.234

        def f(w):
            t = w[0]
            return max(0.0, t - kink_at) ** 2 + 0.1 * t**2

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), 257)
        assert len(kinks) == 1
        assert abs(kinks[0].t - kink_at) < 1e-6
        assert kinks[0].curvature_jump == pytest.approx(2.0, rel=1e-3)

    def test_multiple_kinks_sorted(self):
        spots = [-2.1, 0.4, 1.9]

        def f(w):
            t = w[0]
            return sum(abs(t - c) for c in spots)

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), 257)
        assert [round(k.t, 6) for k in kinks] == pytest.approx(spots, abs=1e-6)

    def test_max_kinks_keeps_strongest(self):
        def f(w):
            t = w[0]
            return 5.0 * abs(t - 1.0) + 0.01 * abs(t + 2.0)

        kinks = detect_kinks_on_line(
            LossOracle(f), [0.0], [1.0], (-4, 4), 257, max_kinks=1
        )
        assert len(kinks) == 1 and abs(kinks[0].t - 1.0) < 1e-8

    def test_negative_max_kinks_is_rejected_before_any_query(self):
        oracle = one_d_warmup_oracle([(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)])
        with pytest.raises(ValueError, match="max_kinks"):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), 257, max_kinks=-1)
        assert oracle.query_count == 0
        assert detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), 257, max_kinks=0) == []
        assert oracle.query_count == 257  # the grid alone

    @pytest.mark.parametrize("input_dim", [0, -1, 2.0, True, "3"])
    def test_bad_input_dim_is_rejected_before_any_query(self, input_dim):
        oracle = one_d_warmup_oracle([(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)])
        with pytest.raises(ValueError, match="input_dim"):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), 257, input_dim=input_dim)
        with pytest.raises(ValueError, match="input_dim"):
            refine_kink(oracle, [0.0], [1.0], (1.9, 2.1), input_dim=input_dim)
        assert oracle.query_count == 0

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

        kinks = detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), 257)
        want = [a] if b is None else [a, b]
        assert [k.t for k in kinks] == pytest.approx(want, abs=1e-8)

    @given(
        st.integers(8, 200),
        st.lists(
            st.tuples(
                st.integers(1, 8),  # whole spacings past the previous kink's cell (the first: past start)
                st.sampled_from([0.0]) | st.floats(0.0, 0.999),  # 0.0 puts the kink on a grid point
                st.floats(0.2, 2.0),
            ),
            min_size=2,
            max_size=4,
        ),
    )
    def test_kinks_of_one_scan_lie_three_spacings_apart(self, start, steps):
        # kept cells lie more than 4 apart and each refine stays inside its own
        # two-spacing bracket, so no two kinks of one scan can be duplicates
        h = 8.0 / 256
        spots, weights, cell = [], [], start
        for gap, frac, weight in steps:
            cell += gap
            spots.append(-4.0 + (cell + frac) * h)
            weights.append(weight)

        def f(w):
            t = np.asarray(w)[..., 0]
            return sum(c * np.abs(t - s) for c, s in zip(weights, spots)) + 0.2 * t * t

        f.batched = True
        ts = [k.t for k in detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), 257)]
        assert all(b - a >= 3 * h - 1e-12 for a, b in zip(ts, ts[1:]))

    def test_smooth_line_is_clean(self):
        def f(w):
            t = w[0]
            return (t - 0.3) ** 4 + 2.0 * t * t

        assert detect_kinks_on_line(LossOracle(f), [0.0], [1.0], (-4, 4), 257) == []

    def test_refine_spurious_bracket(self):
        def f(w):
            t = w[0]
            return t**4 - t + 3.0

        with pytest.raises(SpuriousKinkError):
            refine_kink(LossOracle(f), [0.0], [1.0], (0.1, 0.2))

    def test_refine_far_out_stops_at_float_resolution(self):
        # at |t| = 1e12 neighbouring doubles lie 1.2e-4 apart, far above REFINE_TOL:
        # the check pair t -+ 0.45 * REFINE_TOL collapses onto one double and is skipped,
        # and the bisection ends when the midpoint rounds onto an end of the bracket
        oracle = LossOracle(lambda w: abs(w[0] - (1e12 + 0.3)))
        kink = refine_kink(oracle, [0.0], [1.0], (1e12, 1e12 + 1))
        assert abs(kink.t - (1e12 + 0.3)) <= 2.5e-4
        assert oracle.query_count <= 31

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("max_queries", [1, 7, 10, 11])
    def test_refine_budget_below_stencil_charges_exactly(self, batched, max_queries):
        # the oracle's budget is the only one a refine has; a stencil or a check pair
        # (queries 11 and 12) that crosses it is charged up to it, then raises
        def f(w):
            return np.abs(np.asarray(w)[..., 0] - 0.15)

        f.batched = batched
        oracle = LossOracle(f, budget=max_queries)
        with pytest.raises(QueryBudgetExceeded):  # the stencil takes 2 * (4 + 1) = 10, the check 2
            refine_kink(oracle, [0.0], [1.0], (0.1, 0.2))
        assert oracle.query_count == max_queries

    @pytest.mark.parametrize("wrap", ["plain", "oracle", "batched"])
    def test_nan_half_space_raises(self, wrap):
        def f(w):
            w = np.asarray(w)
            return np.where(w[..., 0] > 1.0, np.nan, np.abs(w[..., 0] - 0.3))

        f.batched = wrap == "batched"
        oracle = f if wrap == "plain" else LossOracle(f)
        with pytest.raises(NonFiniteLossError):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), 257)

    def test_oracle_budget_propagates(self):
        oracle = LossOracle(lambda w: abs(w[0]), budget=50)
        with pytest.raises(QueryBudgetExceeded):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), 257)

    def test_oracle_budget_inside_refine_propagates(self):
        # the grid takes 257 queries, the refine stencil runs into the budget
        oracle = LossOracle(lambda w: abs(w[0] - 0.3), budget=260)
        with pytest.raises(QueryBudgetExceeded):
            detect_kinks_on_line(oracle, [0.0], [1.0], (-4, 4), 257)
        assert oracle.query_count == 260


def flat_walls(w):
    """sum_k max(0, w_k)^2 plus a bowl: every wall w_k = 0 is flat (C^1)."""
    w = np.asarray(w)
    return np.sum(np.maximum(w, 0.0) ** 2 + 0.1 * w * w, axis=-1)


flat_walls.batched = True


class TestGradientJump:
    def test_first_order_kink_costs_stencil_check_screen_and_window(self):
        # exact quadratic pieces: the models cross on the wall and the check settles it;
        # at d_1 = 4 the wall lies in window 0 of the two windows [0, 4) and [4, 5)
        n = np.array([1.0, -2.0, 0.5, 1.5, 0.0])
        direction = np.array([1.0, 0.2, -0.1, 0.3, 0.4])
        direction /= np.linalg.norm(direction)
        base = np.array([0.3, 0.4, -0.2, 0.1, 0.7])
        at = -float(n @ base) / float(n @ direction)
        bracket = (at - 0.03, at + 0.04)
        stencil_check = 2 * (attack_module.DEGREE + 1) + 2
        f = plane_kink_oracle(n)
        batches = []

        def spy(W):
            batches.append(len(np.atleast_2d(W)))
            return np.apply_along_axis(f, -1, W)

        spy.batched = True
        oracle = LossOracle(spy)
        kink = refine_kink(oracle, base, direction, bracket, input_dim=4)
        assert abs(float(n @ np.asarray(kink.location))) < 1e-8
        assert oracle.query_count == stencil_check + 8 * 2 + 8 * 4
        # one batch each: stencil, check, screen (8 * ceil(N / d_1)), window (8 * d_1)
        assert batches == [2 * (attack_module.DEGREE + 1), 2, 8 * 2, 8 * 4]
        # |n.w| jumps by 2n; the Richardson jump has no spill off the support
        J = np.asarray(kink.gradient_jump)
        assert np.allclose(J, 2 * n if float(J @ n) > 0 else -2 * n, atol=1e-6)
        assert J[4] == 0.0 and kink.jump_agreement > 1.0 - 1e-9 and kink.rejection is None
        without = LossOracle(f)
        bare = refine_kink(without, base, direction, bracket)
        assert without.query_count == stencil_check and bare.gradient_jump is None
        assert bare.rejection is None and bare.t == kink.t

    def test_flat_kink_gets_no_jump(self):
        direction = np.ones(4) / 2.0
        oracle = LossOracle(flat_walls)
        kinks = detect_kinks_on_line(oracle, [1.0, 2.0, 3.0, 4.0], direction, (-9, 0), 257)
        assert [round(k.t, 5) for k in kinks] == [-8.0, -6.0, -4.0, -2.0]
        assert all(k.gradient_jump is None for k in kinks)
        assert all(k.jump_agreement is None for k in kinks)

    @pytest.mark.parametrize("gap,gated", [(0.75, True), (3.0, False)])
    def test_second_wall_within_offset_fails_the_gate(self, gap, gated):
        # wall 1 (w0 = c0) carries nearly all the slope jump along the line, so bisection
        # lands on it; wall 2 (w1 = c1), orthogonal to it, crosses the line gap * s
        # further on.  Within s, its jump adds to J(s) in full and to J(s/2) barely.
        s = attack_module.JUMP_OFFSET
        direction = np.array([0.6, 0.01, 0.0, 0.8])
        direction /= np.linalg.norm(direction)
        t1 = 0.3
        c0, c1 = direction[0] * t1, direction[1] * (t1 + gap * s)

        def two_walls(w):
            w = np.asarray(w)
            return abs(w[0] - c0) + abs(w[1] - c1) + 0.1 * float(w @ w)

        # d_1 = 4: one window, so the screen passes and the window's two offsets decide
        kinks = detect_kinks_on_line(LossOracle(two_walls), np.zeros(4), direction, (-4, 4), 257,
                                     input_dim=4)
        assert len(kinks) == 1 and abs(kinks[0].t - t1) < 1e-5
        assert (kinks[0].jump_agreement < attack_module.JUMP_GATE) is gated
        assert kinks[0].rejection == ("jump-gate" if gated else None)
        if not gated:
            assert aligned_input_direction(kinks[0].gradient_jump, 4).kind == "weight-parameter"


def plane_kink_oracle(normal, smooth_scale=0.1):
    """|<n, w>| plus a smooth bowl: its kink sheet is the hyperplane n.w = 0."""
    n = np.asarray(normal, dtype=float)

    def f(w):
        w = np.asarray(w, dtype=float)
        return abs(float(n @ w)) + smooth_scale * float(w @ w)

    return f


def bisection_refine_kink(oracle, base, direction, bracket, *, input_dim=None):
    """refine_kink as pure bisection against np.polynomial fits: the reference.

    The same stencil, spurious test and gradient jump as refine_kink, but no
    crossing guess and no check: every step queries the bracket's midpoint.
    """
    oracle = attack_module._as_oracle(oracle)
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    degree = attack_module.DEGREE
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
    if input_dim is not None and jump > slope_floor:
        J, agreement, rejection = attack_module._gradient_jump(oracle, loc, direction, jump, input_dim)
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

    The whole gradient jump, as measured before the window screen: central
    differences along every coordinate at +-s and +-s/2 off the wall,
    Richardson-combined.  The agreement is 0 when either jump is zero.
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
    agreement = abs(float(np.dot(jump_s, jump_half))) / norms if norms > 0.0 else 0.0
    return 2.0 * jump_half - jump_s, agreement


def full_jump_verdict(oracle, point, direction, slope_jump, input_dim):
    """_gradient_jump's contract from the full jump: gated, and classified later by run_attack."""
    J, agreement = full_gradient_jump(oracle, point, direction)
    if agreement < attack_module.JUMP_GATE:
        return None, agreement, "jump-gate"
    return J, agreement, None


def random_line_kinks(oracle, n_weights, input_dim, n_lines=12, seed=0):
    """Kinks of the scan run_attack ran before its path lines: random lines in all N weights.

    Line i draws base and direction from SeedSequence(seed) child i, as
    run_attack draws its path lines, and refines at most 3 kinks.
    """
    kinks = []
    for line_id in range(n_lines):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(line_id,)))
        base = rng.normal(size=n_weights)
        direction = rng.normal(size=n_weights)
        direction /= np.linalg.norm(direction)
        kinks += detect_kinks_on_line(oracle, base, direction, attack_module.T_RANGE,
                                      attack_module.GRID, max_kinks=3, input_dim=input_dim)
    return kinks


def classify_jumps(kinks, input_dim):
    """(deduplicated input directions, weight sheets, rejections) as run_attack classifies jumps."""
    rejected = dict.fromkeys(attack_module.REJECTION_REASONS, 0)
    weights, directions = 0, []
    for kink in kinks:
        assert kink.gradient_jump is not None or kink.rejection is not None  # no flat kink
        if kink.rejection is not None:
            rejected[kink.rejection] += 1
            continue
        ext = aligned_input_direction(kink.gradient_jump, input_dim)
        if ext.kind == "weight-parameter":
            weights += 1
        elif ext.kind == "nonlinear":
            rejected["nonlinear"] += 1
        elif all(abs(float(np.dot(ext.direction, d.direction))) < 1.0 - attack_module.DEDUP_TOL
                 for d in directions):
            directions.append(attack_module.RecoveredDirection(
                ext.direction, ext.node, 1.0 - kink.jump_agreement, "gradient-jump"))
    return directions, weights, rejected


def walls_through_a_point(seed, supports, n_weights):
    """sum_k |n_k . w| plus a bowl, each n_k on its own support, and a point on every wall.

    Returns (batched f, point, unit direction d, the true J . d).  Entries
    of each n_k have magnitudes in [0.5, 2], so every support entry is far
    above SUPPORT_TOL.  d crosses the walls at a clear angle: |n_k . d| is
    at least 0.1 max|n_k|, so no central-difference step straddles a wall,
    and the jump J restricted to each window of d_1 = 3 it touches has
    |J_q . d| of at least 0.1.  (A window whose jump is orthogonal to d
    there reads as cold in the screen: that is the screen's blind spot.)
    """
    rng = np.random.default_rng(seed)
    normals = np.zeros((len(supports), n_weights))
    for k, support in enumerate(supports):
        normals[k, support] = rng.choice([-1.0, 1.0], len(support)) * rng.uniform(0.5, 2.0, len(support))
    b = rng.normal(size=n_weights)
    point = b - np.linalg.lstsq(normals, normals @ b, rcond=None)[0]  # on every wall
    window = np.arange(n_weights) // 3
    while True:
        direction = rng.normal(size=n_weights)
        direction /= np.linalg.norm(direction)
        along = normals @ direction
        jump = 2.0 * np.sign(along) @ normals
        per_window = np.bincount(window, jump * direction)[np.unique(window[jump != 0.0])]
        clear = np.all(np.abs(along) >= 0.1 * np.max(np.abs(normals), axis=1))
        if clear and np.all(np.abs(per_window) >= 0.1):
            break

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
        expected = bisection_refine_kink(reference, base, direction, bracket)
        kink = refine_kink(checked, base, direction, bracket)
        tol = attack_module.REFINE_TOL
        assert abs(expected.t - t_wall) <= tol
        assert abs(kink.t - t_wall) <= tol
        assert checked.query_count <= reference.query_count + 2
        # the kink is settled by queries: two of them at most REFINE_TOL apart hold it
        below = max(t for t in queried if t <= kink.t)
        above = min(t for t in queried if t >= kink.t)
        assert above - below <= tol * (1.0 + 1e-6)

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
    # larger sixth-degree terms, where the check pair lands on one side of the wall: both
    # left (first) and both right (second), so the bisection has to go on past the pair
    @example(848000030, 0.27, 0.091, 1.6e-05)
    @example(2256630508, 0.694, 0.088, -1.6e-05)
    def test_inexact_models(self, seed, offset, width, sixth):
        # a sixth-degree term the quartic models cannot follow moves their crossing off the wall
        self.check(seed, offset, width, sixth)


class TestScreenAgainstFullJump:
    """_gradient_jump's screen and window against full_gradient_jump, on walls through one point.

    N = 11 and d_1 = 3: windows [0, 3), [3, 6), [6, 9) and the partial [9, 11).
    """

    N, D1 = 11, 3
    KINDS = {  # a wall's support, from its own rng
        "one window": lambda rng: [3 * int(rng.integers(3)) + i for i in range(3)],
        "two windows": lambda rng: [i for q in rng.choice(4, 2, replace=False)
                                    for i in range(3 * q, min(3 * q + 3, 11))],
        "single weight": lambda rng: [int(rng.integers(11))],
        "partial last window": lambda rng: [9, 10],
    }

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=2),
    )
    def test_hot_windows_and_window_entries(self, seed, kinds):
        rng = np.random.default_rng(seed)
        supports = [sorted(set(self.KINDS[kind](rng))) for kind in kinds]
        f, point, unit, along = walls_through_a_point(seed, supports, self.N)
        J_full, _ = full_gradient_jump(LossOracle(f), point, unit)
        big = np.abs(J_full) > attack_module.SUPPORT_TOL * np.max(np.abs(J_full))
        support_windows = sorted({int(i) // self.D1 for i in np.flatnonzero(big)})
        combined = []  # the screen's window jumps j_q, then the window's jump

        def spy(jump_s, jump_half):
            out = richardson(jump_s, jump_half)
            combined.append(out[0])
            return out

        richardson, oracle = attack_module._richardson, LossOracle(f)
        with mock.patch.object(attack_module, "_richardson", spy):
            J, agreement, rejection = attack_module._gradient_jump(oracle, point, unit, along, self.D1)
        j = combined[0]
        hot = np.flatnonzero(np.abs(j) > attack_module.SUPPORT_TOL * np.max(np.abs(j))).tolist()
        assert len(j) == 4 and hot == support_windows
        window = np.arange(self.N) // self.D1
        if len(hot) == 1:
            cols = window == hot[0]
            assert rejection is None and agreement >= attack_module.JUMP_GATE
            assert J[cols].tolist() == J_full[cols].tolist()  # bit for bit
            assert not np.any(J[~cols])
            assert oracle.query_count == 8 * 4 + 8 * int(np.sum(cols))
        else:
            assert J is None and rejection == "nonlinear" and oracle.query_count == 8 * 4

    @pytest.mark.parametrize("stage", [0, 1], ids=["screen", "window"])
    def test_zero_jump_is_a_gate_rejection(self, monkeypatch, stage):
        # J(s) = 2 J(s/2) exactly: the two offsets agree (|cos| 1.0) on a Richardson jump of 0
        measure, calls = attack_module._jump_pair, []

        def cancelling(*args):
            jump_s, jump_half = measure(*args)
            calls.append(len(jump_s))
            return (2.0 * jump_half, jump_half) if len(calls) == stage + 1 else (jump_s, jump_half)

        monkeypatch.setattr(attack_module, "_jump_pair", cancelling)
        f, point, unit, along = walls_through_a_point(5, [[3, 4, 5]], self.N)
        verdict = attack_module._gradient_jump(LossOracle(f), point, unit, along, self.D1)
        assert verdict == (None, 0.0, "jump-gate")
        assert calls == [4, 3][: stage + 1]

    def test_zero_jump_never_reaches_the_classifier(self, monkeypatch):
        # every jump cancels: each measured kink is a jump-gate rejection, and no
        # DegeneracyError("zero normal") escapes run_attack
        monkeypatch.setattr(attack_module, "_jump_pair", lambda *args: (np.full(7, 2.0), np.ones(7)))
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
        kinks = detect_kinks_on_line(oracle, base, direction, (-4, 4), 257)
        assert len(kinks) == 1
        pts = harvest_sheet_points(oracle, kinks[0], 6, 0.01, rng=rng)
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
        oracle = one_d_warmup_oracle([(1.0, 2.0), (3.0, 1.0)])
        assert oracle([0.0]) == pytest.approx(2.5)  # 0.5*4 + 0.5*1
        assert oracle([-1.0]) == pytest.approx(12.5)  # 0.5*9 + 0.5*16
        assert oracle([5.0]) == pytest.approx(0.0)  # both hinges inactive
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

    @pytest.mark.parametrize("budget", [60_000, 700])
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
        cfg = AttackConfig(n_lines=4, budget=700, seed=5)
        report = run_attack(make_oracle(inst), 6, 2, cfg)
        assert report.oracle_queries <= 700
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
        cfg = AttackConfig(n_lines=10**9, budget=700, seed=5)
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
        report = run_attack(spy, inst.shape.weight_count, 3, AttackConfig(budget=260))
        assert batches == [257, 3]  # the first line's grid, then a cut refine stencil
        assert report.budget_exhausted
        assert report.oracle_queries == 260

    def test_lost_harvest_rejects_the_kink_once(self, monkeypatch):
        # only a flat kink is harvested; a harvest that loses the sheet costs one
        # call and one rejection, and is not retried
        calls = []

        def lost(oracle, kink, *args, **kwargs):
            calls.append(kink)
            raise HarvestError("sheet lost")

        monkeypatch.setattr(attack_module, "harvest_sheet_points", lost)
        monkeypatch.setattr(attack_module, "MAX_KINKS_PER_LINE", 1)
        report = run_attack(flat_walls, 6, 2, AttackConfig(n_lines=1))
        assert len(report.kinks) == 1
        assert [k.t for k in calls] == [report.kinks[0][1]]
        assert calls[0].gradient_jump is None and calls[0].curvature_jump > 0.1
        assert report.rejections["harvest-lost"] == 1 == report.rejected_sheets
        assert not report.directions

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
    def test_crossing_check_matches_bisection_end_to_end(self, monkeypatch, widths, samples):
        # the same samples, rejections and directions as pure bisection, for fewer queries
        inst = gen_instance(list(widths), samples, 7)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]

        def attack():
            return run_attack(make_oracle(inst), inst.shape.weight_count, widths[0],
                              AttackConfig(), true_inputs=true_inputs)

        checked = attack()
        monkeypatch.setattr(attack_module, "refine_kink", bisection_refine_kink)
        bisected = attack()

        def recovered(report):
            return {m.sample_index for m in report.matches if m.cosine >= attack_module.MATCH_THRESHOLD}

        assert recovered(checked) == recovered(bisected) and recovered(checked)
        assert checked.rejections == bisected.rejections
        assert checked.oracle_queries < bisected.oracle_queries
        assert len(checked.directions) == len(bisected.directions)
        for a, b in zip(checked.directions, bisected.directions):
            assert abs(float(np.dot(a.direction, b.direction))) >= 1.0 - 1e-9

    @pytest.mark.parametrize("widths,samples", [((3, 4, 2), 5), ((3, 4, 4, 2), 5)])
    def test_screen_matches_full_jump_end_to_end(self, monkeypatch, widths, samples):
        # on random lines in all N weights (N > d_1, where the screen runs): the same kinks,
        # samples, weight sheets and rejection total as measuring the whole jump, for fewer
        # queries; full-jump rejections past the gate count as nonlinear
        inst = gen_instance(list(widths), samples, 7)

        def scan():
            oracle = LossOracle(make_oracle(inst))
            kinks = random_line_kinks(oracle, inst.shape.weight_count, widths[0])
            return kinks, oracle.query_count, classify_jumps(kinks, widths[0])

        screened, screened_queries, (screened_dirs, screened_weights, screened_rejected) = scan()
        monkeypatch.setattr(attack_module, "_gradient_jump", full_jump_verdict)
        full, full_queries, (full_dirs, full_weights, full_rejected) = scan()

        def recovered(directions):
            return {m.sample_index for m in attack_module._match_directions(directions, true_inputs_of(inst))
                    if m.cosine >= attack_module.MATCH_THRESHOLD}

        assert [k.t for k in screened] == [k.t for k in full] and len(screened) > 20
        assert recovered(screened_dirs) == recovered(full_dirs) and recovered(screened_dirs)
        assert screened_queries < full_queries
        assert screened_weights == full_weights
        assert sum(screened_rejected.values()) == sum(full_rejected.values())
        assert screened_rejected["jump-gate"] <= full_rejected["jump-gate"]
        assert full_rejected["off-wall"] == 0
        assert len(screened_dirs) == len(full_dirs)
        for a, b in zip(screened_dirs, full_dirs):
            assert abs(float(np.dot(a.direction, b.direction))) >= 1.0 - 1e-12

    def test_off_wall_kinks_are_labelled_and_skip_the_window(self, monkeypatch):
        # [3,4,2]x5 seed 7.  On random lines in all N = 20 weights the screen rejects 7
        # kinks, all refines that settled off their wall, and no window batch is spent on
        # them.  On the path lines (one window) the window batch is each kink's only jump
        # batch: the path scan rejects 3 kinks there, all off-wall, and recovers all 5 samples.
        inst = gen_instance([3, 4, 2], 5, 7)
        measure, judge = attack_module._jump_pair, attack_module._gradient_jump
        probes, verdicts = [], []  # probe rows per _jump_pair; (rejection, its probe rows)

        def counted_pair(oracle, centers, rows):
            probes.append(len(rows))
            return measure(oracle, centers, rows)

        def judged(*args):
            first = len(probes)
            verdict = judge(*args)
            verdicts.append((verdict[2], probes[first:]))
            return verdict

        monkeypatch.setattr(attack_module, "_jump_pair", counted_pair)
        monkeypatch.setattr(attack_module, "_gradient_jump", judged)
        random_line_kinks(make_oracle(inst), inst.shape.weight_count, 3)
        off_wall = [rows for why, rows in verdicts if why == "off-wall"]
        assert [why for why, _ in verdicts if why is not None] == ["off-wall"] * 7
        assert off_wall == [[7]] * 7  # the screen's 7 windows, and no window batch
        assert all(rows in ([7, 3], [7, 2]) for why, rows in verdicts if why is None)

        verdicts.clear()
        report = run_attack(make_oracle(inst), inst.shape.weight_count, 3, AttackConfig(),
                            true_inputs=true_inputs_of(inst))
        assert report.rejections == dict.fromkeys(attack_module.REJECTION_REASONS, 0) | {"off-wall": 3}
        assert recovered_samples(report) == set(range(5))
        assert len(verdicts) == len(report.kinks) and all(rows == [3] for _, rows in verdicts)

    def test_rejections_by_reason(self, monkeypatch):
        # [3,4,4,2]: d_1 = 3, so each path-line kink's window batch has 8 * 3 rows
        inst = gen_instance([3, 4, 4, 2], 5, 7)
        E = make_oracle(inst)
        batches = []

        def spy(W):
            batches.append(len(W))
            return E(W)

        spy.batched = True
        report = run_attack(spy, inst.shape.weight_count, 3, AttackConfig())
        data = report.to_json()
        assert set(data["rejections"]) == {
            "jump-gate", "off-wall", "nonlinear", "harvest-lost", "degenerate", "curved"
        }
        assert sum(data["rejections"].values()) == data["rejected_sheets"] == report.rejected_sheets > 0
        assert data["jump_gate"] == attack_module.JUMP_GATE and "heuristic" in data["jump_gate_note"]
        assert data["off_wall_ratio"] == attack_module.OFF_WALL_RATIO
        assert "heuristic" in data["off_wall_ratio_note"]
        windows = batches.count(8 * 3)
        assert windows == len(report.kinks)  # every path-line kink is measured, and only once
        # a gate no jump can pass rejects every kink as jump-gate after its window batch,
        # which it has spent either way: no query more or fewer, and no other jump batch
        monkeypatch.setattr(attack_module, "JUMP_GATE", 2.0)
        batches.clear()
        gated = run_attack(spy, inst.shape.weight_count, 3, AttackConfig())
        assert gated.rejections["jump-gate"] == len(gated.kinks) == gated.rejected_sheets
        assert gated.kinks == report.kinks and not gated.directions
        assert windows > 0 and batches.count(8 * 3) == windows
        assert gated.oracle_queries == report.oracle_queries

    def test_oracle_budget_inside_jump_batch_sets_exhausted(self):
        # [3,4,2]: N = 20 and d_1 = 3.  run_attack's path lines have one window, so a kink's
        # only jump batch is its window of 8 * 3 rows; a random line in all N weights
        # screens 7 windows in 8 * 7 rows first
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
        budget = sum(uncut[: uncut.index(8 * 3)]) + 5  # cut inside the first window batch
        batches.clear()
        report = run_attack(spy, n, 3, AttackConfig(budget=budget))
        assert batches[-1] == 5  # the batch is cut to the rows that fit
        assert report.budget_exhausted
        assert report.oracle_queries == budget

        batches.clear()
        random_line_kinks(LossOracle(spy), n, 3, n_lines=1)
        budget = sum(batches[: batches.index(8 * 7)]) + 5  # cut inside the first screen
        batches.clear()
        oracle = LossOracle(spy, budget=budget)
        with pytest.raises(QueryBudgetExceeded):
            random_line_kinks(oracle, n, 3, n_lines=1)
        assert batches[-1] == 5 and oracle.query_count == budget

    def test_report_round_trip(self):
        inst = gen_instance([2, 2, 1], 1, seed=2)
        cfg = AttackConfig(n_lines=3, budget=40_000, seed=1)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(make_oracle(inst), 6, 2, cfg, true_inputs=true_inputs)
        data = report.to_json()
        assert data["oracle_queries"] == report.oracle_queries
        assert not report.budget_exhausted and data["budget_exhausted"] is False
        assert "residual_tol_note" in data and "jump_gate_note" in data
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

    def test_hyperplane_path_on_small_instance(self, monkeypatch):
        monkeypatch.setattr(attack_module, "MAX_KINKS_PER_LINE", 2)
        inst = gen_instance([2, 2, 1], 1, seed=3)
        cfg = AttackConfig(n_lines=3, budget=100_000, seed=2)
        true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
        report = run_attack(make_oracle(inst), 6, 2, cfg, true_inputs=true_inputs)
        assert any(m.cosine > 0.999 for m in report.matches)
