"""Reconstruction from oracle access to the loss.

The pipeline mirrors how the loss surface is built: training inputs show
up as the coefficient vectors of the linear walls, so the attack scans
lines for kinks, refines each kink against left/right local polynomial
models (a crossing guess, a two-query check, a bisection fallback),
measures the wall normal, gates it and reads the input direction off the
normal's support.

run_attack chooses where it looks.  It scans the path loss
v -> E(v, 1, ..., 1): the first d_1 flat weights (row 1 of W_1, into
node 1 of layer 2) are free and every other weight is 1.  Every node
above layer 2 then gets a non-negative input and passes it on, so the
net computes A * relu(v . x_p) + B_p for each sample p, with A > 0 and
B_p fixed.  In v the loss is piecewise quadratic with exactly one wall
v . x_p = 0 per sample and no deep wall, and each wall's normal is its
sample's input.  The scan, refine and jump below run unchanged on that
d_1-variable oracle, with N' = d_1.  The all-ones weights are a
layout-free choice.  They need no knowledge of the widths past d_1, but
at very wide shapes (such as [8,30,30,30,4]) they make the loss so large
that kinks read as flat; weights chosen from the recovered layout would
not, and wait on a black-box architecture walk.

The normal is the kink's gradient jump.  Across the path wall v . x_p = 0
the loss pieces differ by (v . x_p) * G, so on the wall the gradient in v
jumps by G * x_p: the input itself, times a scalar.  refine_kink measures
that jump in one oracle batch of central differences on both sides of the
wall, 8 rows per coordinate of the line, Richardson-extrapolated over two
offsets (_gradient_jump).  A jump whose two offsets disagree in direction
is rejected as jump-gate, and one whose J . d misses the models' slope
jump, a refine that settled off its wall, as off-wall.  run_attack reads
every other jump as an input direction.  A flat kink, one whose slope
does not jump, has no jump to read and is rejected as flat.

Everything here is double precision; exact algebra stays in polyalg.
run_attack is black-box: it sees only the oracle, the parameter count N
and the input arity d_1, never the sample list or the architecture.

The oracle is any callable w -> E(w).  LossOracle counts its queries,
enforces the budget and raises NonFiniteLossError on a NaN or infinite
value, so no such value reaches a fit or a median.  A batch-capable
oracle (one with a true ``batched`` attribute, as make_loss_fn returns)
gets each scan grid, each refine stencil, each refine's 2-row check and
each jump batch as one (Q, N) array through LossOracle.many;
bisection steps stay single queries.  Any other callable is asked one row
at a time, with the same queries, counts and results.  run_attack's path
oracle keeps the oracle's batching, and each path row is one query.

AttackConfig holds what a caller sets: the query budget, the number of
scan lines and the seed.  The fineness of the scan, the reach of the
jump stencil and the strictness of the gates are fixed heuristics, the
module constants below; the functions read them at call time, except
that DEGREE also fixes refine_kink's interpolation matrices when the
module is imported.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegeneracyError,
    HarvestError,
    NonFiniteLossError,
    QueryBudgetExceeded,
    RecoveryError,
    SpuriousKinkError,
)
from .polyalg import Poly

GRID = 257  # scan grid points per line: kinks a few cells apart stay separate
T_RANGE = (-4.0, 4.0)  # scan interval along each unit-direction line
MAX_KINKS_PER_LINE = 8  # strongest flagged cells refined per scan line
DETECT_TOL = 12.0  # fourth difference over its rolling-median scale that flags a cell
# degree of refine_kink's one-sided models: exact on the piecewise-quadratic path and warm-up losses
# every pipeline scans today, and kept quartic for refine_kink on any line of a depth-3 loss
DEGREE = 4
REFINE_TOL = 1e-9  # widest settled bracket (check pair or bisection), near float noise on t
SPURIOUS_TOL = 1e-7  # refine_kink's jump noise floors, relative to the loss scale
JUMP_STEP = 1e-6  # central-difference step h of the gradient jump's batch
JUMP_OFFSET = 1e-4  # distance s of the jump's gradients from the wall; also taken at s / 2
JUMP_GATE = 0.999  # heuristic (so labelled in reports): least |cos(J(s), J(s/2))| accepted
OFF_WALL_RATIO = 2.0  # heuristic (so labelled in reports): |J . d| this factor off the slope jump is off-wall
RETRIES = 3  # extra rescans, at halved offsets, before a harvest loses the sheet
HARVEST_WINDOW_GRID = 33  # grid points of each rescan window in harvest_sheet_points
DEGENERACY_TOL = 1e-10  # least s[N-2] / s[0] of a point cloud fit_hyperplane accepts
SUPPORT_TOL = 1e-4  # normal entries below this share of the largest are numerical dust
DEDUP_TOL = 1e-6  # directions with |cos| >= 1 - DEDUP_TOL are one direction
MATCH_THRESHOLD = 0.999  # |cos| at which a direction counts as a recovered sample

# refine_kink's models in the bracket's own coordinate x = (t - mid) / h, h = width / DEGREE: the
# bracket is |x| < DEGREE / 2, the left nodes sit at -(DEGREE / 2 + j) and the right ones at
# DEGREE / 2 + j, so each side's ascending coefficients are its values times one of these
_NODES = DEGREE / 2 + np.arange(DEGREE + 1)
_LEFT_INVERSE = np.linalg.inv(np.vander(-_NODES, increasing=True))
_RIGHT_INVERSE = np.linalg.inv(np.vander(_NODES, increasing=True))


class LossOracle:
    """Callable loss wrapper with a query counter and optional hard budget.

    The counter increments exactly once per query; when a budget is set,
    the query that would exceed it raises QueryBudgetExceeded before
    touching the underlying function, so query_count never passes budget.
    A NaN or infinite loss raises NonFiniteLossError (that query counts).

    many(W) answers the rows of a (Q, N) array as Q queries, charged and
    checked exactly as Q calls in row order would be.  A function whose
    ``batched`` attribute is true (make_loss_fn's) gets the rows that fit
    the budget in one call; any other function is called once per row.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], budget: int | None = None):
        self._fn = fn
        self.query_count = 0
        self.budget = budget

    def __call__(self, w) -> float:
        if self.budget is not None and self.query_count >= self.budget:
            raise QueryBudgetExceeded(f"oracle budget of {self.budget} queries exhausted")
        self.query_count += 1
        value = float(self._fn(np.asarray(w, dtype=float)))
        if not math.isfinite(value):
            raise NonFiniteLossError(f"loss oracle returned {value} at query {self.query_count}")
        return value

    def many(self, W) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        if not getattr(self._fn, "batched", False):
            return np.array([self(w) for w in W], dtype=float)
        fits = len(W)
        if self.budget is not None:
            fits = min(fits, max(self.budget - self.query_count, 0))
        ys = np.asarray(self._fn(W[:fits]), dtype=float).reshape(fits) if fits else np.empty(0)
        finite = np.isfinite(ys)
        if not finite.all():
            bad = int(finite.argmin())  # the first non-finite row
            self.query_count += bad + 1
            raise NonFiniteLossError(f"loss oracle returned {ys[bad]} at query {self.query_count}")
        self.query_count += fits
        if fits < len(W):
            raise QueryBudgetExceeded(f"oracle budget of {self.budget} queries exhausted")
        return ys


def _as_oracle(oracle) -> LossOracle:
    """A LossOracle as is; any other callable wrapped without a budget."""
    return oracle if isinstance(oracle, LossOracle) else LossOracle(oracle)


@dataclass(frozen=True)
class KinkPoint:
    """A refined nonsmooth point on a scan line.

    t is the kink's coordinate along the line, location = base + t *
    direction, in the coordinates of the oracle that was scanned: for the
    kinks of run_attack, path coordinates v in d_1 dimensions (the full
    weight vector is v followed by N - d_1 ones).

    jump_magnitude is the slope jump |f'(t+) - f'(t-)|.  It is zero up to
    noise for a second-order kink (curvature jump only), which is how the
    loss behaves across a wall where the residual happens to vanish; the
    curvature jump is then the signal.  t is good to about REFINE_TOL
    where the slope jumps; at a flat (C^1) kink only to about the square
    root of the loss noise (~1e-6 in demo 01), see refine_kink.

    gradient_jump is the Richardson jump J = 2 J(s/2) - J(s) of the loss
    gradient across the kink, over every coordinate of the line, and
    jump_agreement is |cos(J(s), J(s/2))| (see refine_kink and
    _gradient_jump).  rejection is why that measurement rejects the kink
    ('jump-gate' or 'off-wall'), and gradient_jump is then None.  All three
    are None exactly for a flat kink, which gets no jump batch.
    """

    t: float
    location: tuple[float, ...]
    line: tuple[tuple[float, ...], tuple[float, ...]]  # (base, direction)
    jump_magnitude: float
    curvature_jump: float
    gradient_jump: tuple[float, ...] | None = None
    jump_agreement: float | None = None
    rejection: str | None = None


def _jump_pair(oracle: LossOracle, point: np.ndarray, unit: np.ndarray):
    """(J(s), J(s/2)) over every coordinate, from one batch of 8 rows per coordinate.

    The centers are point + r*unit at r = s, -s, s/2, -s/2, unit the unit
    line direction and s = JUMP_OFFSET.  J(r) is the central-difference
    gradient (step JUMP_STEP along each coordinate axis) at point + r*unit
    minus the one at point - r*unit.
    """
    n = len(point)
    h = JUMP_STEP
    s = JUMP_OFFSET
    centers = (point + np.array([s, -s, s / 2, -s / 2])[:, None] * unit)[:, None, :]  # (4, 1, N)
    steps = h * np.eye(n)
    rows = np.empty((4, 2, n, n))
    np.add(centers, steps, out=rows[:, 0])
    np.subtract(centers, steps, out=rows[:, 1])
    ys = oracle.many(rows.reshape(-1, n)).reshape(4, 2, n)
    grads = (ys[:, 0] - ys[:, 1]) / (2.0 * h)  # (4, N): at +s, -s, +s/2, -s/2
    return grads[0] - grads[1], grads[2] - grads[3]


def _richardson(jump_s: np.ndarray, jump_half: np.ndarray):
    """(2 J(s/2) - J(s), |cos(J(s), J(s/2))|), the agreement at most 1.

    J(r) = jump + r * (H+ + H-) d + O(r^2), so the combination cancels the
    first-order spill of the one-sided Hessians H+-.  The agreement is 0
    when either jump or the combination is zero: a zero normal has no
    direction to agree on.
    """
    jump = 2.0 * jump_half - jump_s
    norms = math.sqrt(float(np.dot(jump_s, jump_s))) * math.sqrt(float(np.dot(jump_half, jump_half)))
    if norms == 0.0 or not jump.any():
        return jump, 0.0
    return jump, min(1.0, abs(float(np.dot(jump_s, jump_half))) / norms)


def _gradient_jump(oracle: LossOracle, point: np.ndarray, direction: np.ndarray, slope_jump: float):
    """(J, agreement, None) across the wall at point, or (None, agreement, rejection).

    One batch of 8 rows per coordinate of the line measures J over every
    coordinate.  A jump whose agreement is below JUMP_GATE is 'jump-gate'.
    On the wall, J . d (d the line's unit direction) is the models'
    slope_jump over |d|: a ratio off by OFF_WALL_RATIO or more is
    'off-wall'.
    """
    norm = math.sqrt(float(np.dot(direction, direction)))
    unit = direction / norm
    jump, agreement = _richardson(*_jump_pair(oracle, point, unit))
    if agreement < JUMP_GATE:
        return None, agreement, "jump-gate"
    if not 1.0 / OFF_WALL_RATIO < abs(float(np.dot(jump, unit))) * norm / slope_jump < OFF_WALL_RATIO:
        return None, agreement, "off-wall"
    return jump, agreement, None


def _horner(coeffs: list[float], x: float) -> tuple[float, float, float]:
    """(p(x), p'(x), p''(x)) of the polynomial with ascending coeffs, by Horner."""
    p = d1 = d2 = 0.0  # d2 accumulates p''(x) / 2
    for c in reversed(coeffs):
        d2 = d2 * x + d1
        d1 = d1 * x + p
        p = p * x + c
    return p, d1, 2.0 * d2


def _crossing(left: list[float], right: list[float]) -> float | None:
    """The one real root of left - right inside the bracket |x| < DEGREE / 2, else None.

    None also when the root is not alone: a flat kink's two models touch
    in a double root, which comes out as a close pair or a complex one.
    """
    roots = np.roots(np.subtract(left, right)[::-1])
    inside = [float(r.real) for r in roots if r.imag == 0.0 and abs(r.real) < DEGREE / 2]
    return inside[0] if len(inside) == 1 else None


def refine_kink(oracle, base, direction, bracket: tuple[float, float]) -> KinkPoint:
    """Refine a bracketed kink at the crossing of its left/right local models.

    Fits exact interpolants just outside the bracket: their 2 * (DEGREE +
    1) points are one oracle batch.  The two models are extrapolations of
    the adjacent polynomial pieces, so the kink sits where they cross.  A
    point lies on the piece whose model is closer to its value.  The
    crossing guess t, the single real root of their difference inside the
    bracket, is checked with one 2-query batch at t -+ 0.45 * REFINE_TOL
    when that pair lies strictly inside the bracket: left then right
    settles the kink; both left or both right moves the near end of the
    bracket past the pair; right then left keeps the bracket.  Whatever
    the check leaves is bisected, one query per step, keeping the half
    whose model disagrees with the midpoint's value.  The comparison
    stays decisive until the pieces agree to float noise; past that the
    bracket can only shrink inside the noise ball, so the answer lands
    within it.  At a flat (C^1) kink the pieces part only quadratically,
    so that ball reaches about the square root of the loss noise (~1e-6
    in demo 01), far wider than REFINE_TOL.  A bracket where both the
    slope jump and the curvature jump of the two models sit below their
    noise floors held no kink.

    Bisection stops at width REFINE_TOL, or earlier where the midpoint
    rounds to an end of the bracket (far out on the line, where
    neighbouring doubles lie more than REFINE_TOL apart; the check pair
    would collapse there and is skipped).  A refine costs 2 * (DEGREE + 1)
    queries, plus 2 for the check when there is a guess, plus at most
    ceil(log2(width / REFINE_TOL)) bisection steps, none when the check
    settles the kink.  Only the oracle's budget caps them
    (QueryBudgetExceeded).

    A kink whose slope jump clears its noise floor then gets its gradient
    jump (_gradient_jump): one more batch of 8N queries.  A flat kink gets
    none.
    """
    oracle = _as_oracle(oracle)
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError(f"empty bracket {bracket}")
    width0 = hi - lo
    h = width0 / DEGREE
    mid = 0.5 * (lo + hi)
    ts = [lo - j * h for j in range(DEGREE + 1)] + [hi + j * h for j in range(DEGREE + 1)]
    ys = oracle.many(base + np.array(ts)[:, None] * direction)
    # exact local polynomial models through the DEGREE + 1 points of each side, in x = (t - mid) / h
    left = np.dot(_LEFT_INVERSE, ys[: DEGREE + 1]).tolist()
    right = np.dot(_RIGHT_INVERSE, ys[DEGREE + 1 :]).tolist()

    def on_left(t: float, value: float) -> bool:
        x = (t - mid) / h
        return abs(_horner(left, x)[0] - value) <= abs(_horner(right, x)[0] - value)

    guess = _crossing(left, right)
    if guess is not None:
        t_hat = mid + guess * h
        a, b = t_hat - 0.45 * REFINE_TOL, t_hat + 0.45 * REFINE_TOL
        if lo < a < b < hi:
            fa, fb = oracle.many(base + np.array([a, b])[:, None] * direction).tolist()
            sides = (on_left(a, fa), on_left(b, fb))
            if sides == (True, False):
                lo, hi = a, b
            elif sides == (True, True):
                lo = b
            elif sides == (False, False):
                hi = a

    m = 0.5 * (lo + hi)
    while hi - lo > REFINE_TOL and lo < m < hi:
        if on_left(m, oracle(base + m * direction)):
            lo = m  # midpoint still on the left piece: kink is to the right
        else:
            hi = m
        m = 0.5 * (lo + hi)
    t_star = m

    x_star = (t_star - mid) / h
    _, slope_left, curv_left = _horner(left, x_star)
    _, slope_right, curv_right = _horner(right, x_star)
    jump = abs(slope_left - slope_right) / h
    jump2 = abs(curv_left - curv_right) / h**2
    y_scale = 1.0 + float(np.max(np.abs(ys)))
    w0 = max(width0, 1e-12)
    slope_floor = SPURIOUS_TOL * y_scale / w0
    curv_floor = SPURIOUS_TOL * y_scale / w0**2
    if jump <= slope_floor and jump2 <= curv_floor:
        raise SpuriousKinkError(
            f"slope jump {jump:.3e} and curvature jump {jump2:.3e} below noise floors: "
            "no kink in bracket"
        )
    loc = base + t_star * direction
    gradient_jump = agreement = rejection = None
    if jump > slope_floor:
        J, agreement, rejection = _gradient_jump(oracle, loc, direction, jump)
        if J is not None:
            gradient_jump = tuple(J.tolist())
    return KinkPoint(
        t=t_star,
        location=tuple(loc.tolist()),
        line=(tuple(base.tolist()), tuple(direction.tolist())),
        jump_magnitude=float(jump),
        curvature_jump=float(jump2),
        gradient_jump=gradient_jump,
        jump_agreement=agreement,
        rejection=rejection,
    )


def _rolling_median(x: np.ndarray, half: int) -> np.ndarray:
    """np.median(x[max(0, i - half) : i + half + 1]) for every i, at once.

    The NaN padding of the edge windows sorts last, so the first count
    entries of a sorted window are its own values, count known from i.
    x must hold no NaN of its own.
    """
    n = len(x)
    pad = np.full(half, np.nan)
    windows = np.sort(sliding_window_view(np.concatenate([pad, x, pad]), 2 * half + 1), axis=1)
    i = np.arange(n)
    count = np.minimum(n, i + half + 1) - np.maximum(0, i - half)
    lo, hi = windows[i, (count - 1) // 2], windows[i, count // 2]
    return np.where(count % 2 == 1, lo, (lo + hi) / 2)


def detect_kinks_on_line(
    oracle,
    base,
    direction,
    t_range: tuple[float, float],
    grid: int,
    *,
    max_kinks: int | None = None,
) -> list[KinkPoint]:
    """Scan a line for nonsmooth points of the loss.

    The grid is one oracle batch.  Works off the centered fourth
    difference, which spikes at h*|slope jump| for a first-order kink and
    at h^2*|curvature jump| for a second-order one, against a smooth
    background of order h^4.  (The second difference would miss
    second-order kinks: it only steps.)  A grid point is flagged when its
    fourth difference exceeds DETECT_TOL times the local scale, a rolling
    median plus an absolute floor, so the test is invariant to the overall
    magnitude of the loss.  Runs of flags collapse to their strongest
    cell, and cells within 4 of a stronger one are dropped, so the kept
    cells lie more than 4 apart.  Each kept cell's one-spacing bracket is
    refined by refine_kink, which stays inside its bracket, so two kinks
    of one scan lie at least 3 grid spacings apart; the strongest
    max_kinks cells are refined.  Each refine costs its 2 * (DEGREE + 1)
    stencil, 2 for the check of its crossing guess, and the bisection
    steps the check leaves: at most ceil(log2(width / REFINE_TOL)), none
    when the check settles the kink; plus 8N for the gradient jump unless
    the kink is flat.  A bracket that proves spurious is skipped; the
    oracle's budget running out ends the scan.  Kinks closer together than
    a few grid cells can merge or shadow each other; the caller controls
    recall through grid and t_range.
    """
    oracle = _as_oracle(oracle)
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0:
        raise ValueError(f"bad t_range {t_range}")
    if grid < 8:
        raise ValueError("grid too small to detect anything")
    if max_kinks is not None and max_kinks < 0:
        raise ValueError(f"max_kinks must be >= 0, got {max_kinks}")
    ts = np.linspace(t0, t1, grid)
    ys = oracle.many(base + ts[:, None] * direction)
    d4 = np.abs(ys[:-4] - 4.0 * ys[1:-3] + 6.0 * ys[2:-2] - 4.0 * ys[3:-1] + ys[4:])
    floor = 1e-11 * (float(np.max(np.abs(ys))) + 1.0)
    n = len(d4)  # d4[c] is centered at grid point c + 2
    local = _rolling_median(d4, 10)
    flagged = d4 > np.maximum(DETECT_TOL * (local + floor), floor)

    runs: list[int] = []  # strongest cell per run of flags
    i = 0
    while i < n:
        if flagged[i]:
            j = i
            while j + 1 < n and flagged[j + 1]:
                j += 1
            runs.append(i + int(np.argmax(d4[i : j + 1])))
            i = j + 1
        else:
            i += 1
    runs.sort(key=lambda c: d4[c], reverse=True)
    groups: list[int] = []
    for cell in runs:  # adjacent runs around one kink collapse to the strongest
        if all(abs(cell - kept) > 4 for kept in groups):
            groups.append(cell)
    if max_kinks is not None:
        groups = groups[:max_kinks]

    out: list[KinkPoint] = []
    for cell in groups:
        center = cell + 2
        lo_t, hi_t = float(ts[center - 1]), float(ts[center + 1])
        try:
            kink = refine_kink(oracle, base, direction, (lo_t, hi_t))
        except SpuriousKinkError:
            continue
        out.append(kink)
    out.sort(key=lambda k: k.t)
    return out


# No pipeline calls this; it stays while bench/tracing.py wraps it by name.  Its rescans pay for a
# gradient jump batch per first-order kink, which it never reads.
def harvest_sheet_points(
    oracle,
    kink: KinkPoint,
    n_points: int,
    radius: float,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Seed point plus n_points refined sheet points, all within 2*radius.

    Each point comes from perturbing the line base by a random offset of
    norm at most radius, rescanning a short window around the seed t and
    refining the nearest kink.  A lost or drifted kink is retried with a
    fresh, smaller offset up to RETRIES extra times, then HarvestError.
    """
    base = np.asarray(kink.line[0], dtype=float)
    direction = np.asarray(kink.line[1], dtype=float)
    seed_pt = np.asarray(kink.location, dtype=float)
    dim = len(seed_pt)
    pts = [seed_pt]
    window = 8.0 * radius / max(float(np.linalg.norm(direction)), 1e-12)
    for _ in range(n_points):
        got = None
        for attempt in range(RETRIES + 1):
            frac = rng.uniform(0.3, 0.8) * (0.5**attempt)
            offset = rng.normal(size=dim)
            offset *= (frac * radius) / max(float(np.linalg.norm(offset)), 1e-300)
            shifted = base + offset
            kinks = detect_kinks_on_line(
                oracle,
                shifted,
                direction,
                (kink.t - window, kink.t + window),
                HARVEST_WINDOW_GRID,
                max_kinks=3,
            )
            if not kinks:
                continue
            best = min(kinks, key=lambda q: abs(q.t - kink.t))
            pt = np.asarray(best.location, dtype=float)
            if float(np.linalg.norm(pt - seed_pt)) <= 2.0 * radius:
                got = pt
                break
        if got is None:
            raise HarvestError(
                f"kink lost near t={kink.t:.6g} after {RETRIES + 1} attempts"
            )
        pts.append(got)
    return np.array(pts)


# No pipeline calls this; it stays while bench/tracing.py wraps it by name.
def fit_hyperplane(points) -> tuple[np.ndarray, float]:
    """Best-fit hyperplane normal through a point cloud.

    Centers the points and takes the right singular vector of the
    smallest singular value; the sign convention makes the first nonzero
    entry positive.  Needs the cloud to span the hyperplane: a centered
    rank below N-1 cannot pin the normal down and raises DegeneracyError.
    Returns (unit normal, RMS distance of the points to the plane).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-D array of points")
    m, n = pts.shape
    if m < n + 1:
        raise ValueError(f"need at least N+1 = {n + 1} points, got {m}")
    centered = pts - pts.mean(axis=0)
    _u, s, vt = np.linalg.svd(centered, full_matrices=True)
    if s[0] <= 0.0:
        raise DegeneracyError("all points coincide")
    if n >= 2 and s[n - 2] <= DEGENERACY_TOL * s[0]:
        raise DegeneracyError(
            f"points span rank < N-1 (s[{n - 2}]/s[0] = {s[n - 2] / s[0]:.3e})"
        )
    normal = vt[-1]
    normal = _sign_normalize(normal / np.linalg.norm(normal))
    residual = float(np.sqrt(np.mean(np.dot(centered, normal) ** 2)))
    return normal, residual


def _sign_normalize(v: np.ndarray) -> np.ndarray:
    for x in v:
        if x != 0.0:
            return v if x > 0 else -v
    return v


def _support_direction(normal: np.ndarray) -> tuple[float, ...]:
    """normal without its entries at or below SUPPORT_TOL times the largest, unit and sign-normalised."""
    size = np.abs(normal)
    kept = np.where(size > SUPPORT_TOL * np.max(size), normal, 0.0)
    return tuple(float(c) for c in _sign_normalize(kept / np.linalg.norm(kept)))


@dataclass(frozen=True)
class ExtractedDirection:
    """Classification of a sheet normal.

    kind is 'weight-parameter' (one-variable support: a bare weight, or a
    one-hot input colliding with one), 'input-direction' (support inside
    a single first-layer column: coefficients are the input up to scale),
    or 'nonlinear' (anything else: the sheet was not a linear wall).
    """

    kind: str
    direction: tuple[float, ...] | None = None
    node: int | None = None


# No pipeline calls this; it stays while bench/tracing.py wraps it by name and criterion 10's test uses it.
def aligned_input_direction(normal, input_dim: int) -> ExtractedDirection:
    """Blind normal classification knowing only d_1.

    Every linear sheet is a bare weight or a first-layer column, and the
    flat layout makes each column d_1 consecutive entries starting at a
    multiple of d_1, so a support inside one aligned window is read as an
    input direction without knowing the rest of the architecture.  Entries
    below SUPPORT_TOL times the largest are not part of the support.
    """
    normal = np.asarray(normal, dtype=float)
    amax = float(np.max(np.abs(normal)))
    if amax == 0.0:
        raise DegeneracyError("zero normal")
    support = tuple(int(v) for v in np.flatnonzero(np.abs(normal) > SUPPORT_TOL * amax))
    if len(support) == 1:
        return ExtractedDirection("weight-parameter")
    windows = {v // input_dim for v in support}
    if len(windows) == 1:
        q = windows.pop()
        coeffs = np.zeros(input_dim)
        for v in support:
            coeffs[v - q * input_dim] = normal[v]
        return ExtractedDirection("input-direction", direction=_support_direction(coeffs), node=q + 1)
    return ExtractedDirection("nonlinear")


# architecture recovery from exact sheet sets


def recover_architecture(defining_polys: Sequence[Poly]) -> tuple[int, ...]:
    """Widths d_1..d_L from an exact sheet polynomial set (white-box).

    Multi-variable linear sheets are the first-layer columns: overlapping
    supports merge into one column per second-layer node, giving d_1 and
    d_2.  Then inductively, a sheet whose every monomial is k distinct
    weights, one already assigned to each of layers 1..k-1 plus exactly
    one new variable, assigns its new variables to layer k, and d_{k+1} is
    the layer-k variable count divided by d_k.  Single-variable sheets
    are ambiguous (weight parameter vs one-hot input) and stay out of the
    induction.
    """
    polys: list[Poly] = []
    seen: set[Poly] = set()
    for p in defining_polys:
        if p.is_zero():
            continue
        q = p.normalized()
        if q not in seen:
            seen.add(q)
            polys.append(q)

    columns: list[set[int]] = []
    for p in polys:
        if p.total_degree() != 1 or any(not key for key, _ in p.terms):
            continue
        merged = set(p.variables())
        if len(merged) < 2:
            continue
        keep: list[set[int]] = []
        for col in columns:
            if col & merged:
                merged |= col
            else:
                keep.append(col)
        keep.append(merged)
        columns = keep
    if not columns:
        raise RecoveryError(
            "no multi-variable linear sheets: inputs degenerate or sheet set incomplete"
        )
    d1 = max(len(col) for col in columns)
    d2 = len(columns)
    layer_of = {v: 1 for col in columns for v in col}  # the merge left the columns disjoint
    widths = [d1, d2]

    k = 2
    while True:
        new_vars: set[int] = set()
        for p in polys:
            cand: set[int] = set()
            for key, _c in p.terms:  # one weight of each layer 1..k-1 and one new, all linear
                known = sorted(layer_of[v] for v, _e in key if v in layer_of)
                unknown = [v for v, _e in key if v not in layer_of]
                if any(e != 1 for _v, e in key) or len(unknown) != 1 or known != list(range(1, k)):
                    break
                cand.add(unknown[0])
            else:
                new_vars |= cand
        if not new_vars:
            break
        layer_of.update(dict.fromkeys(new_vars, k))  # each was unknown in its term
        if len(new_vars) % widths[k - 1] != 0:
            raise RecoveryError(
                f"layer-{k} weight count {len(new_vars)} not divisible by d_{k} = {widths[k - 1]}"
            )
        widths.append(len(new_vars) // widths[k - 1])
        k += 1
    return tuple(widths)


# end-to-end pipeline


def _check_integer(what: str, value, least: int, most: int | None = None) -> None:
    """ValueError unless value is an integer (not a bool) from least to most."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least
            or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{what} must be an integer {bound}, got {value!r}")


@dataclass(frozen=True)
class AttackConfig:
    """What a run_attack caller sets: query budget, scan lines and seed.

    n_lines is the number of path lines, each a random line in the d_1
    path coordinates (see run_attack).  The seed draws each line's base
    and direction.  Every other setting is a module constant.  JUMP_GATE
    and OFF_WALL_RATIO among them are artifact heuristics (flagged as such
    in reports): a gradient jump whose two offsets agree in direction
    below JUMP_GATE is dropped, and so is one whose J . d is off the
    models' slope jump by a factor of OFF_WALL_RATIO or more, rather than
    read as a direction.
    """

    budget: int = 200_000
    n_lines: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, least in (("budget", 1), ("n_lines", 1), ("seed", 0)):
            _check_integer(f"attack config {name!r}", getattr(self, name), least)

    @staticmethod
    def from_json(data: dict) -> "AttackConfig":
        for key in data:
            if key not in AttackConfig.__dataclass_fields__:
                raise ValueError(f"unknown attack config key {key!r}")
        return AttackConfig(**data)


@dataclass(frozen=True)
class RecoveredDirection:
    direction: tuple[float, ...]
    node: int | None  # the second-layer node whose wall it is: 1, the path's node
    # 'gradient-jump', the only source: the kink's gradient jump, residual 1 - |cos(J(s), J(s/2))|
    residual: float
    provenance: str


@dataclass(frozen=True)
class DirectionMatch:
    direction_index: int
    sample_index: int
    cosine: float
    scale: float


REJECTION_REASONS = ("jump-gate", "off-wall", "flat")


@dataclass
class ReconstructionReport:
    directions: list[RecoveredDirection] = field(default_factory=list)
    matches: list[DirectionMatch] = field(default_factory=list)
    architecture: tuple[int, ...] | str = "not attempted"
    oracle_queries: int = 0
    kinks: list[tuple[int, float, float]] = field(default_factory=list)
    # rejected kinks by reason: the jump gate failed, J . d missed the slope jump
    # (off its wall), or the slope did not jump (a flat kink, with no jump to read)
    rejections: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))
    budget: int | None = None
    budget_exhausted: bool = False

    @property
    def rejected_sheets(self) -> int:
        return sum(self.rejections.values())

    def to_json(self) -> dict:
        return {
            "directions": [asdict(d) | {"direction": list(d.direction)} for d in self.directions],
            "matches": [asdict(m) for m in self.matches],
            "architecture": list(self.architecture)
            if isinstance(self.architecture, tuple)
            else self.architecture,
            "oracle_queries": self.oracle_queries,
            "rejected_sheets": self.rejected_sheets,
            "rejections": dict(self.rejections),
            "kink_count": len(self.kinks),
            "budget": self.budget,
            "budget_exhausted": self.budget_exhausted,
            "jump_gate": JUMP_GATE,
            "jump_gate_note": "artifact heuristic threshold on |cos(J(s), J(s/2))|, "
            "not derived from the model",
            "off_wall_ratio": OFF_WALL_RATIO,
            "off_wall_ratio_note": "artifact heuristic bound on |J.d| / slope jump, off-wall "
            "outside (1 / off_wall_ratio, off_wall_ratio), not derived from the model",
        }

    def kink_csv(self) -> str:
        lines = ["line_id,t,jump,refined"]  # every kink is refined; the column keeps the format
        for line_id, t, jump in self.kinks:
            lines.append(f"{line_id},{t!r},{jump!r},true")
        return "\n".join(lines) + "\n"


def _match_directions(
    directions: list[RecoveredDirection], true_inputs
) -> list[DirectionMatch]:
    matches = []
    for di, rec in enumerate(directions):
        v = np.asarray(rec.direction, dtype=float)
        best = None
        for si, a in enumerate(true_inputs):
            a = np.asarray(a, dtype=float)
            na = float(np.linalg.norm(a))
            if na == 0.0:
                continue
            cos = abs(float(np.dot(a, v))) / (na * float(np.linalg.norm(v)))
            if best is None or cos > best[1]:
                scale = float(np.dot(a, v)) / float(np.dot(v, v))
                best = (si, cos, scale)
        if best is not None:
            matches.append(DirectionMatch(di, best[0], best[1], best[2]))
    return matches


def _path_oracle(oracle: Callable[[np.ndarray], float], n_weights: int, input_dim: int):
    """The d_1-variable loss v -> E(v, 1, ..., 1), batch-capable when the oracle is.

    v is the first d_1 flat weights, row 1 of W_1 into node 1 of layer 2,
    and every other weight is 1.  Each row is one query to oracle.
    """
    ones = np.ones(n_weights - input_dim)

    def path(v):
        v = np.asarray(v, dtype=float)
        return oracle(np.concatenate([v, np.broadcast_to(ones, v.shape[:-1] + ones.shape)], axis=-1))

    path.batched = getattr(oracle, "batched", False)
    return path


def run_attack(
    oracle: Callable[[np.ndarray], float],
    n_weights: int,
    input_dim: int,
    config: AttackConfig | None = None,
    *,
    true_inputs: Sequence[Sequence[float]] | None = None,
) -> ReconstructionReport:
    """Black-box reconstruction: path scan, refine, jump, gate, read.

    Scans cfg.n_lines random lines of the path loss v -> E(v, 1, ..., 1)
    in the first d_1 weights (_path_oracle; see the module docstring),
    whose only walls are v . x_p = 0, one per sample, refining the
    strongest MAX_KINKS_PER_LINE kinks of each.  Each path row is one
    query against cfg.budget.  A kink's gradient jump over the d_1 path
    coordinates is x_p times a scalar.  Each jump that passes JUMP_GATE
    on its wall (see _gradient_jump) is read as an input direction:
    entries at or below SUPPORT_TOL times the largest are dropped, and
    the rest is normalised, so a one-hot input comes back too.  A flat
    kink has no jump and is rejected as 'flat'.  The kinks in
    report.kinks are (line, t, slope jump) on the path lines, and every
    direction's node is 1.  At very wide shapes the all-ones weights make
    the loss so large that kinks read as flat, and few samples come back
    there.
    Knows only the oracle, the weight count N and the input arity d_1.
    Recovered directions are unit vectors in input space, deduplicated at
    |cos| >= 1 - DEDUP_TOL; when true_inputs is supplied (scoring only,
    never consulted by the search) each direction is matched to its best
    sample by |cosine| together with the implied scalar multiple.
    Raises ValueError, before any query, unless N >= 1 and 1 <= d_1 <= N.
    """
    _check_integer("n_weights", n_weights, 1)
    _check_integer("input_dim", input_dim, 1, n_weights)
    cfg = config or AttackConfig()
    counted = LossOracle(_path_oracle(oracle, n_weights, input_dim), budget=cfg.budget)
    report = ReconstructionReport(budget=cfg.budget)

    raw_candidates: list[RecoveredDirection] = []
    try:
        for line_id in range(cfg.n_lines):
            # the line's child of SeedSequence(seed).spawn(n_lines), built when it is reached
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(line_id,)))
            base = rng.normal(size=input_dim)
            direction = rng.normal(size=input_dim)
            direction /= np.linalg.norm(direction)
            kinks = detect_kinks_on_line(
                counted, base, direction, T_RANGE, GRID, max_kinks=MAX_KINKS_PER_LINE
            )
            for kink in kinks:
                report.kinks.append((line_id, kink.t, kink.jump_magnitude))
                if kink.gradient_jump is None:
                    report.rejections[kink.rejection or "flat"] += 1
                else:
                    raw_candidates.append(RecoveredDirection(
                        _support_direction(np.asarray(kink.gradient_jump)), 1,
                        1.0 - kink.jump_agreement, "gradient-jump"))
    except QueryBudgetExceeded:
        report.budget_exhausted = True

    for cand in raw_candidates:
        v = np.asarray(cand.direction)
        dup = False
        for idx, kept in enumerate(report.directions):
            u = np.asarray(kept.direction)
            cos = abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))
            if cos >= 1.0 - DEDUP_TOL:
                if cand.residual < kept.residual:
                    report.directions[idx] = cand
                dup = True
                break
        if not dup:
            report.directions.append(cand)

    if true_inputs is not None:
        report.matches = _match_directions(report.directions, true_inputs)
    report.oracle_queries = counted.query_count
    return report
