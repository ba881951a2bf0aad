"""Reconstruction from oracle access to the loss.

The pipeline mirrors how the loss surface is built: training inputs show
up as the coefficient vectors of the linear walls, so the attack scans
lines for kinks, places each where the exact polynomial pieces on either
side meet (no bisection), measures the wall normal, gates it and reads
the input direction off the normal's support.

run_attack chooses where it looks.  It scans the path loss
v -> E(v, 1, ..., 1): the first d_1 flat weights (row 1 of W_1, into
node 1 of layer 2) are free and every other weight is 1.  Every node
above layer 2 then gets a non-negative input and passes it on, so the
net computes A * relu(v . x_p) + B_p for each sample p, with A > 0 and
B_p fixed.  In v the loss is piecewise quadratic with exactly one wall
v . x_p = 0 per sample and no deep wall, and each wall's normal is its
sample's input.  The scan and jump below run unchanged on that
d_1-variable oracle, with N' = d_1 and degree 2.  The all-ones weights
are a layout-free choice.  They need no knowledge of the widths past
d_1, but at very wide shapes (such as [8,30,30,30,4]) they make the loss
so large that kinks read as flat.  A path with every other weight at a
small kappa and v scaled to the loss would not, and needs no layout either
(ROADMAP item 3).

The normal is the kink's gradient jump.  Across the path wall v . x_p = 0
the loss pieces differ by (v . x_p) * G, so on the wall the gradient in v
jumps by G * x_p: the input itself, times a scalar.  The scan measures
it with central differences on both sides of the wall, Richardson-
extrapolated over two offsets (_gradient_jumps).  A jump whose offsets
disagree in direction is rejected as jump-gate, one whose J . d misses
the models' slope jump as off-wall, and a flat kink, whose slope does
not jump, as flat.  run_attack reads every other jump as an input
direction.

Everything here is double precision; exact algebra stays in polyalg.
run_attack is black-box: it sees only the oracle, the parameter count N
and the input arity d_1, never the sample list or the architecture.

The oracle is any callable w -> E(w).  LossOracle counts its queries,
enforces the budget and raises NonFiniteLossError on a NaN or infinite
value, so no such value reaches a fit.  A batch-capable oracle (one with
a true ``batched`` attribute, as make_loss_fn returns) gets one (Q, N)
array per round of a line's scan through LossOracle.many.  Any other
callable is asked one row at a time, with the same queries, counts and
results.  run_attack's path oracle keeps the oracle's batching, and
each path row is one query.

AttackConfig holds what a caller sets: the query budget, the number of
scan lines and the seed.  The fineness of the scan, the reach of the
jump stencil and the strictness of the gates are fixed heuristics, the
module constants below, which the functions read at call time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegeneracyError,
    HarvestError,
    NonFiniteLossError,
    QueryBudgetExceeded,
    RecoveryError,
    SpuriousKinkError,
)
from .polyalg import Poly

GRID = 33  # scan grid points per line; subdivision parts kinks closer than a spacing
T_RANGE = (-4.0, 4.0)  # scan interval along each unit-direction line
ROUNDS = 12  # most subdivision rounds of one scan
MIN_CELL = 1e-7  # narrowest cell a scan splits
EXACT_TOL = 1e-10  # window tolerance relative to the loss, above float64 noise on exact pieces
NOISE_FACTOR = 100.0  # heuristic (so labelled in reports): noisy-oracle window tolerance, in noise floors
REFINE_TOL = 1e-9  # least gap of a crossing's check pair, near float noise on t
SPURIOUS_TOL = 1e-7  # the scan's jump noise floors, relative to the loss scale
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
    """A nonsmooth point on a scan line.

    t is the kink's coordinate along the line, location = base + t *
    direction, in the coordinates of the oracle that was scanned: for the
    kinks of run_attack, path coordinates v in d_1 dimensions (the full
    weight vector is v followed by N - d_1 ones).

    jump_magnitude is the slope jump |f'(t+) - f'(t-)| of the two side
    models at t, and curvature_jump their curvature jump, the signal of a
    flat (C^1) kink, whose slope does not jump.  t is where the models
    cross, or for a flat kink where their slopes meet: good to float
    noise on exact pieces.

    gradient_jump is the Richardson jump J = 2 J(s/2) - J(s) of the loss
    gradient across the kink, over every coordinate of the line, and
    jump_agreement is |cos(J(s), J(s/2))| (see _gradient_jumps).
    rejection is why that measurement rejects the kink ('jump-gate' or
    'off-wall'), and gradient_jump is then None.  All three are None
    exactly for a flat kink, which gets no jump batch.
    """

    t: float
    location: tuple[float, ...]
    line: tuple[tuple[float, ...], tuple[float, ...]]  # (base, direction)
    jump_magnitude: float
    curvature_jump: float
    gradient_jump: tuple[float, ...] | None = None
    jump_agreement: float | None = None
    rejection: str | None = None


def _jump_pairs(oracle: LossOracle, points: np.ndarray, unit: np.ndarray):
    """(J(s), J(s/2)) at each of the (K, N) points, from one batch of 8 rows per coordinate each.

    The centers are point + r*unit at r = s, -s, s/2, -s/2, unit the unit
    line direction and s = JUMP_OFFSET.  J(r) is the central-difference
    gradient (step JUMP_STEP along each coordinate axis) at point + r*unit
    minus the one at point - r*unit.
    """
    k, n = points.shape
    h = JUMP_STEP
    s = JUMP_OFFSET
    centers = (points[:, None, :] + np.array([s, -s, s / 2, -s / 2])[:, None] * unit)[:, :, None, :]
    steps = h * np.eye(n)
    rows = np.empty((k, 4, 2, n, n))
    np.add(centers, steps, out=rows[:, :, 0])
    np.subtract(centers, steps, out=rows[:, :, 1])
    ys = oracle.many(rows.reshape(-1, n)).reshape(k, 4, 2, n)
    grads = (ys[:, :, 0] - ys[:, :, 1]) / (2.0 * h)  # (K, 4, N): at +s, -s, +s/2, -s/2
    return grads[:, 0] - grads[:, 1], grads[:, 2] - grads[:, 3]


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


def _gradient_jumps(oracle: LossOracle, points: np.ndarray, direction: np.ndarray, slope_jumps):
    """(J, agreement, None) across the wall at each point, or (None, agreement, rejection).

    One batch of 8 rows per coordinate of the line and point measures every
    J.  A jump whose agreement is below JUMP_GATE is 'jump-gate'.  On the
    wall, J . d (d the line's unit direction) is the models' slope jump
    over |d|: a ratio off by OFF_WALL_RATIO or more is 'off-wall'.
    """
    norm = math.sqrt(float(np.dot(direction, direction)))
    unit = direction / norm
    verdicts = []
    for jump_s, jump_half, slope_jump in zip(*_jump_pairs(oracle, points, unit), slope_jumps):
        jump, agreement = _richardson(jump_s, jump_half)
        if agreement < JUMP_GATE:
            verdicts.append((None, agreement, "jump-gate"))
        elif not 1.0 / OFF_WALL_RATIO < abs(float(np.dot(jump, unit))) * norm / slope_jump < OFF_WALL_RATIO:
            verdicts.append((None, agreement, "off-wall"))
        else:
            verdicts.append((jump, agreement, None))
    return verdicts


def _window_errors(ts: np.ndarray, ys: np.ndarray, degree: int) -> np.ndarray:
    """Each window of degree + 2 points' error at its last point of the interpolant through the rest.

    The top divided difference times the node product, over the window's
    largest |y|, as float noise is relative (0 where all are 0).
    """
    d = ys
    for k in range(1, degree + 2):
        d = (d[1:] - d[:-1]) / (ts[k:] - ts[:-k])
    last = ts[degree + 1 :]
    size = np.abs(ys[: len(last)])
    for j in range(degree + 1):
        d = d * (last - ts[j : j + len(last)])
        size = np.maximum(size, np.abs(ys[j + 1 : j + 1 + len(last)]))
    return np.abs(d) / np.where(size > 0.0, size, 1.0)


def _horner(coeffs: np.ndarray, x: np.ndarray):
    """(p(x), p'(x), p''(x)) of each row's ascending coeffs (K, m) at x (K,)."""
    p = d1 = d2 = 0.0  # d2 accumulates p''(x) / 2
    for c in coeffs.T[::-1]:
        d2 = d2 * x + d1
        d1 = d1 * x + p
        p = p * x + c
    return p, d1, 2.0 * d2


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of each row's ascending coeffs (K, m), NaN-padded to (K, m - 1).

    Up to a quadratic in closed form, stable as the leading coefficient
    vanishes (a double root comes twice); past it np.roots row by row.
    """
    m = coeffs.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 2:
            return -coeffs[:, :1] / coeffs[:, 1:]
        if m == 3:
            c0, c1, c2 = coeffs.T
            q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
            return np.array([c0 / q, q / c2]).T
    out = np.full((len(coeffs), m - 1), np.nan)
    for row, c in zip(out, coeffs):
        roots = np.roots(c[::-1])
        real = roots.real[roots.imag == 0.0]
        row[: len(real)] = real
    return out


def _one_root(roots: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(mask, root): rows with exactly one root in [lo, hi], and that root."""
    inside = (roots >= lo[:, None]) & (roots <= hi[:, None])
    return inside.sum(axis=1) == 1, np.where(inside, roots, 0.0).sum(axis=1)


def _scan(oracle: LossOracle, base, direction, t0: float, t1: float, grid: int, p: int) -> list:
    """Settled kinks of one line as [t, slope jump, curvature jump, slope floor, curvature floor]."""
    h = (t1 - t0) / (grid - 1)
    ts = t0 + h * np.arange(-(p + 1), grid + p + 1)
    ys = oracle.many(base + ts[:, None] * direction)
    errors = _window_errors(ts, ys, p)
    tol = EXACT_TOL
    if NOISE_FACTOR * errors[errors > 0.0].min(initial=np.inf) > EXACT_TOL:
        # no window is float64-exact: a noisy oracle, judged against its own floor (a heuristic)
        tol = max(tol, NOISE_FACTOR * float(np.sort(errors)[len(errors) // 4]))
    powers = np.arange(p + 1)
    kinks, failed, last_dirty = [], set(), math.inf
    for _ in range(ROUNDS):
        dirty = np.zeros(len(errors) + 2, dtype=bool)
        dirty[1:-1] = errors > tol
        count = int(np.count_nonzero(dirty))
        if count > 2 * last_dirty + 2 * (p + 1):
            break  # noise: a parted cluster adds p + 1 per kink
        last_dirty = count
        tl = ts.tolist()
        singles, cells = [], set()
        # each run of dirty windows [start, end) holds its kinks in [t_lo, t_hi], lo = start + p, hi = end
        for start, end in np.flatnonzero(dirty[1:] != dirty[:-1]).reshape(-1, 2).tolist():
            lo, hi = start + p, end
            # the models' last and first points, never an on-grid kink's own
            e, s = (lo, hi) if hi > lo else (max(hi - 1, 0), min(lo + 1, len(tl) - 1))
            if tl[s] < t0 or tl[e] > t1 or any(tl[e] <= kink[0] <= tl[s] for kink in kinks):
                continue
            if 0 < start and end < len(errors) and hi - lo in (0, 1) and (tl[e], tl[s]) not in failed:
                singles.append((e, s))
            else:
                cells.update(range(e, s))

        checks = []
        if singles:
            e1, s1 = np.array(singles).T
            k = len(singles)
            idx = np.concatenate([e1[:, None] - p + powers, s1[:, None] + powers])
            mid = 0.5 * (ts[e1] + ts[s1])
            width = 0.5 * (ts[s1 + p] - ts[e1 - p])
            mid2, width2 = np.concatenate([mid, mid]), np.concatenate([width, width])
            x = (ts[idx] - mid2[:, None]) / width2[:, None]
            models = np.linalg.solve(x[:, :, None] ** powers, ys[idx][:, :, None])[:, :, 0]
            diff = models[:k] - models[k:]
            x_lo, x_hi = (ts[e1] - mid) / width, (ts[s1] - mid) / width
            crossing, x_cross = _one_root(_real_roots(diff), x_lo, x_hi)
            turning, x_turn = _one_root(_real_roots(diff[:, 1:] * powers[1:]), x_lo, x_hi)
            x_at = np.where(crossing, x_cross, x_turn)
            value, slope, curv = _horner(models, np.concatenate([x_at, x_at]))
            size = np.abs(ys[idx]).max(axis=1)
            size = np.maximum(size[:k], size[k:])  # the kink's loss scale, as a window's
            flat = ~crossing & turning & (np.abs(value[:k] - value[k:]) <= tol * size)
            jump = np.abs(slope[:k] - slope[k:]) / width
            floor = SPURIOUS_TOL * (1.0 + size) * (2 * p + 1) / (2.0 * width)
            found = np.array([mid + x_at * width, jump, np.abs(curv[:k] - curv[k:]) / width**2,
                              floor, floor * (2 * p + 1) / (2.0 * width)]).T
            kinks += found[flat].tolist()
            for (e, s), settles in zip(singles, (crossing | flat).tolist()):
                if not settles:
                    cells.update(range(e, s))
            sel = np.flatnonzero(crossing)
            # the pair sits where the models part by 4 tolerances: only the kink's pieces pass
            gap = np.maximum(0.45 * REFINE_TOL, 4.0 * tol * size[sel] / np.maximum(jump[sel], 1e-300))
            gap = np.minimum(gap, 0.5 * (ts[s1] - ts[e1])[sel])
            checks = np.concatenate([found[sel, 0] - gap, found[sel, 0] + gap]).tolist()
            pick = np.concatenate([sel, k + sel])  # the left model at each left point, the right at each right

        new = [t for c in sorted(cells) for a, b in [(tl[c], tl[c + 1])] if b - a >= MIN_CELL and b > t0
               and a < t1 for t in (a + 0.25 * (b - a), a + 0.5 * (b - a), a + 0.75 * (b - a)) if a < t < b]
        if not new and not checks:
            break
        values = oracle.many(base + np.array(new + checks)[:, None] * direction)
        if checks:
            fit = _horner(models[pick], (np.array(checks) - mid2[pick]) / width2[pick])[0]
            good = (np.abs(values[len(new):] - fit) <= tol * size[pick % k]).reshape(2, -1).all(axis=0)
            kinks += found[sel[good]].tolist()
            failed.update((tl[singles[j][0]], tl[singles[j][1]]) for j in sel[~good].tolist())
        if new:
            order = np.argsort(np.concatenate([ts, new]))
            ts = np.concatenate([ts, new])[order]
            ys = np.concatenate([ys, values[: len(new)]])[order]
            errors = _window_errors(ts, ys, p)
    return kinks


def detect_kinks_on_line(oracle, base, direction, t_range: tuple[float, float], grid: int,
                         degree: int) -> list[KinkPoint]:
    """Scan a line for the kinks of a loss piecewise polynomial of degree p = degree.

    p is 2 on run_attack's path lines and the warm-up, 2 per weight layer
    on a general line.  The grid, plus p + 1 spacings past each end of
    t_range, is one oracle batch.  A window of p + 2 consecutive points is
    clean when its last value is within the tolerance of the degree-p
    interpolant through the others: EXACT_TOL of the loss, or for a noisy
    oracle NOISE_FACTOR times the first grid's lower-quartile window error.
    A run of dirty windows between clean ones brackets its kinks.  A run
    of at most one cell gets exact side models through the p + 1 nearest
    points of each clean window, and its kink is the one root of their
    difference there, settled when a 2-query check at t -+ g finds the
    left model on the left and the right one on the right; g is
    0.45 * REFINE_TOL, or where the models part by 4 tolerances if that is
    farther, so that a crossing off the wall fails.  With no single root
    but one of the difference's derivative, where the models agree, the
    kink is flat (C^1) and sits there, unchecked.  Every other run and
    failed check splits its cells in 4; a round's new points and checks
    are one batch.  The scan stops when nothing is split, after ROUNDS
    rounds, or when the dirty windows more than double (noise), and never
    splits a cell below MIN_CELL.  A kink whose slope and curvature jumps
    sit below their noise floors is dropped.  The line's kinks whose slope
    jumps get their gradient jumps (_gradient_jumps) in one batch, 8N rows
    each.  QueryBudgetExceeded ends the scan.
    """
    oracle = _as_oracle(oracle)
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0:
        raise ValueError(f"bad t_range {t_range}")
    _check_integer("grid", grid, 2)
    _check_integer("degree", degree, 1)
    rows = sorted(row for row in _scan(oracle, base, direction, t0, t1, grid, degree)
                  if t0 <= row[0] <= t1 and (row[1] > row[3] or row[2] > row[4]))
    measured = [row for row in rows if row[1] > row[3]]
    points = base + np.array([row[0] for row in measured]).reshape(-1, 1) * direction
    verdicts = iter(_gradient_jumps(oracle, points, direction, [row[1] for row in measured]))
    out = []
    for t, jump, jump2, slope_floor, _ in rows:
        J = agreement = rejection = None
        if jump > slope_floor:
            J, agreement, rejection = next(verdicts)
        out.append(KinkPoint(
            t=t,
            location=tuple((base + t * direction).tolist()),
            line=(tuple(base.tolist()), tuple(direction.tolist())),
            jump_magnitude=jump,
            curvature_jump=jump2,
            gradient_jump=None if J is None else tuple(J.tolist()),
            jump_agreement=agreement,
            rejection=rejection,
        ))
    return out


# No pipeline calls this; it stays while bench/tracing.py wraps it by name.
def refine_kink(oracle, base, direction, bracket: tuple[float, float], degree: int) -> KinkPoint:
    """The (first) kink detect_kinks_on_line finds in bracket at degree + 1 points.

    SpuriousKinkError when the bracket holds none.
    """
    kinks = detect_kinks_on_line(oracle, base, direction, bracket, degree + 1, degree)
    if not kinks:
        raise SpuriousKinkError(f"no kink in bracket {bracket}")
    return kinks[0]


# No pipeline calls this; it stays while bench/tracing.py wraps it by name.  Its rescans pay for a
# gradient jump batch per first-order kink, which it never reads.
def harvest_sheet_points(
    oracle,
    kink: KinkPoint,
    n_points: int,
    radius: float,
    degree: int,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Seed point plus n_points refined sheet points, all within 2*radius.

    Each point comes from perturbing the line base by a random offset of
    norm at most radius, rescanning a short window around the seed t at
    degree and taking the nearest kink.  A lost or drifted kink is retried with a
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
                degree,
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
            "noise_factor": NOISE_FACTOR,
            "noise_factor_note": "artifact heuristic: for a noisy oracle, a scan window is clean "
            "within noise_factor times the lower-quartile window error, not derived from the model",
        }

    def kink_csv(self) -> str:
        lines = ["line_id,t,jump,refined"]  # every kink is refined; the column keeps the format
        for line_id, t, jump in self.kinks:
            lines.append(f"{line_id},{t!r},{jump!r},true")
        return "\n".join(lines) + "\n"


def _match_directions(
    directions: list[RecoveredDirection], true_inputs
) -> list[DirectionMatch]:
    """Each direction's best sample by |cosine|, from one cosine matrix; a zero input never matches."""
    A = np.array(true_inputs, dtype=float, ndmin=2)
    norms = np.linalg.norm(A, axis=1)
    if not directions or not norms.any():
        return []
    V = np.array([rec.direction for rec in directions])
    dots = np.dot(V, A.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(norms > 0.0, np.abs(dots) / (np.linalg.norm(V, axis=1)[:, None] * norms), -1.0)
    best = np.argmax(cos, axis=1)
    rows = np.arange(len(V))
    scale = dots[rows, best] / np.einsum("ij,ij->i", V, V)
    return [DirectionMatch(di, int(si), float(c), float(sc))
            for di, si, c, sc in zip(rows.tolist(), best, cos[rows, best], scale)]


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
    """Black-box reconstruction: path scan, jump, gate, read.

    Scans cfg.n_lines random lines of the path loss v -> E(v, 1, ..., 1)
    in the first d_1 weights (_path_oracle; see the module docstring),
    whose only walls are v . x_p = 0, one per sample, at degree 2 and
    GRID points, and takes every kink of each.  Each path row is one
    query against cfg.budget.  Each gradient jump that passes JUMP_GATE
    on its wall (see _gradient_jumps) is read as an input direction:
    entries at or below SUPPORT_TOL times the largest are dropped, and
    the rest is normalised, so a one-hot input comes back too.  A flat
    kink has no jump and is rejected as 'flat'.  The kinks in
    report.kinks are (line, t, slope jump) on the path lines, and every
    direction's node is 1.
    Knows only the oracle, the weight count N and the input arity d_1.
    Recovered directions are unit vectors in input space, deduplicated at
    |cos| >= 1 - DEDUP_TOL; when true_inputs is supplied (scoring only,
    never consulted by the search) each direction is matched to its best
    sample by |cosine| together with the implied scalar multiple.
    Raises ValueError, before any query, unless N >= 1 and 1 <= d_1 <= N
    and every row of true_inputs, when given, has d_1 entries.
    """
    _check_integer("n_weights", n_weights, 1)
    _check_integer("input_dim", input_dim, 1, n_weights)
    if true_inputs is not None and any(len(x) != input_dim for x in true_inputs):
        raise ValueError(f"every row of true_inputs must have input_dim = {input_dim} entries")
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
            # the path loss is piecewise quadratic in t
            kinks = detect_kinks_on_line(counted, base, direction, T_RANGE, GRID, 2)
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

    kept = np.empty((len(raw_candidates), input_dim))  # kept directions, unit vectors
    for cand in raw_candidates:
        k = len(report.directions)
        kept[k] = cand.direction
        dup = np.flatnonzero(np.abs(np.dot(kept[:k], kept[k])) >= 1.0 - DEDUP_TOL)
        if not dup.size:
            report.directions.append(cand)
        elif cand.residual < report.directions[dup[0]].residual:
            report.directions[dup[0]] = cand
            kept[dup[0]] = kept[k]

    if true_inputs is not None:
        report.matches = _match_directions(report.directions, true_inputs)
    report.oracle_queries = counted.query_count
    return report
