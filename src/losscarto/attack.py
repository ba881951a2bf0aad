"""Reconstruction from oracle access to the loss.

The pipeline mirrors how the loss surface is built: training inputs show
up as the coefficient vectors of the linear walls, so the attack scans
lines for kinks, places each where the exact polynomial pieces on either
side meet (no bisection), and solves for each wall from the kinks on it:
enough nonsmooth points on one wall give the sample's input up to scale.

run_attack scans the path loss v -> E(v, r): the first d_1 flat weights
(row 1 of W_1, into node 1 of layer 2) are free and every other weight
is r_j = KAPPA * u_j, u_j ~ U(0.5, 1.5) from the seed.  Every node above
layer 2 then gets a non-negative input and passes it on, so the net
computes A_o * relu(v . x_p) + B_po, A_o > 0, and in v the loss is
piecewise quadratic with one wall v . x_p = 0 per sample and no deep
wall.  Across it the pieces differ by alpha u^2 + beta_p u, u = v . x_p,
with one alpha = sum_o A_o^2 / 2 for all samples.  The small KAPPA keeps
a kink clear of the other samples' offsets at width, the random u_j keep
the beta_p apart, and neither needs a layout past d_1.

On a line with unit direction d, a kink on sample p's wall has the
curvature jump (right minus left) 2 alpha (d . x_p) |d . x_p| and the
slope jump beta_p |d . x_p|.  So each kink at v_k gives two linear
equations on x~ = sqrt(2 alpha) x_p: v_k . x~ = 0 and d . x~ = m_k, m_k
the signed root of the curvature jump.  slope |slope| / curvature =
beta_p |beta_p| / 2 alpha is the same on every line, a fingerprint of the
sample.  run_attack groups kinks by fingerprint, solves each group's
equations with no further query, and splits a group that fits no single
wall (colliding fingerprints) by seeded draws.

Everything here is double precision; exact algebra stays in polyalg.
run_attack is black-box: it sees only the oracle, the parameter count N
and the input arity d_1, never the sample list or the architecture.

The oracle is any callable w -> E(w), wrapped in LossOracle (query
count, budget, no NaN or infinite value).  A batch-capable oracle gets
one (Q, N) array per round of a line's scan, any other one row at a time,
with the same queries and results.  run_attack's path oracle keeps the
oracle's batching, and each path row is one query.

AttackConfig holds what a caller sets: the query budget, the least
number of scan lines and the seed.  Everything else is a fixed
heuristic, a module constant below, read at call time.
"""

from __future__ import annotations

import math
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
from .network import _check_integer
from .polyalg import Poly

GRID = 33  # scan grid points per line; subdivision parts kinks closer than a spacing
T_RANGE = (-4.0, 4.0)  # scan interval along each unit-direction line
ROUNDS = 12  # most subdivision rounds of one scan
MIN_CELL = 1e-7  # narrowest cell a scan splits
EXACT_TOL = 1e-10  # window tolerance relative to the loss, above float64 noise on exact pieces
NOISE_FACTOR = 100.0  # heuristic (so labelled in reports): noisy-oracle window tolerance, in noise floors
REFINE_TOL = 1e-9  # least gap of a crossing's check pair, near float noise on t
SPURIOUS_TOL = 1e-7  # the scan's jump noise floors, relative to the loss scale
KAPPA = 0.2  # heuristic (so labelled in reports): scale of the path's weights past v
FINGERPRINT_TOL = 1e-6  # heuristic (so labelled in reports): relative gap that parts two fingerprints
FIT_TOL = 1e-7  # heuristic (so labelled in reports): a kink's equations fit a wall x within this times |x|
SPLIT_DRAWS = 200  # heuristic (so labelled in reports): seeded draws per wall when a group is split
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
        if budget is not None:
            _check_integer("budget", budget, 0)
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

    t is the kink's coordinate along the line and location = base + t *
    direction, in the scanned oracle's coordinates (for run_attack, the
    d_1 path coordinates v).  t is where the two side models cross, or for
    a flat (C^1) kink where their slopes meet: good to float noise on
    exact pieces.  slope_jump is f'(t+) - f'(t-) and curvature_jump
    f''(t+) - f''(t-), both signed right minus left, and either is 0.0
    when it is within its noise floor (never both).
    """

    t: float
    location: tuple[float, ...]
    line: tuple[tuple[float, ...], tuple[float, ...]]  # (base, direction)
    slope_jump: float
    curvature_jump: float


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
    """Settled kinks of one line as [t, slope jump, curvature jump].

    Both jumps are signed, right minus left, and a jump within its noise
    floor is 0.0.
    """
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
            jump = (slope[k:] - slope[:k]) / width
            jump2 = (curv[k:] - curv[:k]) / width**2
            floor = SPURIOUS_TOL * (1.0 + size) * (2 * p + 1) / (2.0 * width)
            found = np.array([mid + x_at * width, np.where(np.abs(jump) > floor, jump, 0.0),
                              np.where(np.abs(jump2) > floor * (2 * p + 1) / (2.0 * width), jump2, 0.0)]).T
            kinks += found[flat].tolist()
            for (e, s), settles in zip(singles, (crossing | flat).tolist()):
                if not settles:
                    cells.update(range(e, s))
            sel = np.flatnonzero(crossing)
            # the pair sits where the models part by 4 tolerances: only the kink's pieces pass
            gap = np.maximum(0.45 * REFINE_TOL, 4.0 * tol * size[sel] / np.maximum(np.abs(jump[sel]), 1e-300))
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
    splits a cell below MIN_CELL.  Each jump within its noise floor reads
    0.0, and a kink with both at 0.0 is dropped; no query goes past the
    scan.  QueryBudgetExceeded ends the scan.  Raises ValueError, before
    any query, unless base and direction are finite 1-D arrays of one
    length and t_range is a finite interval.
    """
    oracle = _as_oracle(oracle)
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if base.ndim != 1 or base.shape != direction.shape or not np.isfinite([base, direction]).all():
        raise ValueError("base and direction must be finite 1-D arrays of one length")
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not -math.inf < t0 < t1 < math.inf:
        raise ValueError(f"bad t_range {t_range}")
    _check_integer("grid", grid, 2)
    _check_integer("degree", degree, 1)
    line = (tuple(base.tolist()), tuple(direction.tolist()))
    return [KinkPoint(t, tuple((base + t * direction).tolist()), line, jump, jump2)
            for t, jump, jump2 in sorted(_scan(oracle, base, direction, t0, t1, grid, degree))
            if t0 <= t <= t1 and (jump or jump2)]


# No pipeline calls this; it stays while bench/tracing.py wraps it by name.
def refine_kink(oracle, base, direction, bracket: tuple[float, float], degree: int) -> KinkPoint:
    """The (first) kink detect_kinks_on_line finds in bracket at degree + 1 points.

    SpuriousKinkError when the bracket holds none.
    """
    kinks = detect_kinks_on_line(oracle, base, direction, bracket, degree + 1, degree)
    if not kinks:
        raise SpuriousKinkError(f"no kink in bracket {bracket}")
    return kinks[0]


# No pipeline calls this; it stays while bench/tracing.py wraps it by name.
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
    # the widths are read off variable supports, so scale and repeats change nothing
    polys = [p for p in defining_polys if not p.is_zero()]

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


@dataclass(frozen=True)
class AttackConfig:
    """What a run_attack caller sets: query budget, scan lines and seed.

    n_lines is the least number of path lines (random lines in the d_1
    path coordinates), and how many lines in a row may add no wall before
    the scan stops.  The seed draws the path's weights, the lines and the
    split's draws.  Every other setting is a module constant; KAPPA,
    FINGERPRINT_TOL, FIT_TOL and SPLIT_DRAWS are flagged as heuristics in
    reports.
    The 'explained' stop sees only the kinks found so far, so a wall no
    line has crossed is never looked for: two flat walls scanned with
    n_lines=2 stop at one.
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
    # 'triangulated', the only source; residual: the largest misfit of its wall's equations over |x~|
    residual: float
    provenance: str


@dataclass(frozen=True)
class DirectionMatch:
    direction_index: int
    sample_index: int
    cosine: float
    scale: float


REJECTION_REASONS = ("faint", "unmatched")


@dataclass
class ReconstructionReport:
    directions: list[RecoveredDirection] = field(default_factory=list)
    matches: list[DirectionMatch] = field(default_factory=list)
    architecture: tuple[int, ...] | str = "not attempted"
    oracle_queries: int = 0
    kinks: list[tuple[int, KinkPoint]] = field(default_factory=list)  # (line id, kink), in scan order
    # rejected kinks by reason: faint (no curvature jump, so no equation) or unmatched (on no wall)
    rejections: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))
    budget: int | None = None
    budget_exhausted: bool = False
    lines_scanned: int = 0
    stop: str = ""  # why the scan stopped: 'explained', 'stalled' or 'budget' (see run_attack)

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
            "lines_scanned": self.lines_scanned,
            "stop": self.stop,
            "budget": self.budget,
            "budget_exhausted": self.budget_exhausted,
        } | {key: value for name, value, note in (
            ("kappa", KAPPA, "every path weight past v is kappa times a seeded U(0.5, 1.5)"),
            ("fingerprint_tol", FINGERPRINT_TOL, "kinks whose fingerprints part by more are on two walls"),
            ("fit_tol", FIT_TOL, "a kink is on a wall x when its equations fit within fit_tol * |x|"),
            ("split_draws", SPLIT_DRAWS, "seeded draws per wall when a fingerprint group is split"),
            ("noise_factor", NOISE_FACTOR, "a noisy oracle's scan windows are clean within this many floors"),
        ) for key, value in ((name, value), (f"{name}_note", f"artifact heuristic: {note}; not from the model"))
        }

    def kink_csv(self) -> str:
        # jump is the slope jump's size; every kink is refined, and the column keeps the format
        rows = [f"{line_id},{kink.t!r},{abs(kink.slope_jump)!r},true" for line_id, kink in self.kinks]
        return "\n".join(["line_id,t,jump,refined", *rows]) + "\n"


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


def _path_oracle(oracle: Callable[[np.ndarray], float], n_weights: int, input_dim: int, seed: int):
    """The d_1-variable loss v -> E(v, r), batch-capable when the oracle is; a row is one query.

    v is the first d_1 flat weights (row 1 of W_1) and every other weight
    is r_j = KAPPA * u_j, u_j ~ U(0.5, 1.5) drawn by default_rng(seed).
    """
    rest = KAPPA * np.random.default_rng(seed).uniform(0.5, 1.5, n_weights - input_dim)

    def path(v):
        v = np.asarray(v, dtype=float)
        return oracle(np.concatenate([v, np.broadcast_to(rest, v.shape[:-1] + rest.shape)], axis=-1))

    path.batched = getattr(oracle, "batched", False)
    return path


def _fit(P: np.ndarray, D: np.ndarray, M: np.ndarray):
    """(x, misfit): the least-squares P x = 0, D x = M, misfit its largest row error over |x|.

    None unless the system has rank d_1 (singular values below FIT_TOL of
    the largest count as 0) and misfit is within FIT_TOL.
    """
    A = np.concatenate([P, D])
    b = np.concatenate([np.zeros(len(M)), M])
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=FIT_TOL)
    misfit = float(np.abs(np.dot(A, x) - b).max() / np.linalg.norm(x)) if rank == len(x) else math.inf
    return (x, misfit) if misfit <= FIT_TOL else None


def _split(P, D, M, lines, seed: int) -> list:
    """Walls (x, misfit) peeled off a group whose kinks fit no single wall.

    Each round solves SPLIT_DRAWS seeded draws of ceil((d_1 + 1) / 2)
    kinks from distinct lines and keeps, of the draws whose own kinks fit,
    the one with the most inliers (both equations within FIT_TOL |x|).
    Their fit is a wall, and they are peeled off, until too few lines are
    left or a round finds no wall.
    """
    size = (P.shape[1] + 2) // 2
    rng = np.random.default_rng(seed)
    left, walls = np.arange(len(M)), []
    while len(set(lines[left].tolist())) >= size:
        draws = []
        for _ in range(SPLIT_DRAWS):  # one kink each from size distinct lines
            order = rng.permutation(left)
            draws.append(rng.choice(order[np.unique(lines[order], return_index=True)[1]], size, replace=False))
        draws = np.array(draws)
        # each draw's least-squares solution of P x = 0, D x = M
        pinv = np.linalg.pinv(np.concatenate([P[draws], D[draws]], axis=1), rcond=FIT_TOL)
        X = np.einsum("qij,qj->qi", pinv[:, :, size:], M[draws])
        bound = FIT_TOL * np.linalg.norm(X, axis=1)[:, None]
        fits = (np.abs(np.dot(X, P.T)) <= bound) & (np.abs(np.dot(X, D.T) - M) <= bound)
        own = np.take_along_axis(fits, draws, axis=1).all(axis=1)
        best = np.argmax(np.where(own, fits[:, left].sum(axis=1), -1))
        inliers = np.intersect1d(np.flatnonzero(fits[best]), left)
        wall = _fit(P[inliers], D[inliers], M[inliers]) if own.any() else None
        if wall is None:
            break
        walls.append(wall)
        left = np.setdiff1d(left, inliers)
    return walls


def _walls(P, D, M, F, lines, seed: int) -> list:
    """Walls (x, misfit) of the kinks: each fingerprint group's fit, or its split.

    Sorted fingerprints F (NaN for a faint kink, which is left out) group
    where neighbours differ by at most FINGERPRINT_TOL of the larger.  A
    group of more than d_1 / 2 kinks that fits (_fit) is one wall, any
    other is split (_split).  Both are deterministic in the group's rows,
    lines and seed, so a group an earlier call solved is solved again to
    the same walls; a run usually solves once, at line n_lines.
    """
    order = np.argsort(F, kind="stable")[: np.count_nonzero(~np.isnan(F))]  # NaNs sort last
    f = F[order]
    gaps = np.abs(np.diff(f)) > FINGERPRINT_TOL * np.maximum(np.abs(f[1:]), np.abs(f[:-1]))
    walls = []
    for group in np.split(order, np.flatnonzero(gaps) + 1):
        wall = _fit(P[group], D[group], M[group]) if 2 * len(group) > P.shape[1] else None
        walls += [wall] if wall else _split(P[group], D[group], M[group], lines[group], seed)
    return walls


def _on_walls(P: np.ndarray, walls: list) -> np.ndarray:
    """Which unit kink locations P lie on a wall: |P_k . x| within FIT_TOL |x| for some wall x."""
    # by location alone: a faint kink has no m_k equation, and asking for one would never explain it
    X = np.array([x for x, _ in walls]).reshape(-1, P.shape[1])
    return (np.abs(np.dot(P, X.T)) <= FIT_TOL * np.linalg.norm(X, axis=1)).any(axis=1)


def run_attack(
    oracle: Callable[[np.ndarray], float],
    n_weights: int,
    input_dim: int,
    config: AttackConfig | None = None,
    *,
    true_inputs: Sequence[Sequence[float]] | None = None,
) -> ReconstructionReport:
    """Black-box reconstruction: path scan, then a query-free solve for each wall.

    Scans random lines of the path loss (_path_oracle and the module
    docstring) at degree 2 and GRID points; each path row is one query
    against cfg.budget.  A kink whose curvature does not jump gives no
    equation and is rejected as 'faint'.  From line cfg.n_lines on, the
    kinks are solved for walls after every line (_walls), and the scan
    stops once every kink lies on a wall (|v_k . x| within FIT_TOL |v_k|
    |x|), 'explained'; once cfg.n_lines lines in a row add no wall,
    'stalled'; or when the budget runs out, 'budget'.  A kink on no wall
    is rejected as 'unmatched'.  Each wall's x, without its entries at or
    below SUPPORT_TOL times the largest, is read as a unit input direction
    (a one-hot input comes back exactly) at node 1, deduplicated at |cos|
    >= 1 - DEDUP_TOL.  report.kinks holds (line id, KinkPoint).  Knows
    only the oracle, N and d_1; true_inputs, when given, only scores the
    directions: each is matched to its best sample by |cosine|, with the
    implied scalar multiple.  Raises ValueError, before any query, unless
    N >= 1 and 1 <= d_1 <= N and every row of true_inputs has d_1 entries.
    """
    _check_integer("n_weights", n_weights, 1)
    _check_integer("input_dim", input_dim, 1, n_weights)
    if true_inputs is not None and any(len(x) != input_dim for x in true_inputs):
        raise ValueError(f"every row of true_inputs must have input_dim = {input_dim} entries")
    cfg = config or AttackConfig()
    counted = LossOracle(_path_oracle(oracle, n_weights, input_dim, cfg.seed), budget=cfg.budget)
    report = ReconstructionReport(budget=cfg.budget)

    def columns():  # (P, D, M, F, lines) of report.kinks: unit locations, directions, m_k, fingerprints, ids
        lines, kinks = zip(*report.kinks) if report.kinks else ((), ())
        rows = np.reshape([k.location + k.line[1] + (k.slope_jump, k.curvature_jump) for k in kinks],
                          (-1, 2 * input_dim + 2))
        P, D, S, C = rows[:, :input_dim], rows[:, input_dim:-2], rows[:, -2], rows[:, -1]
        F = S * np.abs(S) / np.where(C != 0.0, np.abs(C), np.nan)  # NaN for a faint kink
        return (P / np.linalg.norm(P, axis=1, keepdims=True), D, np.copysign(np.sqrt(np.abs(C)), C), F,
                np.array(lines, int))

    walls, most, last_new = [], 0, cfg.n_lines
    try:
        while True:
            line_id = report.lines_scanned
            # the line's child of SeedSequence(seed).spawn(...), built when it is reached
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(line_id,)))
            base = rng.normal(size=input_dim)
            direction = rng.normal(size=input_dim)
            direction /= np.linalg.norm(direction)
            kinks = detect_kinks_on_line(counted, base, direction, T_RANGE, GRID, 2)  # piecewise quadratic in t
            report.kinks += [(line_id, kink) for kink in kinks]
            report.lines_scanned += 1
            if report.lines_scanned < cfg.n_lines:
                continue
            cols = columns()
            walls = _walls(*cols, cfg.seed)
            if len(walls) > most:
                most, last_new = len(walls), report.lines_scanned
            explained = _on_walls(cols[0], walls).all()
            if explained or report.lines_scanned - last_new >= cfg.n_lines:
                report.stop = "explained" if explained else "stalled"
                break
    except QueryBudgetExceeded:
        report.budget_exhausted, report.stop = True, "budget"
        cols = columns()
        walls = _walls(*cols, cfg.seed)

    faint = np.isnan(cols[3])
    report.rejections["faint"] = int(faint.sum())
    report.rejections["unmatched"] = int((~faint & ~_on_walls(cols[0], walls)).sum())
    for x, misfit in sorted(walls, key=lambda wall: wall[1]):  # of duplicates, the best fit comes first
        direction = _support_direction(x)
        if all(abs(float(np.dot(direction, kept.direction))) < 1.0 - DEDUP_TOL for kept in report.directions):
            report.directions.append(RecoveredDirection(direction, 1, misfit, "triangulated"))

    if true_inputs is not None:
        report.matches = _match_directions(report.directions, true_inputs)
    report.oracle_queries = counted.query_count
    return report
