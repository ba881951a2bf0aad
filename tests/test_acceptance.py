"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import random
import time
from fractions import Fraction

import numpy as np

from losscarto import (
    ActivationSet,
    AttackConfig,
    BoundaryError,
    LossOracle,
    NetworkShape,
    Poly,
    TrainingSample,
    detect_kinks_on_line,
    enumerate_singular_sheets,
    enumerate_virtual_polynomials,
    factorize,
    gen_instance,
    layerwise_degree,
    loss,
    make_loss_fn,
    make_oracle,
    recover_architecture,
    region_loss_polynomial,
    region_of,
    run_attack,
    sample_independent_sheets,
    virtual_polynomial,
    wall_between,
)

V = Poly.variable
F = Fraction


def _report(n: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {n} failed: {name} {detail}"


def test_criterion_1_warmup_kinks():
    # h(a) is the [2,1,1] network's loss along w = (-a, 1, 1): the line (0, 1, 1) + t (-1, 0, 0)
    pairs = [(1.0, 2.0), (3.0, 1.0)]
    samples = [TrainingSample((x, y), (0.0,)) for x, y in pairs]
    oracle = LossOracle(make_loss_fn(NetworkShape([2, 1, 1]), samples), budget=1000)
    t0 = time.time()
    # the loss is piecewise quadratic along the line: degree 2, on a 33-point grid
    kinks = detect_kinks_on_line(oracle, [0.0, 1.0, 1.0], [-1.0, 0.0, 0.0], (-4.0, 4.0), 33, 2)
    elapsed = time.time() - t0
    ts = sorted(k.t for k in kinks)
    ok = (
        len(ts) == 2
        and abs(ts[0] - 1.0 / 3.0) <= 1e-6
        and abs(ts[1] - 2.0) <= 1e-6
        and oracle.query_count < 1000
        and elapsed < 1.0
    )
    _report(
        1,
        "1-D warm-up locates both hinge ratios",
        ok,
        f"kinks={ts}, queries={oracle.query_count}, {elapsed*1000:.0f}ms",
    )


def test_criterion_2_four_virtual_polynomials():
    s = NetworkShape([2, 2, 1])
    x = (F(1), F(2))
    via1 = (V(0) + 2 * V(1)) * V(4)
    via2 = (V(2) + 2 * V(3)) * V(5)
    expected = {via1 + via2, via1, via2, Poly.zero()}
    got = {u for _, u in enumerate_virtual_polynomials(s, x, (1, 3))}
    ok = got == expected and len(got) == 4
    _report(2, "[2,2,1] output node has exactly 4 virtual polynomials", ok, f"got {len(got)}")


def test_criterion_3_bottleneck_factorization():
    s = NetworkShape([2, 2, 2, 2, 1])
    x = (F(1), F(2))
    act = ActivationSet.from_mapping(s, {(2, 3): False})
    u = virtual_polynomial(s, x, act, (1, 5))
    fac = factorize(s, x, act, (1, 5))
    g1 = V(0) * V(4) + 2 * V(1) * V(4) + V(2) * V(5) + 2 * V(3) * V(5)
    g2 = V(8) * V(12) + V(10) * V(13)
    ok = (
        len(fac) == 2
        and fac.product() == u
        and fac[0].normalized() == g1.normalized()
        and fac[1].normalized() == g2.normalized()
    )
    _report(3, "depth-5 bottleneck factorization matches the two-factor split", ok,
            f"{len(fac)} factors, product {'==' if fac.product() == u else '!='} u")


def test_criterion_4_homogeneity_sweep():
    rng = random.Random(2024)
    t0 = time.time()
    checked = 0
    ok = True
    bound = (3, 3, 3, 2)
    for _ in range(200):
        depth = rng.choice((3, 4))
        widths = [rng.randint(1, bound[i]) for i in range(depth)]
        s = NetworkShape(widths)
        flags = ActivationSet(
            s.widths,
            tuple(tuple(rng.random() < 0.6 for _ in range(d)) for d in s.widths[1:-1]),
        )
        k = rng.randrange(2, s.depth + 1)
        node = (rng.randrange(1, s.width(k) + 1), k)
        x = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(s.width(1)))
        u = virtual_polynomial(s, x, flags, node)
        if u.is_zero():
            continue
        checked += 1
        expected = tuple(1 if m < k else 0 for m in range(1, s.depth))
        if layerwise_degree(u, s) != expected:
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0 and checked > 100
    _report(4, "layer-wise homogeneity over 200 random instances", ok,
            f"{checked} nonzero cases, {elapsed:.1f}s")


def test_criterion_5_exact_piecewise_identity():
    rng = random.Random(99)
    cases = [(NetworkShape([2, 2, 1]), 600), (NetworkShape([2, 2, 2, 1]), 400)]
    total = 0
    ok = True
    for s, quota in cases:
        samples = [
            TrainingSample(
                tuple(F(rng.randint(-8, 8), 4) for _ in range(s.width(1))),
                tuple(F(rng.randint(-8, 8), 4) for _ in range(s.width(s.depth))),
            )
            for _ in range(2)
        ]
        piece_cache = {}
        done = 0
        while done < quota:
            w = tuple(F(rng.randint(-(2**12), 2**12), 2**8) for _ in range(s.weight_count))
            try:
                r = region_of(s, samples, w)
            except BoundaryError:
                continue
            done += 1
            total += 1
            if r.key not in piece_cache:
                piece_cache[r.key] = region_loss_polynomial(s, samples, r)
            if piece_cache[r.key].evaluate(w) != loss(s, w, samples):
                ok = False
                break
        if not ok:
            break
    _report(5, "region polynomial equals the loss at 1000 exact rational points", ok,
            f"{total} points")


def test_criterion_6_singularity_classification():
    s = NetworkShape([2, 2, 1])
    samples = [TrainingSample((F(1), F(2)), (F(3),))]
    fn = make_loss_fn(s, samples)
    rng = random.Random(5)

    def flipped_key(r, node):
        # key of the region across node's wall: the one sample's flag of node toggled
        (flags,) = r.key
        i, k = node
        rows = [list(row) for row in flags]
        rows[k - 2][i - 1] = not rows[k - 2][i - 1]
        return (tuple(map(tuple, rows)),)

    # witnesses for all four regions
    witnesses = {}
    while len(witnesses) < 4:
        w = tuple(F(rng.randint(-(2**10), 2**10), 2**6) for _ in range(s.weight_count))
        try:
            r = region_of(s, samples, w)
        except BoundaryError:
            continue
        witnesses.setdefault(r.key, r)

    ok = True
    detail = []
    seen_pairs = set()
    for r in witnesses.values():
        for node in ((1, 2), (2, 2)):
            r2 = witnesses[flipped_key(r, node)]
            pair = frozenset((r.key, r2.key))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            sheet = wall_between(s, samples, r, r2)
            # independent numeric check: scan the float loss along the
            # straight segment between the two witnesses, quartic in t (two weight layers)
            base = np.array([float(v) for v in r.witness])
            other = np.array([float(v) for v in r2.witness])
            kinks = detect_kinks_on_line(
                LossOracle(fn), base, other - base, (0.0, 1.0), 257, 4
            )
            interior = [k for k in kinks if 0.02 < k.t < 0.98]
            if sheet.singular != bool(interior):
                ok = False
            detail.append(f"{'s' if sheet.singular else 'n'}{'k' if interior else '-'}")

    # non-vacuous smooth case: flipping under a dead downstream layer
    s2 = NetworkShape([2, 2, 2, 1])
    samples2 = [TrainingSample((F(1), F(2)), (F(3),))]
    fn2 = make_loss_fn(s2, samples2)
    dead_pair = None
    while dead_pair is None:
        w = tuple(F(rng.randint(-(2**10), 2**10), 2**6) for _ in range(s2.weight_count))
        try:
            r = region_of(s2, samples2, w)
        except BoundaryError:
            continue
        a = r.activation_sets[0]
        if not any(a.flags[1]) and a.is_active(1, 2):
            across = flipped_key(r, (1, 2))
            w2 = None
            for _ in range(4000):
                cand = list(w)
                for idx in range(s2.layer_slice(1).start, s2.layer_slice(1).stop):
                    cand[idx] = F(rng.randint(-(2**10), 2**10), 2**6)
                try:
                    r2 = region_of(s2, samples2, tuple(cand))
                except BoundaryError:
                    continue
                if r2.key == across:
                    w2 = r2
                    break
            if w2 is not None:
                dead_pair = (r, w2)
    sheet2 = wall_between(s2, samples2, dead_pair[0], dead_pair[1])
    base = np.array([float(v) for v in dead_pair[0].witness])
    other = np.array([float(v) for v in dead_pair[1].witness])
    kinks2 = detect_kinks_on_line(LossOracle(fn2), base, other - base, (0.0, 1.0), 257, 6)  # three weight layers
    interior2 = [k for k in kinks2 if 0.02 < k.t < 0.98]
    smooth_ok = (not sheet2.singular) and not interior2
    ok = ok and smooth_ok
    _report(6, "singular flag matches piece difference and numeric kink scan", ok,
            f"walls={','.join(detail)}, dead-downstream smooth={'yes' if smooth_ok else 'no'}")


def test_criterion_7_sample_independent_sheet():
    s = NetworkShape([2, 2, 2, 2, 1])
    sa = [TrainingSample((F(1), F(2)), (F(1),)), TrainingSample((F(3), F(-1)), (F(2),))]
    sb = [TrainingSample((F(-2), F(5)), (F(-1),)), TrainingSample((F(1), F(1)), (F(3),))]
    common = sample_independent_sheets(s, sa, sb, 200, seed=0)
    target = (V(8) * V(12) + V(10) * V(13)).normalized()
    ok = target in set(common)
    _report(7, "weight-only sheet component appears for disjoint sample sets", ok,
            f"{len(common)} common input-free sheets")


def test_criterion_8_attack_recovers_direction():
    inst = gen_instance([3, 4, 2], 5, seed=7)
    oracle = make_oracle(inst)
    true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
    t0 = time.time()
    report = run_attack(
        oracle, inst.shape.weight_count, 3, AttackConfig(budget=200_000), true_inputs=true_inputs
    )
    elapsed = time.time() - t0
    best = max((m.cosine for m in report.matches), default=0.0)
    ok = best >= 0.999 and report.oracle_queries <= 200_000 and elapsed < 60.0
    _report(8, "black-box attack recovers an input direction on [3,4,2]", ok,
            f"best |cos|={best:.9f}, {report.oracle_queries} queries, {elapsed:.1f}s, "
            f"{len(report.directions)} directions")


def test_criterion_9_architecture_recovery():
    results = {}
    s1 = NetworkShape([2, 2, 1])
    sheets1 = enumerate_singular_sheets(s1, [TrainingSample((F(1), F(2)), (F(1),))], 64, seed=0)
    results["[2,2,1]"] = recover_architecture([sh.poly for sh in sheets1])
    s2 = NetworkShape([3, 3, 2, 1])
    samples2 = [
        TrainingSample((F(1), F(2), F(3)), (F(1),)),
        TrainingSample((F(2), F(-1), F(1)), (F(0),)),
    ]
    sheets2 = enumerate_singular_sheets(s2, samples2, 200, seed=1)
    results["[3,3,2,1]"] = recover_architecture([sh.poly for sh in sheets2])
    ok = results["[2,2,1]"] == (2, 2, 1) and results["[3,3,2,1]"] == (3, 3, 2, 1)
    _report(9, "architecture recovered exactly from sheet sets", ok, str(results))


def _wall_row_cosine(s, poly, x):
    """|cos| between x and a degree-1 sheet's coefficients on the W_1 row that holds it."""
    coeffs = {key[0][0]: float(c) for key, c in poly.terms}
    for j in range(1, s.width(2) + 1):
        row = [s.index_of(1, i, j) for i in range(1, s.width(1) + 1)]
        if set(coeffs) <= set(row):
            a = np.array([coeffs.get(v, 0.0) for v in row])
            return abs(float(a @ x)) / (np.linalg.norm(a) * np.linalg.norm(x))
    return 0.0  # not on one W_1 row


def test_criterion_10_sample_scale_invariance():
    rng = random.Random(31)
    ok = True
    walls = 0
    for trial in range(20):
        widths = [rng.randint(2, 3), rng.randint(1, 3), 1]
        s = NetworkShape(widths)
        samples = [
            TrainingSample(
                tuple(F(rng.randint(-8, 8), 2) for _ in range(s.width(1))),
                (F(rng.randint(-8, 8), 2),),
            )
            for _ in range(2)
        ]
        if all(v == 0 for v in samples[0].input):
            continue
        doubled = [
            TrainingSample(
                tuple(2 * v for v in samples[0].input),
                tuple(2 * v for v in samples[0].output),
            )
        ] + samples[1:]
        sheets_a = enumerate_singular_sheets(s, samples, 64, seed=trial)
        sheets_b = enumerate_singular_sheets(s, doubled, 64, seed=trial)
        set_a = {(sh.poly, sh.singular) for sh in sheets_a}
        set_b = {(sh.poly, sh.singular) for sh in sheets_b}
        if set_a != set_b:
            ok = False
            break
        # each sample's first-layer walls lie along its input, before and after the doubling
        for sheets, inputs in ((sheets_a, samples), (sheets_b, doubled)):
            for sh in sheets:
                if sh.sample_index is None or sh.poly.total_degree() != 1:
                    continue
                x = np.array([float(v) for v in inputs[sh.sample_index].input])
                walls += 1
                if _wall_row_cosine(s, sh.poly, x) < 1.0 - 1e-12:
                    ok = False
        if not ok:
            break
    _report(10, "doubling a training sample leaves the sheet set invariant", ok and walls > 0,
            f"20 paired instances, {walls} first-layer walls along their inputs")
