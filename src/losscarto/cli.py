"""Command line front end.

Subcommands:

    losscarto gen      write a random problem instance as JSON
    losscarto verify   run algebraic invariant checks on an instance
    losscarto attack   reconstruct input directions from the loss oracle
    losscarto surface  slice the loss along a line and enumerate sheets

Exit codes: 0 success, 1 validation failure (bad instance contents, a
failed verify check, or a NaN or infinite loss during an attack), 2 I/O
failure (missing or unreadable files), 3 attack finished without
recovering any direction, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import numpy as np

from .attack import MATCH_THRESHOLD, AttackConfig, run_attack
from .errors import (
    BoundaryError,
    InstanceError,
    LosscartoError,
    SamplingError,
)
from .instances import (
    Instance,
    atomic_write_text,
    gen_instance,
    load_instance,
    make_oracle,
    read_json,
    save_instance,
)
from .network import ActivationSet, loss
from .polyalg import layerwise_degree
from .surface import (
    _random_dyadic_weights,
    enumerate_singular_sheets,
    region_loss_polynomial,
    region_of,
    sheet_report,
)
from .virtual import factorize, virtual_polynomial

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise UsageError(message)


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--widths expects comma-separated integers, got {text!r}")
    if len(widths) < 2 or any(d < 1 for d in widths):
        raise UsageError("--widths needs at least two positive integers")
    return widths


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{what} expects comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{what} needs finite numbers, got {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="losscarto", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random instance")
    p_gen.add_argument("--widths", required=True, help="layer widths, e.g. 3,4,2")
    p_gen.add_argument("--samples", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument(
        "--materialize-weights",
        action="store_true",
        help="store the seed-determined weights explicitly",
    )

    p_ver = sub.add_parser("verify", help="run invariant checks")
    p_ver.add_argument("--instance", required=True)
    p_ver.add_argument("--checks", default=",".join(_CHECKS),
                       help="comma list of checks, or 'all'")
    p_ver.add_argument("--probes", type=int, default=25)
    p_ver.add_argument("--seed", type=int, default=0)

    p_att = sub.add_parser("attack", help="reconstruct inputs from the oracle")
    p_att.add_argument("--instance", required=True)
    p_att.add_argument("--config", help="JSON attack configuration")
    p_att.add_argument("--budget", type=int, help="override oracle query budget")
    p_att.add_argument("--seed", type=int, help="override attack seed")
    p_att.add_argument("--out", help="write the report as JSON")
    p_att.add_argument("--kinks", help="write detected kinks as CSV")

    p_sur = sub.add_parser("surface", help="loss slice and sheet enumeration")
    p_sur.add_argument("--instance", required=True)
    p_sur.add_argument("--out", required=True, help="prefix: writes <out>.csv and <out>.sheets.json")
    p_sur.add_argument("--grid", type=int, default=401)
    p_sur.add_argument("--t-range", default="-4:4")
    p_sur.add_argument("--direction", help="comma floats of length N (default: seeded random)")
    p_sur.add_argument("--probes", type=int, default=64)
    p_sur.add_argument("--seed", type=int, default=0)

    return parser


# verify checks; each returns (passed, total)


def _random_flags(shape, rng) -> ActivationSet:
    # one draw per hidden node, layer-major then node order as hidden_nodes()
    rows = tuple(tuple(rng.random() < 0.5 for _ in range(d)) for d in shape.widths[1:-1])
    return ActivationSet(shape.widths, rows)


def _check_homogeneity(inst: Instance, probes: int, rng) -> tuple[int, int]:
    shape = inst.shape
    ok = 0
    for trial in range(probes):
        act = _random_flags(shape, rng)
        k = rng.randrange(2, shape.depth + 1)
        i = rng.randrange(1, shape.width(k) + 1)
        x = inst.samples[trial % len(inst.samples)].input
        u = virtual_polynomial(shape, x, act, (i, k))
        if u.is_zero():
            ok += 1
            continue
        deg = layerwise_degree(u, shape)
        expected = tuple(1 if m < k else 0 for m in range(1, shape.depth))
        if deg == expected:
            ok += 1
    return ok, probes


def _check_piecewise(inst: Instance, probes: int, rng) -> tuple[int, int]:
    shape = inst.shape
    ok = 0
    done = 0
    attempts = 0
    while done < probes and attempts < 20 * probes:
        attempts += 1
        w = _random_dyadic_weights(shape, rng)
        try:
            region = region_of(shape, inst.samples, w)
        except BoundaryError:
            continue
        done += 1
        piece = region_loss_polynomial(shape, inst.samples, region)
        if piece.evaluate(w) == loss(shape, w, inst.samples):
            ok += 1
    return ok, done


def _check_factorization(inst: Instance, probes: int, rng) -> tuple[int, int]:
    shape = inst.shape
    ok = 0
    done = 0
    attempts = 0
    while done < probes and attempts < 20 * probes:
        attempts += 1
        act = _random_flags(shape, rng)
        # force a bottleneck at a random hidden layer when one exists
        if shape.depth > 2:
            cut = rng.randrange(2, shape.depth)
            keep = rng.randrange(1, shape.width(cut) + 1)
            rows = list(act.flags)
            rows[cut - 2] = tuple(i == keep for i in range(1, shape.width(cut) + 1))
            act = ActivationSet(shape.widths, tuple(rows))
        node = (rng.randrange(1, shape.width(shape.depth) + 1), shape.depth)
        x = inst.samples[done % len(inst.samples)].input
        u = virtual_polynomial(shape, x, act, node)
        if u.is_zero():
            continue
        done += 1
        fac = factorize(shape, x, act, node)
        if fac.product() == u:
            ok += 1
    return ok, done


_CHECKS = {
    "homogeneity": _check_homogeneity,
    "piecewise": _check_piecewise,
    "factorization": _check_factorization,
}


def _cmd_gen(ns) -> int:
    widths = _parse_widths(ns.widths)
    if ns.samples < 1:
        raise UsageError("--samples must be positive")
    inst = gen_instance(widths, ns.samples, ns.seed, materialize_weights=ns.materialize_weights)
    save_instance(inst, ns.out)
    print(f"wrote instance widths={list(widths)} samples={ns.samples} seed={ns.seed} -> {ns.out}")
    return 0


def _cmd_verify(ns) -> int:
    names = tuple(part.strip() for part in ns.checks.split(",") if part.strip())
    if not names:
        raise UsageError("--checks names no check")
    if names == ("all",):
        names = tuple(_CHECKS)
    for name in names:
        if name not in _CHECKS:
            raise UsageError(f"unknown check {name!r}; available: all, {', '.join(_CHECKS)}")
    if ns.probes < 1:
        raise UsageError("--probes must be positive")
    inst = load_instance(ns.instance)
    rng = random.Random(ns.seed)
    failed = False
    for name in names:
        ok, total = _CHECKS[name](inst, ns.probes, rng)
        status = "ok" if ok == total and total > 0 else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"check {name}: {ok}/{total} {status}")
    return 1 if failed else 0


def _cmd_attack(ns) -> int:
    raw = {}
    if ns.config is not None:
        try:
            raw = read_json(ns.config)
        except InstanceError as exc:
            raise UsageError(f"attack config {exc}")
        if not isinstance(raw, dict):
            raise UsageError(f"{ns.config}: attack config must be a JSON object")
    overrides = {key: val for key, val in (("budget", ns.budget), ("seed", ns.seed)) if val is not None}
    try:
        cfg = AttackConfig.from_json({**raw, **overrides})
    except ValueError as exc:
        raise UsageError(str(exc))

    inst = load_instance(ns.instance)
    oracle = make_oracle(inst)
    true_inputs = [tuple(float(v) for v in s.input) for s in inst.samples]
    report = run_attack(
        oracle,
        inst.shape.weight_count,
        inst.shape.widths[0],
        cfg,
        true_inputs=true_inputs,
    )
    exhausted = "; budget exhausted" if report.budget_exhausted else ""
    print(f"oracle queries: {report.oracle_queries} / {cfg.budget}{exhausted}; "
          f"lines scanned: {report.lines_scanned} ({report.stop})")
    reasons = ", ".join(f"{why} {n}" for why, n in report.rejections.items() if n)
    print(f"kinks found: {len(report.kinks)}; rejected: {report.rejected_sheets}"
          + (f" ({reasons})" if reasons else ""))
    for idx, rec in enumerate(report.directions):
        line = f"direction {idx}: node~{rec.node} residual={rec.residual:.2e} [{rec.provenance}]"
        match = next((m for m in report.matches if m.direction_index == idx), None)
        if match is not None:
            line += f" matches sample {match.sample_index} |cos|={match.cosine:.6f} scale={match.scale:.4g}"
        print(line)
    if ns.out:
        atomic_write_text(ns.out, json.dumps(report.to_json(), indent=2) + "\n")
    if ns.kinks:
        atomic_write_text(ns.kinks, report.kink_csv())
    recovered = any(m.cosine >= MATCH_THRESHOLD for m in report.matches)
    if not report.directions:
        print("no input directions recovered")
        return 3
    if report.matches and not recovered:
        print(f"no direction matched a sample at |cos| >= {MATCH_THRESHOLD}")
        return 3
    return 0


def _cmd_surface(ns) -> int:
    if ns.grid < 2:
        raise UsageError("--grid must be at least 2")
    if ns.probes < 1:
        raise UsageError("--probes must be positive")
    if ns.seed < 0:
        raise UsageError("--seed must be non-negative")
    try:
        lo_s, hi_s = ns.t_range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise UsageError(f"--t-range expects LO:HI, got {ns.t_range!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--t-range needs finite ends, got {ns.t_range!r}")
    if not hi > lo:
        raise UsageError("--t-range needs LO < HI")
    direction = None if ns.direction is None else np.array(_parse_floats(ns.direction, "--direction"))

    inst = load_instance(ns.instance)
    base = np.array([float(w) for w in inst.resolved_weights()])
    if direction is not None:
        if direction.shape != base.shape:
            raise InstanceError(
                f"--direction length {len(direction)} != N = {len(base)}"
            )
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            raise InstanceError("--direction must be nonzero")
        direction = direction / norm
    else:
        rng = np.random.default_rng(ns.seed)
        direction = rng.normal(size=len(base))
        direction /= np.linalg.norm(direction)

    ts = np.linspace(lo, hi, ns.grid)
    values = make_oracle(inst)(base + ts[:, None] * direction)  # one batched forward pass
    rows = ["t,loss", *(f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, values))]
    atomic_write_text(f"{ns.out}.csv", "\n".join(rows) + "\n")

    sheets = enumerate_singular_sheets(inst.shape, inst.samples, ns.probes, seed=ns.seed)
    payload = {"widths": list(inst.shape.widths), "sheets": sheet_report(sheets)}
    atomic_write_text(f"{ns.out}.sheets.json", json.dumps(payload, indent=2) + "\n")
    singular = sum(1 for s in sheets if s.singular)
    print(f"wrote {ns.out}.csv ({ns.grid} points) and {ns.out}.sheets.json ({len(sheets)} sheets, {singular} singular)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        handler = {
            "gen": _cmd_gen,
            "verify": _cmd_verify,
            "attack": _cmd_attack,
            "surface": _cmd_surface,
        }[ns.command]
        return handler(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (InstanceError, SamplingError) as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 1
    except LosscartoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
