"""The benchmark's workloads: inputs made from the seed, timed calls, checks.

Every workload is closed-loop: one caller, one call at a time, in one
process.  A workload is a list of cases, each made for several instance
seeds (``instance_seeds``); one round calls each case once per instance.
A case builds its inputs in set-up (``prepare``); ``run`` is the timed
call, and ``check`` scores its result untimed, without any stored
reference where possible.  ``check`` returns an ``Outcome`` whose ``key``
must repeat exactly whenever the same case runs again, traced or not.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

BUDGET = 200_000
MATCH_COSINE = 0.999
REFERENCES = Path(__file__).with_name("references.json")
# Instances of each case in an untraced run.  Averaging over several
# instances keeps the cost of one instance out of the timing metrics.
INSTANCES = 3


def instance_seeds(seed: int, count: int = INSTANCES) -> list[int]:
    """Seeds of a run's instances.  The run's own seed comes first, so that
    seed 7 gives the instances of the ROADMAP baseline table."""
    return [seed + 100 * i for i in range(count)]


@dataclass
class Outcome:
    key: tuple  # everything that must repeat exactly
    problems: list[str] = field(default_factory=list)
    queries: int = 0
    recovered: int = 0
    samples: int = 0
    rejected: int = 0


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _label(widths, samples) -> str:
    return "[" + ",".join(map(str, widths)) + f"]x{samples}"


@dataclass(frozen=True)
class AttackCase:
    """run_attack with the default AttackConfig and a 200k budget."""

    widths: tuple[int, ...]
    samples: int

    @property
    def name(self) -> str:
        return _label(self.widths, self.samples)

    def prepare(self, lc, seed: int) -> dict:
        inst = lc.instances.gen_instance(list(self.widths), self.samples, seed)
        return {
            "oracle": lc.instances.make_oracle(inst),
            "n_weights": inst.shape.weight_count,
            "true_inputs": [tuple(float(v) for v in s.input) for s in inst.samples],
            "seed": seed,
        }

    def run(self, lc, prep: dict, wrap_oracle=None):
        oracle = prep["oracle"] if wrap_oracle is None else wrap_oracle(prep["oracle"])
        return lc.attack.run_attack(
            oracle,
            prep["n_weights"],
            self.widths[0],
            lc.attack.AttackConfig(budget=BUDGET),
            true_inputs=prep["true_inputs"],
        )

    def check(self, lc, prep: dict, report) -> Outcome:
        recovered = len({m.sample_index for m in report.matches if m.cosine >= MATCH_COSINE})
        problems = []
        # The oracle wrapper in run_attack raises before passing the budget,
        # so this holds unless that enforcement is lost.
        if report.oracle_queries > BUDGET:
            problems.append(f"{report.oracle_queries} queries exceed the budget of {BUDGET}")
        for d in report.directions:
            v = [float(x) for x in d.direction]
            if not all(math.isfinite(x) for x in v):
                problems.append("non-finite direction")
            elif abs(math.sqrt(sum(x * x for x in v)) - 1.0) > 1e-9:
                problems.append("direction is not unit norm")
        want = reference(self.name, prep["seed"])
        if want is not None and recovered < want:
            problems.append(f"{self.name} seed {prep['seed']}: recovered {recovered} samples, "
                            f"fewer than the recorded {want}")
        key = (report.oracle_queries, recovered, len(report.directions), report.rejected_sheets)
        return Outcome(key, problems, report.oracle_queries, recovered, self.samples,
                       report.rejected_sheets)


@dataclass(frozen=True)
class SheetsCase:
    """enumerate_singular_sheets then recover_architecture on the sheet set."""

    widths: tuple[int, ...]
    samples: int
    probes: int

    @property
    def name(self) -> str:
        return f"{_label(self.widths, self.samples)}@{self.probes}"

    def prepare(self, lc, seed: int) -> dict:
        return {"inst": lc.instances.gen_instance(list(self.widths), self.samples, seed),
                "seed": seed}

    def run(self, lc, prep: dict, wrap_oracle=None):
        inst = prep["inst"]
        sheets = lc.surface.enumerate_singular_sheets(inst.shape, inst.samples, self.probes, seed=0)
        return sheets, lc.attack.recover_architecture([s.poly for s in sheets])

    def check(self, lc, prep: dict, result) -> Outcome:
        sheets, widths = result
        inst = prep["inst"]
        problems = []
        if tuple(widths) != tuple(inst.shape.widths):
            problems.append(f"recovered widths {widths} != {inst.shape.widths}")
        d = digest(lc.surface.sheet_report(sheets))
        problems += check_reference(self.name, prep["seed"], d)
        return Outcome((d, tuple(widths)), problems)


@dataclass(frozen=True)
class IndependentCase:
    """sample_independent_sheets on two generated sample sets of one shape.

    Its result holds no first-layer weight, so recover_architecture has
    nothing to read; the check is that every polynomial is input-free.
    """

    widths: tuple[int, ...]
    samples: int
    probes: int

    @property
    def name(self) -> str:
        return f"{_label(self.widths, self.samples)}-pair@{self.probes}"

    def prepare(self, lc, seed: int) -> dict:
        a = lc.instances.gen_instance(list(self.widths), self.samples, seed)
        b = lc.instances.gen_instance(list(self.widths), self.samples, seed + 1000)
        return {"a": a, "b": b, "seed": seed}

    def run(self, lc, prep: dict, wrap_oracle=None):
        return lc.surface.sample_independent_sheets(
            prep["a"].shape, prep["a"].samples, prep["b"].samples, self.probes, seed=0
        )

    def check(self, lc, prep: dict, polys) -> Outcome:
        shape = prep["a"].shape
        problems = []
        if any(shape.weight_layer_of(v) == 1 for p in polys for v in p.variables()):
            problems.append("a sample-independent sheet contains a first-layer weight")
        d = digest([p.to_json() for p in polys])
        problems += check_reference(self.name, prep["seed"], d)
        return Outcome((d, len(polys)), problems)


@functools.cache
def load_references() -> dict:
    """Recorded outputs: case name -> seed -> sheet digest or recovered count.

    make_references.py writes them for the seeds the benchmark ships.
    """
    if not REFERENCES.exists():
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def reference(case: str, seed: int):
    """The recorded output of a case at a seed, or None for a seed not shipped."""
    return load_references().get(case, {}).get(str(seed))


def check_reference(case: str, seed: int, got: str) -> list[str]:
    """Compare a sheet digest with the recorded one, for the seeds that have one."""
    want = reference(case, seed)
    if want is None or want == got:
        return []
    return [f"{case} seed {seed}: sheet digest {got[:12]} != recorded {want[:12]}"]


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "attack" or "sheets": which end-to-end figures apply
    why: str
    cases: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "attack-shallow",
            "attack",
            "depth-3 linear walls, under budget: harvest queries and the oracle dominate",
            (AttackCase((3, 4, 2), 5), AttackCase((4, 6, 3), 6)),
        ),
        Workload(
            "attack-deep",
            "attack",
            "depth-4 curved walls; [5,8,8,2] spends the whole budget, so savings show as recall",
            (AttackCase((3, 4, 4, 2), 5), AttackCase((5, 8, 8, 2), 8)),
        ),
        Workload(
            "sheets-shallow",
            "sheets",
            "exact cartography where virtual polynomials and factorize dominate",
            (SheetsCase((3, 4, 2), 5, 64), IndependentCase((2, 2, 2, 2, 1), 2, 200)),
        ),
    )
}


def warm_up(lc, family: str) -> None:
    """One small untimed call through every stage the workload's timed calls use.

    Its instance is fixed, so that set-up does the same work for every seed.
    """
    inst = lc.instances.gen_instance([2, 2, 1], 2, 0)
    if family == "attack":
        lc.attack.run_attack(
            lc.instances.make_oracle(inst), inst.shape.weight_count, 2,
            lc.attack.AttackConfig(budget=BUDGET, n_lines=2),
        )
    else:
        sheets = lc.surface.enumerate_singular_sheets(inst.shape, inst.samples, 8, seed=0)
        lc.attack.recover_architecture([s.poly for s in sheets])
