"""Record the references that run.py checks, for the seeds it ships.

    python3 bench/make_references.py --seeds 0-20

References are recorded for every instance seed of the given run seeds.
For the sheets cases the reference is a digest that pins the exact output
of enumerate_singular_sheets and sample_independent_sheets, so a faster
implementation has to reproduce the sheet sets byte for byte.  For the
attack cases it is the number of samples recovered; a call that recovers
fewer fails its check, so a change that misreads walls cannot pass.
Record them only from a commit whose outputs are trusted; every other
check of a case must pass first.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import import_losscarto
from steadiness import seeds_of
from workloads import REFERENCES, WORKLOADS, AttackCase, instance_seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-20")
    args = ap.parse_args(argv)
    lc = import_losscarto()
    refs: dict = {}
    for workload in WORKLOADS.values():
        for case in workload.cases:
            for seed in sorted({s for run in seeds_of(args.seeds) for s in instance_seeds(run)}):
                prep = case.prepare(lc, seed)
                out = case.check(lc, prep, case.run(lc, prep))
                own = [p for p in out.problems if "recorded" not in p]
                if own:
                    print(f"{case.name} seed {seed}: {own}", file=sys.stderr)
                    return 1
                value = out.recovered if isinstance(case, AttackCase) else out.key[0]
                refs.setdefault(case.name, {})[str(seed)] = value
                print(case.name, seed, value, flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
