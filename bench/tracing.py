"""Per-layer tracing of losscarto from outside the package.

The tracer replaces module-level names of losscarto with timing wrappers
while a traced call runs, and puts the originals back afterwards, so the
package itself carries no tracing code.  Python resolves a module-level
call through the calling module's globals, so a name is patched in every
module that binds it (``virtual_polynomial`` lives in both ``virtual`` and
``surface``).

Every wrapped call opens a frame.  Frames of functions are recorded as
spans (name, start, end, parent span); the two hottest boundaries, the
oracle and the ``Poly`` ring operators, are counted and timed but not
recorded one by one.  A frame's self time is its duration minus the time
of the frames it encloses.  An oracle query is charged to the stage of
the innermost open frame: a ``detect_kinks_on_line`` frame with no
``harvest_sheet_points`` ancestor is a scan, one inside a harvest belongs
to the harvest, and ``refine_kink`` is its own stage wherever it runs.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, label, recorded as a span)
FUNCTIONS = [
    ("attack", "run_attack", "attack.run", True),
    ("attack", "detect_kinks_on_line", None, True),  # label: attack.scan or attack.rescan
    ("attack", "refine_kink", "attack.refine", True),
    ("attack", "harvest_sheet_points", "attack.harvest", True),
    ("attack", "fit_hyperplane", "attack.fit", True),
    ("attack", "aligned_input_direction", "attack.classify", True),
    ("attack", "recover_architecture", "attack.recover_architecture", True),
    ("surface", "enumerate_singular_sheets", "surface.enumerate", True),
    ("surface", "sample_independent_sheets", "surface.independent", True),
    ("surface", "region_of", "surface.region_of", True),
    ("surface", "_sample_piece", "surface.piece", True),
    ("surface", "virtual_polynomial", "virtual.vp", True),
    ("virtual", "virtual_polynomial", "virtual.vp", True),
    ("surface", "factorize", "virtual.factorize", True),
    ("instances", "gen_instance", "instances.gen", True),
]
POLY_OPERATORS = [
    ("__add__", "polyalg.add"),
    ("__radd__", "polyalg.add"),
    ("__mul__", "polyalg.mul"),
    ("__rmul__", "polyalg.mul"),
]
QUERY_STAGES = ("scan", "harvest", "refine")
# Query stage of a frame, by label; other labels are their own stage.
STAGE_OF = {
    "attack.scan": "scan",
    "attack.rescan": "harvest",
    "attack.harvest": "harvest",
    "attack.refine": "refine",
}

# Per-layer metrics of one round: name -> (unit, better).
LAYER_METRICS = {
    "network.oracle.calls": ("count", "lower"),
    "network.oracle.s": ("s", "lower"),
    "attack.scan.queries": ("count", "lower"),
    "attack.scan.s.incl": ("s", "lower"),
    "attack.kinks": ("count", "higher"),
    "attack.refine.calls": ("count", "lower"),
    "attack.refine.queries": ("count", "lower"),
    "attack.refine.s": ("s", "lower"),
    "attack.refine.yield": ("ratio", "higher"),
    "attack.harvest.calls": ("count", "lower"),
    "attack.harvest.queries": ("count", "lower"),
    "attack.harvest.queries.incl": ("count", "lower"),
    "attack.harvest.s.incl": ("s", "lower"),
    "attack.harvest.yield": ("ratio", "higher"),
    "attack.fit.calls": ("count", "lower"),
    "attack.fit.s": ("s", "lower"),
    "attack.fit.degenerate": ("count", "lower"),
    "attack.classify.input": ("count", "higher"),
    "attack.classify.weight": ("count", "lower"),
    "attack.classify.nonlinear": ("count", "lower"),
    "attack.rejected": ("count", "lower"),
    "attack.queries": ("count", "lower"),
    "attack.recall": ("ratio", "higher"),
    "polyalg.mul.calls": ("count", "lower"),
    "polyalg.mul.s": ("s", "lower"),
    "polyalg.add.calls": ("count", "lower"),
    "polyalg.add.s": ("s", "lower"),
    "virtual.vp.calls": ("count", "lower"),
    "virtual.vp.s": ("s", "lower"),
    "virtual.vp.s.incl": ("s", "lower"),
    "virtual.vp.distinct_ratio": ("ratio", "lower"),
    "virtual.factorize.calls": ("count", "lower"),
    "virtual.factorize.s": ("s", "lower"),
    "virtual.factorize.s.incl": ("s", "lower"),
    "surface.piece.calls": ("count", "lower"),
    "surface.piece.s": ("s", "lower"),
    "surface.piece.s.incl": ("s", "lower"),
    "surface.region_of.calls": ("count", "lower"),
    "surface.region_of.s": ("s", "lower"),
    "surface.regions": ("count", "higher"),
    "surface.enumerate.s": ("s", "lower"),
    "surface.sheets": ("count", "higher"),
    "surface.singular_sheets": ("count", "higher"),
    "instances.gen.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """Spans and per-layer counters for calls made while installed."""

    def __init__(self, lc):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [query stage, child seconds, span id]
        self._next_id = 0
        self._harvest_depth = 0
        self._patches = []
        for mod, attr, label, record in FUNCTIONS:
            owner = getattr(lc, mod)
            self._patches.append((owner, attr, self._wrap(getattr(owner, attr), label, record)))
        for attr, label in POLY_OPERATORS:
            fn = lc.polyalg.Poly.__dict__[attr]
            self._patches.append((lc.polyalg.Poly, attr, self._wrap(fn, label, False)))
        self.reset()

    def reset(self) -> None:
        """Start a new round of counters; recorded spans are kept."""
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.queries: Counter = Counter()
        self.counts: Counter = Counter()
        self._vp_keys: set = set()
        self._round_regions: set = set()

    @contextmanager
    def installed(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._patches]
        try:
            for owner, attr, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def oracle(self, fn):
        """Count and time each oracle query, charged to the innermost stage."""
        stack = self._stack
        perf = time.perf_counter

        def traced_oracle(w):
            stage = stack[-1][0] if stack else "none"
            self.queries[stage] += 1
            if self._harvest_depth:
                self.counts["harvest_queries_incl"] += 1
            start = perf()
            try:
                return fn(w)
            finally:
                dt = perf() - start
                self.calls["network.oracle"] += 1
                self.self_s["network.oracle"] += dt
                if stack:
                    stack[-1][1] += dt

        return traced_oracle

    def _wrap(self, fn, label, record):
        name = f"{fn.__module__}.{fn.__qualname__}"
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            lab = label
            if lab is None:  # detect_kinks_on_line: a scan unless a harvest is open
                lab = "attack.rescan" if self._harvest_depth else "attack.scan"
            stage = STAGE_OF.get(lab, lab)
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent is not None else None
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:  # spans opened inside an unrecorded frame hang on its parent
                span_id = parent_id
            frame = [stage, 0.0, span_id]
            if lab == "attack.harvest":
                self._harvest_depth += 1
            stack.append(frame)
            error = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf()
                stack.pop()
                if lab == "attack.harvest":
                    self._harvest_depth -= 1
                dt = end - start
                self.calls[lab] += 1
                self.incl[lab] += dt
                self.self_s[lab] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if error is not None:
                    self.failures[(lab, error)] += 1
                if record:
                    self.spans.append((span_id, parent_id, name, stage, start, end, error))
            self._observe(lab, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, label, args, kwargs, result) -> None:
        if label == "attack.scan":
            self.counts["kinks"] += len(result)
        elif label == "attack.classify":
            self.counts[f"classify.{result.kind}"] += 1
        elif label == "virtual.vp":
            shape, x, activation_set, node = (
                args[pos] if len(args) > pos else kwargs[name]
                for pos, name in enumerate(("shape", "x", "activation_set", "node"))
            )
            below = activation_set.flags[: node[1] - 2]
            self._vp_keys.add((shape.widths, tuple(x), below, tuple(node)))
        elif label == "surface.region_of":
            self._round_regions.add(result.key)
        elif label == "surface.enumerate":
            self.counts["regions"] += len(self._round_regions)
            self._round_regions = set()
            self.counts["sheets"] += len(result)
            self.counts["singular_sheets"] += sum(1 for s in result if s.singular)

    def round_metrics(self, *, queries: int, recovered: int, samples: int, rejected: int) -> dict:
        """Per-layer metrics of the round since the last reset.

        ``instances.gen.s`` and ``trace.overhead`` come from set-up and from
        the comparison with untraced calls, so the caller adds them.
        """
        c, s, incl, f = self.calls, self.self_s, self.incl, self.failures

        def ratio(num, den):
            return num / den if den else 0.0

        refine_ok = c["attack.refine"] - sum(n for (lab, _), n in f.items() if lab == "attack.refine")
        harvest_ok = c["attack.harvest"] - sum(n for (lab, _), n in f.items() if lab == "attack.harvest")
        return {
            "network.oracle.calls": c["network.oracle"],
            "network.oracle.s": s["network.oracle"],
            "attack.scan.queries": self.queries["scan"],
            "attack.scan.s.incl": incl["attack.scan"],
            "attack.kinks": self.counts["kinks"],
            "attack.refine.calls": c["attack.refine"],
            "attack.refine.queries": self.queries["refine"],
            "attack.refine.s": s["attack.refine"],
            "attack.refine.yield": ratio(refine_ok, c["attack.refine"]),
            "attack.harvest.calls": c["attack.harvest"],
            "attack.harvest.queries": self.queries["harvest"],
            "attack.harvest.queries.incl": self.counts["harvest_queries_incl"],
            "attack.harvest.s.incl": incl["attack.harvest"],
            "attack.harvest.yield": ratio(harvest_ok, c["attack.harvest"]),
            "attack.fit.calls": c["attack.fit"],
            "attack.fit.s": s["attack.fit"],
            "attack.fit.degenerate": f[("attack.fit", "DegeneracyError")],
            "attack.classify.input": self.counts["classify.input-direction"],
            "attack.classify.weight": self.counts["classify.weight-parameter"],
            "attack.classify.nonlinear": self.counts["classify.nonlinear"],
            "attack.rejected": rejected,
            "attack.queries": queries,
            "attack.recall": ratio(recovered, samples),
            "polyalg.mul.calls": c["polyalg.mul"],
            "polyalg.mul.s": s["polyalg.mul"],
            "polyalg.add.calls": c["polyalg.add"],
            "polyalg.add.s": s["polyalg.add"],
            "virtual.vp.calls": c["virtual.vp"],
            "virtual.vp.s": s["virtual.vp"],
            "virtual.vp.s.incl": incl["virtual.vp"],
            "virtual.vp.distinct_ratio": ratio(len(self._vp_keys), c["virtual.vp"]),
            "virtual.factorize.calls": c["virtual.factorize"],
            "virtual.factorize.s": s["virtual.factorize"],
            "virtual.factorize.s.incl": incl["virtual.factorize"],
            "surface.piece.calls": c["surface.piece"],
            "surface.piece.s": s["surface.piece"],
            "surface.piece.s.incl": incl["surface.piece"],
            "surface.region_of.calls": c["surface.region_of"],
            "surface.region_of.s": s["surface.region_of"],
            "surface.regions": self.counts["regions"],
            "surface.enumerate.s": s["surface.enumerate"],
            "surface.sheets": self.counts["sheets"],
            "surface.singular_sheets": self.counts["singular_sheets"],
        }

    def staged_queries(self) -> tuple[int, int]:
        """(queries charged to scan, harvest and refine; queries charged elsewhere)."""
        staged = sum(self.queries[st] for st in QUERY_STAGES)
        return staged, sum(self.queries.values()) - staged

    def write_spans(self, path: Path) -> None:
        """One JSON object per recorded span; called once the timing is over."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "stage", "start", "end", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
