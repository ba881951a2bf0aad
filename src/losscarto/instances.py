"""Problem instances: a shape, training samples, optional weights, a seed.

The JSON format is the interchange used by the CLI:

    {"widths": [3, 4, 2],
     "weights": [0.1, ...],          # optional, length N
     "samples": [{"input": [...], "output": [...]}, ...],
     "seed": 7}

Floats are ingested through Fraction(float), i.e. exactly as the dyadic
rational the file parser produced, so a round-tripped instance evaluates
identically.  When weights are omitted they are drawn uniformly from
[-1, 1) by the stdlib Mersenne twister seeded with `seed`, which is
reproducible byte-for-byte across platforms.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InstanceError
from .network import NetworkShape, TrainingSample, _check_integer, as_fraction, make_loss_fn


@dataclass(frozen=True)
class Instance:
    shape: NetworkShape
    samples: tuple[TrainingSample, ...]
    weights: tuple[Fraction, ...] | None
    seed: int | None

    def resolved_weights(self) -> tuple[Fraction, ...]:
        """Stored weights, or the seed-determined draw when absent."""
        if self.weights is not None:
            return self.weights
        if self.seed is None:
            raise InstanceError("instance has neither weights nor a seed")
        return _draw_weights(self.shape, self.seed)

    def to_json(self) -> dict:
        data: dict = {"widths": list(self.shape.widths)}
        if self.weights is not None:
            data["weights"] = [float(w) for w in self.weights]
        data["samples"] = [
            {"input": [float(v) for v in s.input], "output": [float(v) for v in s.output]}
            for s in self.samples
        ]
        if self.seed is not None:
            data["seed"] = self.seed
        return data


def _draw_weights(shape: NetworkShape, seed: int) -> tuple[Fraction, ...]:
    rng = random.Random(seed)
    return tuple(as_fraction(rng.uniform(-1.0, 1.0)) for _ in range(shape.weight_count))


def gen_instance(
    widths: Sequence[int],
    n_samples: int,
    seed: int,
    *,
    materialize_weights: bool = False,
) -> Instance:
    """Random instance: inputs/outputs uniform in [-1, 1), seeded weights."""
    shape = NetworkShape(widths)
    _check_integer("n_samples", n_samples, 1, error=InstanceError)
    rng = random.Random(seed)
    samples = []
    for _ in range(n_samples):
        x = tuple(as_fraction(rng.uniform(-1.0, 1.0)) for _ in range(shape.widths[0]))
        b = tuple(as_fraction(rng.uniform(-1.0, 1.0)) for _ in range(shape.widths[-1]))
        samples.append(TrainingSample(x, b))
    weights = _draw_weights(shape, seed) if materialize_weights else None
    return Instance(shape=shape, samples=tuple(samples), weights=weights, seed=seed)


def make_oracle(instance: Instance) -> Callable[[np.ndarray], float]:
    """Vectorized float loss for the instance (weights are not consulted)."""
    return make_loss_fn(instance.shape, instance.samples)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InstanceError(msg)


def _as_number_list(val, what: str) -> list[float]:
    _require(isinstance(val, list) and len(val) > 0, f"{what} must be a non-empty list")
    out = []
    for v in val:
        _require(isinstance(v, (int, float)) and not isinstance(v, bool), f"{what} entries must be numbers")
        try:
            out.append(float(v))
        except OverflowError:  # an integer beyond the double range
            raise InstanceError(f"{what} entries must be finite doubles") from None
        _require(math.isfinite(out[-1]), f"{what} entries must be finite doubles")
    return out


def instance_from_json(data: dict) -> Instance:
    _require(isinstance(data, dict), "instance must be a JSON object")
    _require("widths" in data, "missing 'widths'")
    widths = data["widths"]
    _require(
        isinstance(widths, list)
        and len(widths) >= 2
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in widths),
        "'widths' must be a list of >= 2 positive integers",
    )
    shape = NetworkShape(widths)

    _require("samples" in data, "missing 'samples'")
    raw_samples = data["samples"]
    _require(isinstance(raw_samples, list) and len(raw_samples) > 0, "'samples' must be a non-empty list")
    samples = []
    for idx, row in enumerate(raw_samples):
        _require(isinstance(row, dict) and set(row) >= {"input", "output"}, f"sample {idx} needs 'input' and 'output'")
        x = _as_number_list(row["input"], f"sample {idx} input")
        b = _as_number_list(row["output"], f"sample {idx} output")
        _require(len(x) == shape.widths[0], f"sample {idx} input arity {len(x)} != d_1 = {shape.widths[0]}")
        _require(len(b) == shape.widths[-1], f"sample {idx} output arity {len(b)} != d_L = {shape.widths[-1]}")
        samples.append(TrainingSample(tuple(map(as_fraction, x)), tuple(map(as_fraction, b))))

    weights = None
    if data.get("weights") is not None:
        vals = _as_number_list(data["weights"], "weights")
        _require(len(vals) == shape.weight_count, f"weights length {len(vals)} != N = {shape.weight_count}")
        weights = tuple(as_fraction(v) for v in vals)

    seed = data.get("seed")
    if seed is not None:
        _require(isinstance(seed, int) and not isinstance(seed, bool), "'seed' must be an integer")
    _require(weights is not None or seed is not None, "instance needs 'weights' or 'seed'")
    return Instance(shape=shape, samples=tuple(samples), weights=weights, seed=seed)


def read_json(path: str | os.PathLike):
    """The JSON value in a UTF-8 file; InstanceError when it is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InstanceError(f"{path}: not valid UTF-8 JSON ({exc})") from exc


def load_instance(path: str | os.PathLike) -> Instance:
    return instance_from_json(read_json(path))


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".losscarto-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_instance(instance: Instance, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(instance.to_json(), indent=2) + "\n")
