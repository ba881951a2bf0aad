import json
from fractions import Fraction

import numpy as np
import pytest

from losscarto import (
    Instance,
    InstanceError,
    NetworkShape,
    TrainingSample,
    instance_from_json,
    gen_instance,
    load_instance,
    loss,
    make_oracle,
    save_instance,
)


def warmup_instance(pairs):
    """[2,1,1] instance whose loss on the line base + t*dir is the 1-D warm-up.

    Each data pair (x, y) becomes the sample ((x, y), (0,)); at
    w = (-a, 1, 1) the network computes a*x - y through the hidden ReLU,
    so the loss is sum_i (1/2) max(0, y_i - a x_i)^2 at a = t.  Returns
    (instance, base, direction) with base = (0, 1, 1), direction = (-1, 0, 0).
    """
    samples = tuple(TrainingSample((Fraction(x), Fraction(y)), (Fraction(0),)) for x, y in pairs)
    inst = Instance(NetworkShape((2, 1, 1)), samples, (Fraction(0), Fraction(1), Fraction(1)), None)
    return inst, np.array([0.0, 1.0, 1.0]), np.array([-1.0, 0.0, 0.0])


class TestGen:
    def test_deterministic(self):
        a = gen_instance([3, 4, 2], 5, seed=7)
        b = gen_instance([3, 4, 2], 5, seed=7)
        assert a == b
        assert a.resolved_weights() == b.resolved_weights()
        assert gen_instance([3, 4, 2], 5, seed=8) != a

    def test_weights_are_exact_dyadics(self):
        inst = gen_instance([2, 2, 1], 1, seed=1, materialize_weights=True)
        assert all(isinstance(w, Fraction) for w in inst.weights)
        assert inst.resolved_weights() == inst.weights

    def test_needs_samples(self):
        # a count that is not a positive integer, rejected before any draw
        for n in (0, 2.5, True):
            with pytest.raises(InstanceError, match="n_samples must be an integer >= 1"):
                gen_instance([2, 2, 1], n, seed=0)


class TestJson:
    def test_round_trip(self, tmp_path):
        inst = gen_instance([2, 3, 1], 3, seed=4, materialize_weights=True)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.shape == inst.shape
        assert back.seed == inst.seed
        # float round trip is exact: dyadics survive json
        assert back.weights == inst.weights
        assert back.samples == inst.samples

    def test_validation(self):
        with pytest.raises(InstanceError):
            instance_from_json({"widths": [2], "samples": []})
        with pytest.raises(InstanceError):
            instance_from_json({"widths": [2, 1], "samples": [], "seed": 0})
        with pytest.raises(InstanceError):
            instance_from_json(
                {"widths": [2, 1], "samples": [{"input": [1.0], "output": [1.0]}], "seed": 0}
            )
        with pytest.raises(InstanceError):
            instance_from_json(
                {"widths": [2, 1], "samples": [{"input": [1.0, 2.0], "output": [1, 2]}], "seed": 0}
            )
        with pytest.raises(InstanceError):
            instance_from_json(
                {
                    "widths": [2, 1],
                    "samples": [{"input": [1.0, 2.0], "output": [1.0]}],
                    "weights": [0.5],
                }
            )
        # neither weights nor seed
        with pytest.raises(InstanceError):
            instance_from_json(
                {"widths": [2, 1], "samples": [{"input": [1.0, 2.0], "output": [1.0]}]}
            )
        with pytest.raises(InstanceError):
            instance_from_json(
                {
                    "widths": [2, 1],
                    "samples": [{"input": [1.0, float("nan")], "output": [1.0]}],
                    "seed": 0,
                }
            )
        # integers beyond the double range, as a JSON file can hold them
        with pytest.raises(InstanceError):
            instance_from_json(
                {"widths": [2, 1], "samples": [{"input": [10**400, 1], "output": [1]}], "seed": 0}
            )
        with pytest.raises(InstanceError):
            instance_from_json(
                {"widths": [2, 1], "samples": [{"input": [1, 2], "output": [1]}], "weights": [1, -(10**400)]}
            )

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InstanceError):
            load_instance(path)
        path.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16, not UTF-8
        with pytest.raises(InstanceError):
            load_instance(path)


class TestOracle:
    def test_oracle_matches_exact_loss(self):
        inst = gen_instance([2, 2, 1], 2, seed=9, materialize_weights=True)
        oracle = make_oracle(inst)
        w = [float(v) for v in inst.weights]
        exact = loss(inst.shape, inst.weights, inst.samples)
        assert oracle(w) == pytest.approx(float(exact), rel=1e-12)

    def test_warmup_instance_realizes_h(self):
        pairs = [(1.0, 2.0), (3.0, 1.0)]
        inst, base, direction = warmup_instance(pairs)
        assert inst.shape == NetworkShape((2, 1, 1))
        oracle = make_oracle(inst)
        for a in (-1.5, 0.0, 0.4, 1.0, 2.5, 4.0):
            h = sum(0.5 * max(0.0, y - a * x) ** 2 for x, y in pairs)
            assert oracle(base + a * direction) == pytest.approx(h, rel=1e-12, abs=1e-12)
