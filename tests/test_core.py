import math
import re
from pathlib import Path

import numpy as np
import pytest

from uqagg import (
    FULL_SET,
    EmptyGrid,
    InvalidStack,
    NonFinite,
    NonTwoDimensional,
    OutOfRange,
    ProbabilityStack,
    SegmentationMask,
    UncertaintyMap,
    as_mask,
    entropy_uncertainty,
    parse_strategy_list,
    validate_map,
)
from uqagg.core import MapPass
from uqagg.strategies import score_map


def test_map_accepts_plain_lists_and_coerces_float64():
    u = validate_map([[0.0, 0.5], [1.0, 0.25]])
    assert u.values.dtype == np.float64
    assert u.shape == (2, 2)


def test_map_values_read_only():
    u = validate_map(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        u.values[0, 0] = 1.0


def test_caller_arrays_stay_writable_and_unaliased():
    rng = np.random.default_rng(6)
    a = rng.random((60, 70))
    b = (a > 0.5).astype(np.int64) + (a > 0.8).astype(np.int64)
    bank = parse_strategy_list(FULL_SET)
    for make_mask in (SegmentationMask, as_mask):
        u, mask = validate_map(a), make_mask(b)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(u.values, a)
        assert not np.shares_memory(mask.labels, b)
        before = score_map(MapPass(u, mask), bank)[0]
        a[...], b[...] = 1.0 - a, 1 - np.minimum(b, 1)
        after = score_map(MapPass(u, mask), bank)[0]
        assert before.tobytes() == after.tobytes()


def test_owned_arrays_are_kept_and_frozen():
    a = np.random.default_rng(7).random((4, 5))
    b = (a > 0.5).astype(np.int64)
    u, mask = validate_map(a, owned=True), as_mask(b, owned=True)
    assert u.values is a and mask.labels is b
    assert not a.flags.writeable and not b.flags.writeable
    # a grid of another dtype is converted, so the caller's array stays as is
    c = (a > 0.5).astype(np.int32)
    assert not np.shares_memory(as_mask(c, owned=True).labels, c)
    assert c.flags.writeable


def test_map_rejects_bad_inputs():
    with pytest.raises(NonTwoDimensional):
        validate_map(np.zeros(4))
    with pytest.raises(NonTwoDimensional):
        validate_map(np.zeros((2, 2, 2)))
    with pytest.raises(EmptyGrid):
        validate_map(np.zeros((0, 5)))
    with pytest.raises(NonFinite):
        validate_map([[0.1, math.nan]])
    with pytest.raises(NonFinite):
        validate_map([[0.1, math.inf]])
    with pytest.raises(OutOfRange):
        validate_map([[0.1, 1.2]])
    with pytest.raises(OutOfRange):
        validate_map([[-0.1, 0.2]])
    # grids that hold no real numbers, even where numpy would convert them
    for raw in ("abc", [["0.5", "x"]], [[10**400]], np.array([["0.5"]]),
                np.array([[0.5 + 0.5j]]), np.array([[0.5 + 0j]])):
        with pytest.raises(OutOfRange, match="^expected a grid of numbers: "):
            validate_map(raw)


def test_map_identity_passthrough():
    u = validate_map(np.full((2, 2), 0.5))
    assert validate_map(u) is u
    assert UncertaintyMap(u.values).shape == u.shape


def test_mask_basics():
    m = as_mask([[0, 1], [2, 1]])
    assert m.labels.dtype == np.int64
    with pytest.raises(OutOfRange):
        as_mask([[-1, 0]])
    with pytest.raises(NonTwoDimensional):
        as_mask([0, 1, 2])
    for raw in (np.array([["a"]]), None, [[2**70]], np.array([["1", "2"]]),
                np.array([[1 + 0j]])):
        with pytest.raises(OutOfRange, match="^expected a grid of numbers: "):
            as_mask(raw)


def test_stack_entropy_two_class_extremes():
    # a pixel with p = (1, 0) is certain, p = (.5, .5) maximally uncertain
    probs = np.zeros((1, 2, 1, 2))
    probs[0, 0, 0, 0] = 1.0  # pixel 0: (1, 0)
    probs[0, :, 0, 1] = 0.5  # pixel 1: (.5, .5)
    u = entropy_uncertainty(ProbabilityStack(probs))
    assert u.values[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert u.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_stack_entropy_averages_over_samples():
    # two one-hot samples voting for different classes average to (.5, .5)
    probs = np.zeros((2, 2, 1, 1))
    probs[0, 0, 0, 0] = 1.0
    probs[1, 1, 0, 0] = 1.0
    u = entropy_uncertainty(ProbabilityStack(probs))
    assert u.values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_stack_entropy_k_class_uniform_is_one():
    for k in (2, 3, 5, 8):
        probs = np.full((3, k, 2, 2), 1.0 / k)
        u = entropy_uncertainty(ProbabilityStack(probs))
        np.testing.assert_allclose(u.values, 1.0, atol=1e-12)


def test_stack_row_sum_tolerance():
    probs = np.full((1, 2, 1, 1), 0.5)
    probs[0, 0, 0, 0] += 5e-7  # inside the 1e-6 budget, renormalized away
    entropy_uncertainty(ProbabilityStack(probs))
    bad = np.full((1, 2, 1, 1), 0.5)
    bad[0, 0, 0, 0] += 1e-3
    with pytest.raises(InvalidStack):
        ProbabilityStack(bad)


def test_stack_shape_validation():
    with pytest.raises(InvalidStack):
        ProbabilityStack(np.zeros((2, 1, 4, 4)))  # needs at least two classes
    with pytest.raises(InvalidStack):
        ProbabilityStack(np.zeros((2, 2, 4)))


def test_all_lists_every_public_name():
    import types

    import uqagg

    bound = {name for name, value in vars(uqagg).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(uqagg.__all__) == sorted(bound)
    assert len(uqagg.__all__) == len(set(uqagg.__all__))


# Public names whose only callers are tests, each with why it is kept.
_KEPT_WITHOUT_CALLER = {
    "entropy_uncertainty": "the uncertainty map of the segmentation-risk "
                           "suite's probability stacks, still to be built",
    "spatial_weight_map": "the per-pixel weights that test_spatial's brute-force "
                          "oracles check the spatial kernels through",
}


def test_every_public_name_has_a_caller_outside_its_tests():
    import uqagg

    root = Path(__file__).resolve().parents[1]
    texts = [(root / "README.md").read_text(encoding="utf-8"),
             (root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8")
              for p in sorted((root / "perfbench").glob("*.py"))]
    sources = [p.read_text(encoding="utf-8")
               for p in sorted((root / "src" / "uqagg").glob("*.py"))
               if p.name != "__init__.py"]
    uncalled = []
    for name in uqagg.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own_line = re.compile(rf"^(?:def|class) {re.escape(name)}\b.*$", re.M)
        if not any(word.search(t) for t in texts) and not any(
                word.search(own_line.sub("", t)) for t in sources):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(_KEPT_WITHOUT_CALLER)


def test_random_stream_lanes_are_distinct_and_nonzero():
    # Each role draws from its own rng.stream lane; lane 0 is synth.generate's
    # default. rng itself holds the lane width, which is no lane.
    import importlib
    import pkgutil

    import uqagg
    from uqagg.rng import _LANE_BITS

    lanes = {}
    for info in pkgutil.iter_modules(uqagg.__path__):
        module = importlib.import_module(f"uqagg.{info.name}")
        if info.name != "rng":
            lanes.update({f"{info.name}.{name}": value
                          for name, value in vars(module).items()
                          if name.startswith("_LANE_")})
    assert len(lanes) >= 6, lanes
    assert len(set(lanes.values())) == len(lanes), lanes
    assert all(0 < lane < 1 << _LANE_BITS for lane in lanes.values()), lanes


def test_random_stream_refuses_a_seed_that_would_share_a_key():
    from uqagg.errors import InvalidParam
    from uqagg.rng import stream

    top = stream(2**64 - 1).integers(2**63, size=4)
    assert not np.array_equal(top, stream(0).integers(2**63, size=4))
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(InvalidParam, match=r"^seed must lie in \[0, 2\*\*64\)"):
            stream(seed)
    with pytest.raises(TypeError):
        stream(1.0)
    assert np.array_equal(stream(np.uint64(7)).random(3), stream(7).random(3))
