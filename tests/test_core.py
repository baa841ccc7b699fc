import math

import numpy as np
import pytest

from uqagg import (
    EmptyGrid,
    FeatureMatrix,
    InvalidStack,
    NonFinite,
    NonTwoDimensional,
    OutOfRange,
    ProbabilityStack,
    SegmentationMask,
    UncertaintyMap,
    as_mask,
    entropy_uncertainty,
    validate_map,
)
from uqagg.errors import FeatureMismatch, ShapeMismatch


def test_map_accepts_plain_lists_and_coerces_float64():
    u = validate_map([[0.0, 0.5], [1.0, 0.25]])
    assert u.values.dtype == np.float64
    assert u.shape == (2, 2)


def test_map_values_read_only():
    u = validate_map(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        u.values[0, 0] = 1.0


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


def test_map_identity_passthrough():
    u = validate_map(np.full((2, 2), 0.5))
    assert validate_map(u) is u
    assert UncertaintyMap(u.values).shape == u.shape


def test_mask_basics():
    m = as_mask([[0, 1], [2, 1]])
    assert m.labels.dtype == np.int64
    assert m.background_label == 0
    np.testing.assert_array_equal(m.foreground(), [[False, True], [True, True]])
    with pytest.raises(OutOfRange):
        as_mask([[-1, 0]])
    with pytest.raises(NonTwoDimensional):
        as_mask([0, 1, 2])


def test_mask_custom_background():
    m = SegmentationMask(np.array([[3, 1], [3, 2]]), background_label=3)
    assert m.foreground().sum() == 2


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


def test_feature_matrix_selection():
    m = FeatureMatrix(("a", "b", "c"), np.arange(12.0).reshape(4, 3))
    assert m.n_samples == 4
    np.testing.assert_array_equal(m.column("b"), [1.0, 4.0, 7.0, 10.0])
    sub = m.select(("c", "a"))
    assert sub.names == ("c", "a")
    np.testing.assert_array_equal(sub.row(1).values, [[5.0, 3.0]])
    assert sub.row(-1).names == ("c", "a")
    with pytest.raises(FeatureMismatch):
        m.select(("a", "zz"))
    with pytest.raises(ShapeMismatch):
        FeatureMatrix(("a",), np.zeros((2, 2)))


def test_all_lists_every_public_name():
    import types

    import uqagg

    bound = {name for name, value in vars(uqagg).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(uqagg.__all__) == sorted(bound)
    assert len(uqagg.__all__) == len(set(uqagg.__all__))
