"""Tests for the application-time domain."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import is_finite
from repro.temporal.time import (
    CHRONON,
    EPSILON,
    MAX_TIME,
    MIN_TIME,
    half_before,
    validate_time,
)


class TestConstants:
    def test_chronon_is_one_unit(self):
        assert CHRONON == 1

    def test_epsilon_is_half_a_chronon(self):
        assert EPSILON == 0.5

    def test_epsilon_lies_strictly_between_integers(self):
        assert 0 < EPSILON < 1
        assert 10 < 10 + EPSILON < 11

    def test_max_time_dominates_finite_times(self):
        assert MAX_TIME > 10**15

    def test_time_origin(self):
        assert MIN_TIME == 0


class TestIsFinite:
    def test_ordinary_timestamps_are_finite(self):
        assert is_finite(0)
        assert is_finite(12345)
        assert is_finite(3.5)

    def test_max_time_is_not_finite(self):
        assert not is_finite(MAX_TIME)

    def test_negative_is_not_finite(self):
        assert not is_finite(-1)


class TestValidateTime:
    def test_accepts_ints(self):
        assert validate_time(42) == 42

    def test_accepts_half_chronon_floats(self):
        assert validate_time(2.5) == 2.5
        assert validate_time(0.5) == 0.5
        assert validate_time(2**52 - 0.5) == 2**52 - 0.5

    def test_rejects_fractions(self):
        with pytest.raises(TypeError):
            validate_time(Fraction(7, 2))

    def test_rejects_floats_off_the_half_chronon(self):
        # ``2**52 + 0.5`` rounds to the chronon 2**52 as a float: from
        # there on no half chronon is representable.
        for value in (1.25, 3.0, math.inf, math.nan, 2**52 + 0.5):
            with pytest.raises(ValueError, match="half chronon"):
                validate_time(value)

    def test_rejects_negative_half_chronons(self):
        with pytest.raises(ValueError, match="origin"):
            validate_time(-0.5)

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            validate_time(True)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            validate_time("10")

    def test_rejects_pre_origin_times(self):
        with pytest.raises(ValueError):
            validate_time(-3)


class TestHalfBefore:
    def test_is_the_half_chronon_below(self):
        assert half_before(101) == 100.5

    @pytest.mark.parametrize("k", [2**52, MAX_TIME, 0, -4])
    def test_refuses_chronons_without_an_exact_half_before(self, k):
        with pytest.raises(ValueError, match=str(k)):
            half_before(k)

    @pytest.mark.parametrize("k", [100.5, 3.0, Fraction(3), True])
    def test_refuses_non_int_chronons(self, k):
        with pytest.raises(TypeError):
            half_before(k)

    @given(st.integers(min_value=1, max_value=2**52 - 1))
    def test_is_exactly_the_fraction_half_chronon(self, k):
        t = half_before(k)
        assert t == Fraction(2 * k - 1, 2)
        assert hash(t) == hash(Fraction(2 * k - 1, 2))
        assert math.ceil(t) == k
        assert k - 1 < t < k
        assert validate_time(t) is t


class TestMixedComparisons:
    """int/float comparisons must be exact — T_split relies on this."""

    def test_fraction_between_adjacent_ints(self):
        t_split = 100 + EPSILON
        assert 100 < t_split < 101

    def test_fraction_equality_with_int_never_holds_for_epsilon_offsets(self):
        for base in (0, 7, 10**9):
            assert base + EPSILON != base
            assert base + EPSILON != base + 1

    def test_epsilon_arithmetic_is_exact(self):
        assert (100 + EPSILON) + EPSILON == 101

    def test_comparisons_stay_exact_far_above_float_precision(self):
        # 2**53 + 1 has no float of its own; Python still compares exactly.
        assert half_before(2**52 - 1) < 2**52 - 1 < 2**53 + 1
        assert float(2**53) < 2**53 + 1
