"""Tests for the exact spectral-parameter arithmetic and the denominator
zero multisets."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from arquiver.spectral import (
    AffineType,
    SpectralParam,
    denominator,
    denominator_roots_raw,
    dual_index,
    dual_point,
    p_star,
    right_dual_point,
    zero_order,
)

A1_3 = AffineType.from_code("A1", 3)
A2_4 = AffineType.from_code("A2", 4)
D1_4 = AffineType.from_code("D1", 4)
D2_4 = AffineType.from_code("D2", 4)


def test_spectral_param_strings():
    assert str(SpectralParam.one()) == "q^0"
    assert str(SpectralParam(1, 2)) == "iq^2"
    assert str(SpectralParam(2, 5)) == "-q^5"
    assert str(SpectralParam(3, -1)) == "-iq^-1"


def test_parse_accepts_both_notations():
    assert SpectralParam.parse("q^3") == SpectralParam(0, 3)
    assert SpectralParam.parse("-iq^-2") == SpectralParam(3, -2)
    assert SpectralParam.parse("(-q)^3") == SpectralParam(2, 3)
    assert SpectralParam.parse("(-q)^-2") == SpectralParam(0, -2)
    with pytest.raises(ValueError):
        SpectralParam.parse("z^2")


def test_minus_q_powers():
    assert SpectralParam.minus_q_power(3) == SpectralParam(2, 3)
    assert SpectralParam.minus_q_power(3).minus_q_exponent() == 3
    assert SpectralParam(0, 3).minus_q_exponent() is None
    assert SpectralParam(0, 2).minus_q_exponent() == 2


def test_affine_type_codes_and_index_sets():
    assert A1_3.code == "A1" and A1_3.N == 3
    assert A1_3.index_set == (1, 2, 3)
    assert A2_4.index_set == (1, 2)
    assert AffineType.from_code("A2", 5).index_set == (1, 2, 3)
    assert D2_4.index_set == (1, 2, 3)
    assert AffineType.from_code("D1", 5).index_set == (1, 2, 3, 4, 5)


def test_partner_swaps_twist():
    assert A1_3.partner() == AffineType.from_code("A2", 3)
    assert D2_4.partner() == AffineType.from_code("D1", 4)
    assert A1_3.partner().partner() == A1_3


def test_bad_type_rejected():
    with pytest.raises(ValueError):
        AffineType.from_code("E1", 6)
    with pytest.raises(ValueError):
        AffineType.from_code("D1", 3)


def test_denominator_zeros_type_a_untwisted():
    assert denominator_roots_raw(A1_3, 1, 1) == {(0, 2): 1}
    assert denominator_roots_raw(A1_3, 1, 2) == {(2, 3): 1}
    assert denominator_roots_raw(A1_3, 2, 2) == {(0, 2): 1, (0, 4): 1}
    assert denominator_roots_raw(A1_3, 1, 3) == {(0, 4): 1}


def test_denominator_zeros_type_d_untwisted():
    assert denominator_roots_raw(D1_4, 2, 2) == {(0, 2): 1, (0, 4): 2, (0, 6): 1}
    assert denominator_roots_raw(D1_4, 1, 3) == {(0, 4): 1}
    assert denominator_roots_raw(D1_4, 3, 4) == {(0, 4): 1}
    assert denominator_roots_raw(D1_4, 3, 3) == {(0, 2): 1, (0, 6): 1}


def test_denominator_zeros_type_a_twisted():
    assert denominator_roots_raw(AffineType.from_code("A2", 3), 1, 1) == {
        (0, 2): 1,
        (2, 4): 1,
    }
    assert denominator_roots_raw(A2_4, 1, 1) == {(0, 2): 1, (2, 5): 1}


def test_denominator_zeros_type_d_twisted():
    assert denominator_roots_raw(D2_4, 1, 1) == {
        (0, 2): 1,
        (2, 2): 1,
        (0, 6): 1,
        (2, 6): 1,
    }
    assert denominator_roots_raw(D2_4, 1, 3) == {(1, 4): 1, (3, 4): 1}
    assert denominator_roots_raw(D2_4, 3, 3) == {(0, 2): 1, (2, 4): 1, (0, 6): 1}


def test_denominator_roots_are_a_read_only_view_of_the_cache():
    roots = denominator_roots_raw(A1_3, 1, 1)
    with pytest.raises(TypeError):
        roots[(0, 99)] = 5
    assert zero_order(A1_3, 1, 1, SpectralParam(0, 99)) == 0
    assert denominator(A1_3, 1, 1).degree == 1
    assert denominator_roots_raw(A1_3, 1, 1) == {(0, 2): 1}


def test_denominator_is_symmetric_in_k_l():
    for g in (A1_3, A2_4, D1_4, D2_4):
        idx = g.index_set
        for k in idx:
            for l in idx:
                assert denominator_roots_raw(g, k, l) == denominator_roots_raw(g, l, k)


def test_untwisted_a_degree_law():
    for n in range(2, 7):
        g = AffineType.from_code("A1", n)
        for k in g.index_set:
            for l in g.index_set:
                expected = min(k, l, n + 1 - k, n + 1 - l)
                assert denominator(g, k, l).degree == expected


def test_factor_strings_match_acceptance_presentation():
    assert denominator(A1_3, 1, 1).factors == ("z-(-q)^2",)
    assert denominator(A2_4, 1, 1).factors == ("z-(-q)^2", "z+q^5(-q)^0")
    assert denominator(D2_4, 3, 3).factors == (
        "z+(-q^2)^1",
        "z+(-q^2)^2",
        "z+(-q^2)^3",
    )


def test_zero_order_lookup():
    assert zero_order(A1_3, 1, 2, SpectralParam(2, 3)) == 1
    assert zero_order(A1_3, 1, 2, SpectralParam(0, 3)) == 0
    assert zero_order(D1_4, 2, 2, SpectralParam(0, 4)) == 2


def test_index_bounds_checked():
    with pytest.raises(ValueError):
        denominator(A1_3, 0, 1)
    with pytest.raises(ValueError):
        denominator(A2_4, 3, 1)


def test_p_star_values():
    assert str(p_star(A1_3)) == "q^4"
    assert str(p_star(AffineType.from_code("D1", 4))) == "q^6"
    assert str(p_star(A2_4)) == "-q^5"
    assert str(p_star(D2_4)) == "q^6"


def test_dual_index_tables():
    assert [dual_index(A1_3, i) for i in (1, 2, 3)] == [3, 2, 1]
    d15 = AffineType.from_code("D1", 5)
    assert [dual_index(d15, i) for i in (1, 4, 5)] == [1, 5, 4]
    d14 = AffineType.from_code("D1", 4)
    assert [dual_index(d14, i) for i in (3, 4)] == [3, 4]
    assert [dual_index(A2_4, i) for i in (1, 2)] == [1, 2]


def test_dual_point_example():
    assert dual_point(A1_3, 1, SpectralParam.one()) == (3, SpectralParam(0, -4))
    i, x = dual_point(A1_3, 2, SpectralParam(1, 3))
    assert right_dual_point(A1_3, i, x) == (2, SpectralParam(1, 3))


params = st.builds(SpectralParam, st.integers(0, 3), st.integers(-8, 8))


@given(params)
def test_string_round_trip(x):
    assert SpectralParam.parse(str(x)) == x


@given(params, params)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(params, params, params)
def test_multiplication_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(params)
def test_inverse_cancels(x):
    assert x * x.inverse() == SpectralParam.one()
    assert x / x == SpectralParam.one()


@given(params)
def test_negation_is_an_involution(x):
    assert -(-x) == x
    assert x.times_i_power(4) == x


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_minus_q_powers_multiply(p, r):
    lhs = SpectralParam.minus_q_power(p) * SpectralParam.minus_q_power(r)
    assert lhs == SpectralParam.minus_q_power(p + r)


@given(params, params)
def test_division_inverts_multiplication(x, y):
    assert (x * y) / y == x
