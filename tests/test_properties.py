"""Property-based checks of the structural invariants."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conerig.liecore import (
    SL2C,
    _norm_rule,
    complex_length_sl2c,
    complex_length_su2pair,
    exp_raw,
    raw_inverse,
)
from conerig.spectral import ConePoint, circle_B_spectrum
from conerig.words import (
    Representation,
    evaluate,
    parse_word,
)

from cocycle_reference import ad_action, extend_cocycle, mul

TWO_PI = 2.0 * math.pi

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=TWO_PI, allow_nan=False),
    st.floats(min_value=0.0, max_value=TWO_PI - 1e-9, allow_nan=False),
)
def test_circle_gap_matches_closed_form(alpha, a):
    # stay away from the open-interval boundary where the closed form has
    # its own measure-zero edge
    for boundary in (a, abs(a - alpha), abs(TWO_PI - a - alpha), abs(TWO_PI - alpha)):
        if boundary < 1e-9:
            return
    rep = circle_B_spectrum(ConePoint(alpha, (a,), 0), 1.0)
    expected = (a == 0.0 and alpha <= TWO_PI) or (alpha <= a <= TWO_PI - alpha)
    assert rep.gap_ok == expected


@st.composite
def su2_elements(draw):
    q = np.array([draw(finite), draw(finite), draw(finite), draw(finite)])
    norm = np.linalg.norm(q)
    if norm < 0.1:
        q = np.array([1.0, 0.0, 0.0, 0.0])
        norm = 1.0
    return _norm_rule(q / norm)


@settings(max_examples=200, deadline=None)
@given(su2_elements(), su2_elements())
# axis angles pi/2 - 6e-16 and -pi/2: the angle sum is a tiny negative number
@example(_norm_rule(np.array([6.066396e-16, 0.0, 0.0, 1.0])), _norm_rule(np.array([0.0, 0.0, 0.0, -1.0])))
def test_su2pair_length_trace_relation(left, right):
    if min(abs(abs(2.0 * g[0]) - 2.0) for g in (left, right)) < 1e-6:
        return
    ell1, ell2 = complex_length_su2pair(np.array([left, right]))
    # the windowed representative fixes the traces up to one common sign
    for sign in (1.0, -1.0):
        if abs(2.0 * left[0] - sign * 2.0 * math.cos((ell1 + ell2) / 2.0)) < 1e-9:
            break
    assert 2.0 * left[0] == pytest.approx(sign * 2.0 * math.cos((ell1 + ell2) / 2.0), abs=1e-9)
    assert 2.0 * right[0] == pytest.approx(sign * 2.0 * math.cos((-ell1 + ell2) / 2.0), abs=1e-9)
    assert -math.pi < ell1 <= math.pi
    assert 0.0 <= ell2 < TWO_PI


@st.composite
def sl2c_elements(draw):
    xs = np.array([draw(finite) for _ in range(6)]) / 4.0
    return exp_raw(SL2C, xs[0::2] + 1j * xs[1::2])


@settings(max_examples=200, deadline=None)
@given(sl2c_elements(), sl2c_elements())
def test_complex_length_conjugation_invariant(g, h):
    if abs(abs(np.trace(g)) - 2.0) < 1e-4:
        return
    conjugate = mul(SL2C, mul(SL2C, h, g), raw_inverse(SL2C, h))
    assert abs(complex_length_sl2c(g) - complex_length_sl2c(conjugate)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_extend_cocycle_additivity(data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))

    def normal_coords(count):
        xs = rng.standard_normal(6 * count)
        return xs[0::2] + 1j * xs[1::2]

    rho = Representation(SL2C, np.array([exp_raw(SL2C, normal_coords(1) / 6) for _ in range(2)]))
    z = normal_coords(2)
    letters = "abAB"
    u = parse_word("".join(rng.choice(list(letters), size=rng.integers(0, 6))), ("a", "b"))
    v = parse_word("".join(rng.choice(list(letters), size=rng.integers(0, 6))), ("a", "b"))
    lhs = extend_cocycle(rho, z, u + v)
    rhs = extend_cocycle(rho, z, u) + ad_action(evaluate(rho, u), extend_cocycle(rho, z, v))
    assert np.linalg.norm(lhs - rhs) < 1e-12
