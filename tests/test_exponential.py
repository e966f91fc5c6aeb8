"""`liecore.exp_raw` against the closed form cosh(mu) I + sinh(mu)/mu m,
evaluated by mpmath with 200 bits beyond the cancellation of its diagonal.

Every input ends in an element or a DomainError, with no warning, and only
an exponential near the float range is refused.  An accepted element has
every entry within 32 eps (1 + |mu|) of its scale: the size
(|cosh mu| + |sinh mu|) (delta_ij + |m_ij| / max(1, |mu|)) of the terms it
sums, and for the smaller diagonal entry at most (1 + |bc|) / |larger
diagonal entry|, the rounding of det exp(m) = 1.  So the small eigenvalue
e^-|mu| of an SL(2,C) exponential keeps its digits.

Random coordinates are multiples of one power of two with at most 21
significant bits, so that mu^2 = a^2 + bc is exact in double precision: the
exponential of a nearly nilpotent vector with large entries depends on the
rounding of mu^2, which is the conditioning of the input, not a rounding of
the exponential.
"""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conerig.errors import DomainError
from conerig.liecore import SL2C, SU2, exp_raw

EPS = np.finfo(float).eps
ULPS = 32  # eps per (1 + |mu|) allowed on the scale of each entry
NEAR_OVERFLOW = 1e300


def algebra_matrix(group, coords):
    """[[x, y], [w, -x]] for sl2(C), [[ix, y + iz], [-y + iz, -ix]] for su(2), in mpmath."""
    x, y, t = (mpmath.mpmathify(complex(z)) for z in coords)
    if group == SL2C:
        return [[x, y], [t, -x]]
    return [[1j * x, y + 1j * t], [-y + 1j * t, -1j * x]]


def outcome(group, coords):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = exp_raw(group, coords)
        except DomainError as exc:
            return exc
    if group == SU2:  # the matrix of the quaternion a + bj
        a, b = complex(got[0], got[1]), complex(got[2], got[3])
        got = np.array([[a, b], [-b.conjugate(), a.conjugate()]])
    return got


def check(group, coords):
    got = outcome(group, coords)
    (a, b), (c, d) = algebra_matrix(group, coords)
    mu2 = b * c - a * d
    if abs(mu2) > NEAR_OVERFLOW:
        assert isinstance(got, DomainError), coords
        return
    mu = float(abs(mpmath.sqrt(mu2)))
    with mpmath.workprec(200 + int(3 * mu)):  # e^-mu next to e^mu loses 2 mu log2(e) bits
        root = mpmath.sqrt(b * c - a * d)
        ch = mpmath.cosh(root)
        sh = mpmath.sinh(root) / root if root != 0 else mpmath.mpf(1)
        want = [[ch + sh * a, sh * b], [sh * c, ch + sh * d]]
        terms = abs(ch) + abs(mpmath.sinh(root))
    if isinstance(got, DomainError):
        size = max(max(abs(w) for row in want for w in row), abs(want[0][1] * want[1][0]))
        assert size > NEAR_OVERFLOW, f"{coords} refused: {got}"
        return
    m = [[a, b], [c, d]]
    scale = [[terms * ((i == j) + abs(m[i][j]) / max(1.0, mu)) for j in range(2)] for i in range(2)]
    small = 1 if abs(want[0][0]) >= abs(want[1][1]) else 0
    det_rounding = (1 + abs(want[0][1] * want[1][0])) / abs(want[1 - small][1 - small])
    scale[small][small] = min(scale[small][small], det_rounding)
    bound = ULPS * EPS * (1.0 + mu)
    for i in range(2):
        for j in range(2):
            err = abs(got[i, j] - want[i][j])
            assert err <= bound * scale[i][j], (coords, i, j, got[i, j], complex(want[i][j]))


@pytest.mark.parametrize(
    "group, coords",
    [
        (SL2C, [8, 0, 0]),  # refused: det 0.99999999983, e^-8 formed as cosh 8 - sinh 8
        (SL2C, [1000, 0, 0]),  # cmath.cosh raised OverflowError
        (SU2, [1e200, 1e200, 0]),  # mu^2 overflowed with a numpy RuntimeWarning
        (SU2, [1e308, 1e308, 1e308]),
        (SL2C, [0, 1e200, 1e200]),
        (SL2C, [-30, 0, 0]),
        (SL2C, [700, 0, 0]),
        (SL2C, [20 + 3j, 1e-3, 2e-3j]),
    ],
)
def test_named_inputs(group, coords):
    check(group, coords)


def test_the_small_eigenvalue_keeps_its_digits():
    got = exp_raw(SL2C, [8, 0, 0])
    assert got[0, 0] == pytest.approx(math.exp(8), rel=4 * EPS)
    assert got[1, 1] == pytest.approx(math.exp(-8), rel=4 * EPS)


@st.composite
def coordinates(draw):
    """Field coordinates n 2^k with |n| <= 2^20 and one k for all of them."""
    group = draw(st.sampled_from([SL2C, SU2]))
    k = draw(st.integers(-60, -10))
    n = st.integers(-(2**20), 2**20)
    xs = np.ldexp(draw(st.lists(n, min_size=6, max_size=6)), k)
    return group, xs[0::2] + 1j * xs[1::2] if group == SL2C else xs[:3]


@settings(max_examples=300, deadline=None)
@given(coordinates())
@example((SL2C, np.array([8.0, 0.0, 0.0]) + 0j))
@example((SL2C, np.array([1024.0, 0.0, 0.0]) + 0j))
@example((SU2, np.array([4096.0, 0.0, 0.0])))
def test_exponential_matches_the_closed_form(drawn):
    check(*drawn)
