"""One relator rule for every entry point: a relator is checked on the walk of
its free reduction, a pair by the hypot of its two factors' distances, and a
walk that overflows is refused at the JSON pointer of its word."""
import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerig import cli
from conerig.errors import DomainError, InvalidRepresentation
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    TOL_GROUP,
    AlgebraVector,
    Sl2cElement,
    Su2Element,
    Su2PairElement,
    exp_algebra,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.words import (
    Presentation,
    Representation,
    check_representation,
    checked_factors,
    deform,
    evaluate,
    fox_jacobian,
    free_reduce,
    parse_word,
    prefix_walk,
    relator_distances,
    split_representation,
)

FIXTURES = [
    "torus.json",
    "pants.json",
    "pants-conjugated.json",
    "cusped.json",
    "genus2-su2.json",
    "spherical-torus.json",
    "abelian-torus.json",
]


def element_distances(rho, pres):
    """The distances the relator check took from group-element objects."""
    return [evaluate(rho, free_reduce(rel)).dist_to_identity() for rel in pres.relators]


def assert_same_floats(got, want):
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("name", FIXTURES)
def test_raw_distances_are_the_element_distances_on_fixtures(name):
    m = load_manifest(fixture_path(name))
    assert_same_floats(relator_distances(m.representation, m.presentation),
                       element_distances(m.representation, m.presentation))


coord = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
relator = st.text(alphabet="abcABC", max_size=30)


def image(group, xs):
    vals = xs[0:6:2] + 1j * xs[1:6:2] if group == SL2C else xs[:3]
    return exp_algebra(AlgebraVector.from_coords(group, vals))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([SL2C, SU2, SU2XSU2]),
    st.lists(st.lists(coord, min_size=12, max_size=12), min_size=3, max_size=3),
    st.lists(relator, max_size=3),
)
def test_raw_distances_are_the_element_distances_on_random_words(group, coords, relators):
    xs = [np.array(c) for c in coords]
    if group == SU2XSU2:
        images = tuple(Su2PairElement(image(SU2, x[:3]), image(SU2, x[3:6])) for x in xs)
    else:
        images = tuple(image(group, x) for x in xs)
    rho = Representation(group, images)
    pres = Presentation.from_strings("abc", relators)
    assert_same_floats(relator_distances(rho, pres), element_distances(rho, pres))


def unreduced(text, generator):
    """The relator with a cancelling pair inserted in its middle: `abAB` -> `abAaAB`."""
    k = (len(text) + 1) // 2 + 1
    return text[:k] + generator + generator.upper() + text[k:]


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("t", [0.0, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6, 1e-2])
def test_fox_jacobian_refuses_exactly_what_check_representation_refuses(name, t):
    m = load_manifest(fixture_path(name))
    gens = m.presentation.generators
    texts = list(m.presentation.relator_texts)
    pres = Presentation.from_strings(gens, texts + [unreduced(r, gens[0]) for r in texts])
    rng = np.random.default_rng(len(name))
    for factor in checked_factors(m.representation, m.presentation):
        z = rng.standard_normal(3 * len(gens))
        if factor.group == SL2C:
            z = z + 1j * rng.standard_normal(3 * len(gens))
        rho = deform(factor, z / np.linalg.norm(z), t)
        try:
            check_representation(rho, pres)
            failure = None
        except InvalidRepresentation as exc:
            failure = str(exc)
        if failure is None:
            fox_jacobian(rho, pres)
        else:
            with pytest.raises(InvalidRepresentation) as exc:
                fox_jacobian(rho, pres)
            assert str(exc.value) == failure


def test_an_unreduced_relator_is_checked_on_its_free_reduction():
    m = load_manifest(fixture_path("torus.json"))
    pres = Presentation.from_strings("ab", ["abAaAB"])
    reduced = Presentation.from_strings("ab", ["abAB"])
    got = relator_distances(m.representation, pres)
    assert_same_floats(got, relator_distances(m.representation, reduced))
    fox_jacobian(m.representation, pres)


@pytest.mark.parametrize("name", ["spherical-torus.json", "abelian-torus.json"])
def test_a_pair_is_split_once(name):
    rho = load_manifest(fixture_path(name)).representation
    left, right = split_representation(rho)
    again = split_representation(rho)
    assert again[0] is left and again[1] is right
    assert checked_factors(rho, load_manifest(fixture_path(name)).presentation) == (left, right)
    assert all(f.group == SU2 for f in (left, right))
    assert [g.left for g in rho.images] == list(left.images)
    assert [g.right for g in rho.images] == list(right.images)


# ---------------------------------------------------------------------------
# the rule for derived arrays: refuse only what is not finite


def old_det_rule(mat):
    """The rule that products of SL(2,C) elements followed before: refused
    beyond TOL_GROUP plus the rounding of det, like an input."""
    (a, b), (c, d) = mat.tolist()
    ad, bc = a * d, b * c
    det = ad - bc
    rounding = 1e-14 * (abs(ad) + abs(bc))
    if abs(det - 1.0) > TOL_GROUP + rounding:
        raise DomainError("refused")
    if abs(det - 1.0) > rounding:
        mat = mat / cmath.sqrt(det)
    return mat


def random_draws(count=300):
    rng = np.random.default_rng(0)
    for _ in range(count):
        images = tuple(
            exp_algebra(AlgebraVector.from_coords(SL2C, u + 1j * v))
            for u, v in ((rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)) for _ in range(3))
        )
        letters = rng.choice(list("abcABC"), rng.integers(1, 40))
        yield Representation(SL2C, images), parse_word("".join(letters), "abc")


def test_products_are_refused_only_when_not_finite():
    refused = 0
    for rho, word in random_draws():
        walk = prefix_walk(rho, word)
        assert evaluate(rho, word).mat.tobytes() == walk[-1].tobytes()
        p = walk[0]
        for t, (i, e) in enumerate(word, 1):
            g = rho.raw[i] if e > 0 else rho.raw_inverses[i]
            try:
                p = old_det_rule(p @ g)
            except DomainError:
                # Kept as computed from here on, where the old rule refused.
                refused += 1
                assert walk[t].tobytes() == (walk[t - 1] @ g).tobytes()
                break
            assert walk[t].tobytes() == p.tobytes()  # bit for bit what was accepted
    assert refused == 9


@pytest.mark.parametrize("entry", [1e200, cmath.rect(1.36e154, math.pi / 8)])
def test_an_input_whose_determinant_overflows_is_refused(entry):
    # det = 1e400 once passed as valid, and a finite det beyond the float
    # range in absolute value raised OverflowError.
    with pytest.raises(DomainError, match="determinant overflows"):
        Sl2cElement(np.diag([entry, entry]))


def test_an_overflowing_product_is_refused_without_a_warning():
    g = Sl2cElement(np.diag([1e160, 1e-160]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="product is not finite"):
            g.mul(g)


# ---------------------------------------------------------------------------
# the CLI


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def fixture_doc(name):
    return json.loads(fixture_path(name).read_text())


def pair_just_beyond_tolerance(tmp_path):
    """Each factor's residual is 8e-9 and within TOL_REP; their hypot is not."""
    doc = fixture_doc("spherical-torus.json")
    turn = Su2Element([np.cos(4e-9), 0.0, np.sin(4e-9), 0.0])
    for side in ("left", "right"):
        doc["holonomy"]["a"][side] = Su2Element(doc["holonomy"]["a"][side]).mul(turn).q.tolist()
    return write(tmp_path, "pair-hypot.json", doc)


def overflowing_relator(tmp_path):
    doc = fixture_doc("torus.json")
    doc["relators"] = ["a" * 6680]
    return write(tmp_path, "overflow-relator.json", doc)


def overflowing_meridian(tmp_path):
    doc = fixture_doc("torus.json")
    doc["meridians"][0]["word"] = "a" * 6680
    return write(tmp_path, "overflow-meridian.json", doc)


def overflowing_boundary_word(tmp_path):
    doc = fixture_doc("torus.json")
    doc["boundary"][0]["generator_words"][0] = "a" * 6680
    return write(tmp_path, "overflow-boundary.json", doc)


def run_quietly(argv, capsys):
    """`cli.run` with every warning an error; the exit code and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "cohomology", "rigidity"])
def test_a_pair_gets_one_verdict(tmp_path, capsys, command):
    code, err = run_quietly([command, pair_just_beyond_tolerance(tmp_path)], capsys)
    assert code == 2
    assert err == "error: /relators/0: relator residual 1.131e-08 exceeds 1.0e-08\n"


@pytest.mark.parametrize("command", ["validate", "cohomology", "rigidity"])
def test_an_overflowing_relator_names_its_pointer(tmp_path, capsys, command):
    code, err = run_quietly([command, overflowing_relator(tmp_path)], capsys)
    assert (code, err) == (2, "error: /relators/0: product is not finite (overflow)\n")


def test_an_overflowing_meridian_names_its_pointer(tmp_path, capsys):
    code, err = run_quietly(["rigidity", overflowing_meridian(tmp_path)], capsys)
    assert (code, err) == (2, "error: /meridians/0/word: product is not finite (overflow)\n")


def test_an_overflowing_boundary_word_names_its_pointer(tmp_path, capsys):
    code, err = run_quietly(["cohomology", "--audit", overflowing_boundary_word(tmp_path)], capsys)
    assert (code, err) == (2, "error: /boundary/0/generator_words/0: product is not finite (overflow)\n")


def test_an_overflowing_image_is_refused_at_load(tmp_path, capsys):
    doc = fixture_doc("torus.json")
    doc["holonomy"]["a"] = [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]
    code, err = run_quietly(["validate", write(tmp_path, "big.json", doc)], capsys)
    assert code == 2
    assert err == "error: /holonomy/a: determinant overflows: the entries are too large\n"


@pytest.mark.parametrize("command", ["validate", "rigidity"])
@pytest.mark.parametrize(
    "image",
    [[0, 0, 0, 1.3407807929942597e154], [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]],
    ids=["quaternion", "matrix"],
)
def test_an_overflowing_su2_image_is_refused_at_load(tmp_path, capsys, command, image):
    doc = fixture_doc("genus2-su2.json")
    doc["holonomy"]["a"] = image
    code, err = run_quietly([command, write(tmp_path, "big.json", doc)], capsys)
    assert (code, err) == (2, "error: /holonomy/a: |q|^2 overflows: the entries are too large\n")


MANIFESTS = [
    pytest.param(lambda tmp_path, name=name: str(fixture_path(name)), id=name) for name in FIXTURES
] + [
    pytest.param(overflowing_relator, id="overflow-relator"),
    pytest.param(overflowing_meridian, id="overflow-meridian"),
    pytest.param(overflowing_boundary_word, id="overflow-boundary-word"),
]


@pytest.mark.parametrize("make", MANIFESTS)
@pytest.mark.parametrize(
    "command", [["validate"], ["cohomology", "--audit"], ["rigidity"], ["admissibility"]]
)
def test_no_numpy_warning_reaches_stderr(tmp_path, capsys, make, command):
    code, err = run_quietly([command[0], make(tmp_path), *command[1:]], capsys)
    assert code in (0, 1, 2)
    assert all(line.startswith("error: /") for line in err.splitlines())
