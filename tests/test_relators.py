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

from conerig import cli, cohomology
from conerig.cohomology import (
    _fox_passes,
    coboundary_space,
    dimension_audit,
    rigidity_test,
    z0_space,
)
from conerig.errors import DomainError, InvalidRepresentation
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    TOL_GROUP,
    _det_rule,
    _norm_rule,
    exp_raw,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.words import (
    Presentation,
    Representation,
    check_representation,
    deform,
    evaluate,
    fox_derivatives,
    fox_jacobian,
    free_reduce,
    parse_word,
    prefix_walk,
    relator_distances,
)

from cocycle_reference import element_matrix, mul

FIXTURES = [
    "torus.json",
    "pants.json",
    "pants-conjugated.json",
    "cusped.json",
    "genus2-su2.json",
    "spherical-torus.json",
    "abelian-torus.json",
]


def element_distance(g):
    """Frobenius distance from the identity of the matrix of a raw element;
    for an SU2xSU2 pair, the hypot of its factors' distances."""
    if g.shape == (2, 4):
        return math.hypot(element_distance(g[0]), element_distance(g[1]))
    return float(np.linalg.norm(element_matrix(g) - np.eye(2)))


def element_distances(rho, pres):
    """The distances of the relators' evaluated free reductions, one by one."""
    return [element_distance(evaluate(rho, free_reduce(rel))) for rel in pres.relators]


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
    return exp_raw(group, vals)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([SL2C, SU2, SU2XSU2]),
    st.lists(st.lists(coord, min_size=12, max_size=12), min_size=3, max_size=3),
    st.lists(relator, max_size=3),
)
def test_raw_distances_are_the_element_distances_on_random_words(group, coords, relators):
    xs = [np.array(c) for c in coords]
    if group == SU2XSU2:
        images = [(image(SU2, x[:3]), image(SU2, x[3:6])) for x in xs]
    else:
        images = [image(group, x) for x in xs]
    rho = Representation(group, np.array(images))
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
    for factor, *_ in _fox_passes(m.representation, m.presentation):
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
    left, right = rho.factors
    again = rho.factors
    assert again[0] is left and again[1] is right
    passes = _fox_passes(rho, load_manifest(fixture_path(name)).presentation)
    assert [factor for factor, *_ in passes] == [left, right]
    assert all(f.group == SU2 for f in (left, right))
    assert left.raw.tobytes() == rho.raw[:, 0].tobytes()
    assert right.raw.tobytes() == rho.raw[:, 1].tobytes()


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
        images = [
            exp_raw(SL2C, u + 1j * v)
            for u, v in ((rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)) for _ in range(3))
        ]
        letters = rng.choice(list("abcABC"), rng.integers(1, 40))
        yield Representation(SL2C, np.array(images)), parse_word("".join(letters), "abc")


def test_products_are_refused_only_when_not_finite():
    refused = 0
    for rho, word in random_draws():
        walk = prefix_walk(rho, word)
        assert evaluate(rho, word).tobytes() == walk[-1].tobytes()
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
        _det_rule(np.diag([entry, entry]).astype(complex))


def test_an_overflowing_product_is_refused_without_a_warning():
    rho = Representation(SL2C, _det_rule(np.diag([1e160, 1e-160]).astype(complex))[None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="aa: product is not finite"):
            prefix_walk(rho, parse_word("aa", "a"), "aa")


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
    turn = _norm_rule(np.array([np.cos(4e-9), 0.0, np.sin(4e-9), 0.0]))
    for side in ("left", "right"):
        q = _norm_rule(np.array(doc["holonomy"]["a"][side]))
        doc["holonomy"]["a"][side] = mul(SU2, q, turn).tolist()
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


def overflowing_relator_residual(tmp_path):
    """Finite relator images whose distance from the identity overflows."""
    doc = fixture_doc("torus.json")
    doc["holonomy"]["a"][0][1] = [1e200, 0.0]
    return write(tmp_path, "overflow-residual.json", doc)


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


@pytest.mark.parametrize(
    "command, message",
    [
        ("validate", "relator residual overflows"),
        ("cohomology", "Fox derivatives overflow"),
        ("rigidity", "Fox derivatives overflow"),
    ],
)
def test_an_overflowing_relator_residual_names_its_pointer(tmp_path, capsys, command, message):
    # refused with no report, as a walk that overflows is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run([command, overflowing_relator_residual(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (2, f"error: /relators/0: {message}\n", "")


def test_a_pair_is_checked_by_the_hypot_before_its_factors(tmp_path, capsys):
    # Each factor passes the check alone; only the hypot of the two fails.
    m = load_manifest(pair_just_beyond_tolerance(tmp_path))
    rho, pres = m.representation, m.presentation
    for factor in rho.factors:
        check_representation(factor, pres)
    failure = "/relators/0: relator residual 1.131e-08 exceeds 1.0e-08"
    for call in (lambda: rigidity_test(rho, pres), lambda: dimension_audit(rho, pres, m.boundary)):
        with pytest.raises(InvalidRepresentation) as exc:
            call()
        assert str(exc.value) == failure
    for command in (["cohomology"], ["cohomology", "--audit"], ["rigidity"]):
        code, err = run_quietly([command[0], pair_just_beyond_tolerance(tmp_path), *command[1:]], capsys)
        assert (code, err) == (2, f"error: {failure}\n")


def not_commuting(tmp_path):
    """torus.json with b no longer commuting with a."""
    doc = fixture_doc("torus.json")
    doc["holonomy"]["b"][0][1] = [1.0, 0.0]
    return write(tmp_path, "not-commuting.json", doc)


@pytest.mark.parametrize("name", FIXTURES + ["not-commuting", "pair-beyond-tolerance"])
def test_fox_pass_finals_give_the_walk_distances(tmp_path, name):
    # `finals` holds one sequence of last prefixes per factor, whether a list
    # or one numpy stack, for one group as for a pair.
    made = {"not-commuting": not_commuting, "pair-beyond-tolerance": pair_just_beyond_tolerance}
    m = load_manifest(made[name](tmp_path) if name in made else fixture_path(name))
    rho, pres = m.representation, m.presentation
    stack = np.array([fox_derivatives(f, pres.relators)[1] for f in rho.factors])
    assert stack.shape[:2] == (len(rho.factors), len(pres.relators))
    want = relator_distances(rho, pres)
    for finals in (stack, list(stack)):
        assert_same_floats(relator_distances(rho, pres, finals), want)
    outcomes = []
    for finals in (None, stack, list(stack)):
        try:
            check_representation(rho, pres, finals)
            outcomes.append(None)
        except InvalidRepresentation as exc:
            outcomes.append(str(exc))
    assert outcomes[1:] == outcomes[:1] * 2


def test_a_relator_refusal_comes_before_a_meridian_walk(tmp_path, capsys):
    # b no longer commutes with a, and the meridian's walk overflows.
    doc = fixture_doc("torus.json")
    doc["holonomy"]["b"][0][1] = [1.0, 0.0]
    doc["meridians"][0]["word"] = "a" * 6680
    code, err = run_quietly(["rigidity", write(tmp_path, "relator-and-meridian.json", doc)], capsys)
    assert (code, err) == (2, "error: /relators/0: relator residual 1.924e+00 exceeds 1.0e-08\n")


def test_a_meridian_refusal_comes_after_the_image_checks(tmp_path, monkeypatch):
    # No relator refuses first, so H^1 and the image checks run before the
    # meridian's walk is refused.  Ad(a) is finite (entries near 1e240); a^3
    # is not.
    doc = fixture_doc("torus.json")
    doc["relators"] = []
    z = complex(8e119, 5e119)
    doc["holonomy"]["a"] = [[[z.real, z.imag], [0.0, 0.0]], [[0.0, 0.0], [(1 / z).real, (1 / z).imag]]]
    doc["meridians"][0]["word"] = "aaa"
    m = load_manifest(write(tmp_path, "big-meridian.json", doc))
    checked, real = [], cohomology._image_is_abelian
    monkeypatch.setattr(cohomology, "_image_is_abelian", lambda *args: checked.append(1) or real(*args))
    with warnings.catch_warnings(), pytest.raises(DomainError) as exc:
        warnings.simplefilter("error")
        rigidity_test(m.representation, m.presentation)
    assert str(exc.value) == "/meridians/0/word: product is not finite (overflow)"
    assert checked == [1]


def ad_overflows(tmp_path, a):
    """torus.json with no relators and no boundary, and with a as the image of
    a: a finite SL2C matrix whose Ad overflows."""
    doc = fixture_doc("torus.json")
    doc["relators"], doc["boundary"] = [], []
    doc["holonomy"]["a"] = [[[x, 0.0] for x in row] for row in a]
    return write(tmp_path, "ad-overflows.json", doc)


@pytest.mark.parametrize(
    "a",
    [[[1e200, 0.0], [0.0, 1e-200]], [[1.5e154, 1.5e154], [0.0, 1 / 1.5e154]]],
    ids=["diagonal", "parabolic"],
)
def test_an_image_whose_ad_overflows_is_refused_at_its_pointer(tmp_path, capsys, a):
    # Nothing refuses first: no relator, no boundary word, no overflowing walk.
    path = ad_overflows(tmp_path, a)
    assert run_quietly(["validate", path], capsys) == (0, "")
    for command in (["cohomology"], ["cohomology", "--audit"], ["rigidity"]):
        code, err = run_quietly([command[0], path, *command[1:]], capsys)
        assert (code, err) == (2, "error: /holonomy/a: adjoint action overflows\n")
    m = load_manifest(path)
    for space in (z0_space, coboundary_space):
        with warnings.catch_warnings(), pytest.raises(DomainError, match="^/holonomy/a: adjoint"):
            warnings.simplefilter("error")
            space(m.representation, m.presentation)


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
    pytest.param(overflowing_relator_residual, id="overflow-relator-residual"),
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
