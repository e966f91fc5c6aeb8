"""Differential tests of the prefix walk and the SVD construction of H^1
against what they replace: the chain of products written out entry by entry
(bit for bit) and the projection SVD of the Z^1 basis (the same subspace).
Work-count guards keep h1_basis free of SVDs wider than the coefficient
algebra, and every CLI run to a few representations: the images are read to
one raw stack, which an SU(2)xSU(2) pair's factors share."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerig import cli, cohomology
from conerig.cohomology import (
    coboundary_space,
    cocycle_space,
    h1_basis,
    surface_presentation,
)
from conerig.errors import IllConditioned
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    _det_rule,
    _norm_rule,
    exp_raw,
    su2_quaternion,
)
from conerig.manifest import Manifest, fixture_path, load_manifest, manifest_to_dict
from conerig.spectral import SingularGraph
from conerig.words import (
    Representation,
    evaluate,
    fox_jacobian,
    parse_word,
    prefix_walk,
)

from cocycle_reference import element_matrix

FIXTURES = [
    "torus.json",
    "pants.json",
    "pants-conjugated.json",
    "cusped.json",
    "genus2-su2.json",
    "spherical-torus.json",
    "abelian-torus.json",
]
GENERA = range(2, 14)


def element_quat_mul(p, q):
    """The quaternion product on numpy float64 scalars."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.array(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ]
    )


def literal_inverse(group, g):
    """The adjugate of a matrix, the conjugate of a quaternion."""
    if group == SU2:
        return np.array([g[0], -g[1], -g[2], -g[3]])
    return np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])


def mul_chain(rho, word):
    """Raw prefixes of a word as a chain of products written out entry by
    entry, each under the rule for a derived array: the reference for
    `prefix_walk`."""
    out = np.array([1.0, 0.0, 0.0, 0.0]) if rho.group == SU2 else np.eye(2, dtype=complex)
    chain = [out]
    for i, e in word:
        g = rho.raw[i] if e > 0 else literal_inverse(rho.group, rho.raw[i])
        if rho.group == SU2:
            out = _norm_rule(element_quat_mul(out, g), derived=True)
        else:
            out = _det_rule(out @ g, derived=True)
        chain.append(out)
    return chain


def assert_inverses_are_literal(rho):
    """The closed-form inverses are the adjugates (conjugates) of the
    images, bit for bit, and both stacks are read-only."""
    assert rho.raw.shape == rho.raw_inverses.shape
    for g, got_inv in zip(rho.raw, rho.raw_inverses):
        want_inv = literal_inverse(rho.group, g)
        assert got_inv.dtype == want_inv.dtype and got_inv.tobytes() == want_inv.tobytes()
    assert not rho.raw.flags.writeable and not rho.raw_inverses.flags.writeable


def assert_walk_is_the_chain(rho, word):
    walk, chain = prefix_walk(rho, word), mul_chain(rho, word)
    assert len(walk) == len(chain)
    for got, want in zip(walk, chain):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert evaluate(rho, word).tobytes() == chain[-1].tobytes()


def fixture_words(name):
    m = load_manifest(fixture_path(name))
    gens = m.presentation.generators
    words = list(m.presentation.relators) + [mer.word for mer in m.presentation.meridians]
    words += [parse_word(w, gens) for comp in m.boundary for w in comp.generator_words]
    return m.representation, words


@pytest.mark.parametrize("name", FIXTURES)
def test_factors_are_read_only_views_of_the_stack(name):
    rho = load_manifest(fixture_path(name)).representation
    if rho.group == SU2XSU2:
        for side, f in enumerate(rho.factors):
            assert f.raw.tobytes() == rho.raw[:, side].tobytes()
    stacks = [rho.raw] + [s for f in rho.factors for s in (f.raw, f.raw_inverses)]
    assert not any(s.flags.writeable for s in stacks)
    if rho.group == SU2XSU2:
        assert all(np.shares_memory(f.raw, rho.raw) for f in rho.factors)


@pytest.mark.parametrize("name", FIXTURES)
def test_walk_matches_the_written_out_chain_on_fixture_words(name):
    rho, words = fixture_words(name)
    for f in rho.factors:
        assert_inverses_are_literal(f)
        for word in words:
            assert_walk_is_the_chain(f, word)


coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
letter = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["SL2C", "SU2"]),
    st.lists(coord, min_size=18, max_size=18),
    st.lists(letter, max_size=12),
)
def test_walk_matches_the_written_out_chain_on_random_words(group, coords, word):
    xs = np.array(coords)
    vals = xs[0::2] + 1j * xs[1::2] if group == "SL2C" else xs[:9]
    images = np.array([exp_raw(group, vals[3 * k : 3 * k + 3]) for k in range(3)])
    assert_walk_is_the_chain(Representation(group, images), tuple(word))


@pytest.mark.parametrize("group", ["SL2C", "SU2"])
def test_walk_reprojects_as_the_input_rules_do(group):
    # Images with det (|q|^2) = 1 + 9e-15 pass the input rules unchanged,
    # inside the rounding allowance; their products leave it and must be
    # re-projected exactly as the rule for a derived array re-projects them.
    s = np.sqrt(1.0 + 9e-15)
    if group == "SL2C":
        images = [_det_rule(s * np.diag([x, 1 / x]).astype(complex)) for x in (1.2, 0.7j)]
    else:
        images = [_norm_rule(s * np.array(q, dtype=float)) for q in ([0.6, 0.8, 0, 0], [0, 0, 0.8, 0.6])]
    rho = Representation(group, np.array(images))
    assert_inverses_are_literal(rho)
    word = ((0, 1), (1, 1), (0, -1), (1, 1))
    assert_walk_is_the_chain(rho, word)
    a, b = images
    unprojected = a @ b if group == "SL2C" else element_quat_mul(a, b)
    assert prefix_walk(rho, word)[2].tobytes() != unprojected.tobytes()


# ---------------------------------------------------------------------------
# surface groups


def su2_surface(genus, rng):
    """Irreducible SU(2) images of a_1, b_1, ..., a_g, b_g.  The first g - 1
    pairs are random; with T = h diag(m^2, conj(m)^2) h^-1 the inverse of
    their commutator product, a_g = h diag(m, conj(m)) h^-1 and b_g = h w h^-1
    for the quarter turn w, so that [a_g, b_g] = T."""
    mats = []
    for _ in range(2 * genus - 2):
        q = rng.standard_normal(4)
        mats.append(element_matrix(_norm_rule(q / np.linalg.norm(q))))
    prod = np.eye(2, dtype=complex)
    for a, b in zip(mats[0::2], mats[1::2]):
        prod = prod @ a @ b @ a.conj().T @ b.conj().T
    vals, vecs = np.linalg.eig(prod.conj().T)
    v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    h = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    m = np.sqrt(vals[0])
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    mats += [h @ np.diag([m, np.conj(m)]) @ h.conj().T, h @ w @ h.conj().T]
    return Representation(SU2, np.array([_norm_rule(su2_quaternion(x)) for x in mats]))


def sl2c_diagonal_surface(genus, rng):
    z = np.exp(rng.uniform(-0.5, 0.5, 2 * genus) + 1j * rng.uniform(0.3, 6.0, 2 * genus))
    return Representation(SL2C, np.array([_det_rule(np.diag([x, 1.0 / x])) for x in z]))


SURFACES = [
    pytest.param(make, genus, id=f"{make.__name__}-g{genus}")
    for make in (su2_surface, sl2c_diagonal_surface)
    for genus in GENERA
]


def surface(make, genus):
    return make(genus, np.random.default_rng(genus)), surface_presentation(genus)


@pytest.mark.parametrize("make,genus", SURFACES)
def test_walk_matches_the_written_out_chain_on_surface_relators(make, genus):
    rho, pres = surface(make, genus)
    assert_walk_is_the_chain(rho, pres.relators[0])


# ---------------------------------------------------------------------------
# H^1 against the projection SVD


def projection_h1(z1, b1):
    """H^1 by projecting the Z^1 basis off B^1 and taking the left singular
    vectors of what survives, with its certificate."""
    dim_h1 = z1.shape[1] - b1.shape[1]
    w = z1 - b1 @ (b1.conj().T @ z1)
    uw, sw, _ = np.linalg.svd(w)
    assert dim_h1 == 0 or sw[dim_h1 - 1] >= 0.5
    assert sw.size == dim_h1 or sw[dim_h1] <= 0.5
    return uw[:, :dim_h1]


def assert_same_h1(rho, pres):
    rep = h1_basis(rho, pres)
    z1, b1 = cocycle_space(rho, pres), coboundary_space(rho, pres)
    want = projection_h1(z1, b1)
    degree = 2 if rho.group == "SL2C" else 1
    assert (rep.dim_Z1, rep.dim_B1, rep.dim_H1) == (
        degree * z1.shape[1],
        degree * b1.shape[1],
        degree * want.shape[1],
    )
    got = rep.basis_H1
    assert got.shape == want.shape
    assert np.abs(got.conj().T @ got - np.eye(got.shape[1])).max(initial=0.0) <= 1e-12
    assert np.abs(got @ got.conj().T - want @ want.conj().T).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", FIXTURES)
def test_h1_matches_projection_on_fixtures(name):
    m = load_manifest(fixture_path(name))
    for f in m.representation.factors:
        assert_same_h1(f, m.presentation)


@pytest.mark.parametrize("make,genus", SURFACES)
def test_h1_matches_projection_on_surface_groups(make, genus):
    assert_same_h1(*surface(make, genus))


def no_qr(*args, **kwargs):
    raise AssertionError("h1_basis takes one SVD of Z^H B and no QR")


@pytest.mark.parametrize("name", FIXTURES)
def test_h1_basis_takes_no_qr_on_fixtures(monkeypatch, name):
    m = load_manifest(fixture_path(name))
    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for f in m.representation.factors:
        assert_same_h1(f, m.presentation)


@pytest.mark.parametrize("make", [su2_surface, sl2c_diagonal_surface])
@pytest.mark.parametrize("genus", [2, 3, 4])
def test_h1_basis_takes_no_qr_on_surface_groups(monkeypatch, make, genus):
    rho, pres = surface(make, genus)
    monkeypatch.setattr(np.linalg, "qr", no_qr)
    assert_same_h1(rho, pres)


@pytest.mark.parametrize("angle,raises", [(np.pi / 4, True), (0.1, False)])
def test_b1_tilted_out_of_z1(monkeypatch, angle, raises):
    # Tilt one B^1 column towards a direction orthogonal to Z^1 (a row of the
    # Fox Jacobian): s_min(Z^H B) becomes cos(angle), against sqrt(3)/2.
    rho, pres = su2_surface(2, np.random.default_rng(5)), surface_presentation(2)
    z0, b1 = cohomology._z0_b1(rho, cohomology._images_at(pres))
    normal = fox_jacobian(rho, pres)[0].conj()
    normal /= np.linalg.norm(normal)
    tilted = b1.copy()
    tilted[:, 0] = np.cos(angle) * b1[:, 0] + np.sin(angle) * normal
    monkeypatch.setattr(cohomology, "_z0_b1", lambda rho, where: (z0, tilted))
    if raises:
        with pytest.raises(IllConditioned, match="B1 is not numerically contained in Z1"):
            h1_basis(rho, pres)
    else:
        assert h1_basis(rho, pres).dim_H1 == 6


# ---------------------------------------------------------------------------
# work-count guard


def h1_svd_shapes(monkeypatch, rho, pres):
    """The shapes of the SVDs that h1_basis takes."""
    shapes = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    h1_basis(rho, pres)
    monkeypatch.undo()
    return shapes


@pytest.mark.parametrize("make", [su2_surface, sl2c_diagonal_surface])
def test_h1_basis_work_does_not_grow_with_the_relator(monkeypatch, make):
    small = h1_svd_shapes(monkeypatch, *surface(make, 2))
    large = h1_svd_shapes(monkeypatch, *surface(make, 13))
    assert small and large and all(min(shape) <= 3 for shape in small + large)


def surface_manifest(tmp_path, make, genus):
    rho, pres = surface(make, genus)
    doc = manifest_to_dict(
        Manifest(
            schema=1,
            curvature=1 if rho.group == "SU2" else -1,
            group=rho.group,
            presentation=pres,
            representation=rho,
            boundary=(),
            singular_graph=SingularGraph((), ()),
            warnings=(),
        )
    )
    path = tmp_path / f"{make.__name__}-g{genus}.json"
    path.write_text(json.dumps(doc))
    return path


def cli_representations(monkeypatch, capsys, argv, exit_code) -> int:
    """Representations built by one completed `cli.run`."""
    built = []
    real_post_init = Representation.__post_init__

    def post_init(self):
        built.append(self.group)
        real_post_init(self)

    monkeypatch.setattr(Representation, "__post_init__", post_init)
    code = cli.run(argv)
    monkeypatch.undo()
    assert code == exit_code and capsys.readouterr().out
    return len(built)


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize("make", [su2_surface, sl2c_diagonal_surface])
def test_cli_builds_one_representation_for_a_surface(monkeypatch, capsys, tmp_path, make, command):
    # 26 images read to one raw stack; the relator is checked on its walk.
    path = str(surface_manifest(tmp_path, make, 13))
    assert cli_representations(monkeypatch, capsys, [command, path], 0) == 1


@pytest.mark.parametrize(
    "argv, exit_code, most_representations",
    [
        pytest.param(["rigidity", "pants.json"], 0, 1, id="rigidity-pants"),
        pytest.param(["rigidity", "genus2-su2.json"], 1, 1, id="rigidity-genus2-su2"),
        pytest.param(["cohomology", "cusped.json", "--audit"], 0, 2, id="audit-cusped"),
        pytest.param(["validate", "spherical-torus.json"], 0, 3, id="validate-spherical"),
        pytest.param(["rigidity", "spherical-torus.json"], 1, 3, id="rigidity-spherical"),
        pytest.param(["cohomology", "spherical-torus.json", "--audit"], 1, 5, id="audit-spherical"),
    ],
)
def test_cli_builds_few_representations(monkeypatch, capsys, argv, exit_code, most_representations):
    # Meridians are walked once, by the Fox pass, and give their images to
    # the +/- identity test; relators are checked on their walks.  A pair
    # holds its factors from when it is built, and the audit builds one
    # representation per factor and boundary component.
    command, name, *extra = argv
    argv = [command, str(fixture_path(name)), *extra]
    assert cli_representations(monkeypatch, capsys, argv, exit_code) <= most_representations
