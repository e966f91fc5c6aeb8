import cmath
import math

import numpy as np
import pytest

from conerig.errors import DomainError, InvalidRepresentation, UnknownGenerator
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    _det_rule,
    exp_raw,
    identity_distance,
    sigma_fields,
)
from conerig.words import (
    Presentation,
    Representation,
    deform,
    evaluate,
    fox_jacobian,
    free_reduce,
    parse_word,
    prefix_walk,
    relator_residual,
)

from cocycle_reference import ad_action, coboundary, dist, extend_cocycle, mul

GENS = ("a", "b")


def torus_rep(eta=cmath.exp(0.3 + 0.7j), xi=cmath.exp(1j * math.pi / 4)):
    return Representation(SL2C, np.array([_det_rule(np.diag([x, 1 / x])) for x in (eta, xi)]))


def torus_pres():
    return Presentation.from_strings(["a", "b"], ["abAB"], [("b", 0, math.pi / 2)])


def random_coords(group, rng, count=1):
    """Field coordinates of `count` algebra vectors with standard normal real
    (and, over C, imaginary) parts."""
    if group == "SL2C":
        xs = rng.standard_normal(6 * count)
        return xs[0::2] + 1j * xs[1::2]
    return rng.standard_normal(3 * count)


def random_rep(group, n, rng):
    if group == "SU2xSU2":
        left, right = random_rep("SU2", n, rng), random_rep("SU2", n, rng)
        return Representation(group, np.stack([left.raw, right.raw], axis=1))
    real_dim = 6 if group == "SL2C" else 3
    images = [exp_raw(group, random_coords(group, rng) / real_dim) for _ in range(n)]
    return Representation(group, np.array(images))


class TestParseWord:
    def test_commutator(self):
        assert parse_word("abAB", GENS) == ((0, 1), (1, 1), (0, -1), (1, -1))

    def test_empty_is_identity(self):
        assert parse_word("", GENS) == ()

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator) as exc:
            parse_word("axB", GENS)
        assert exc.value.char == "x"
        assert exc.value.position == 1

    def test_free_reduce(self):
        w = parse_word("abBAab", GENS)
        assert free_reduce(w) == parse_word("ab", GENS)


class TestPresentation:
    def test_duplicate_generator_rejected(self):
        with pytest.raises(DomainError):
            Presentation.from_strings(["a", "a"], [])

    def test_uppercase_generator_rejected(self):
        with pytest.raises(DomainError):
            Presentation.from_strings(["A"], [])

    def test_meridian_angle_range(self):
        with pytest.raises(DomainError):
            Presentation.from_strings(["a"], [], [("a", 0, 7.0)])


class TestRepresentationStack:
    """A representation holds one read-only stack of the shape and dtype of
    its group, with finite entries."""

    @pytest.mark.parametrize(
        "group, raw",
        [
            ("SL2C", np.zeros((2, 4), dtype=complex)),  # quaternions
            ("SL2C", np.eye(2)[None]),  # a real matrix
            ("SL2C", np.eye(2, dtype=complex)),  # one matrix, not a stack
            ("SU2", np.zeros((2, 2, 2), dtype=complex)),
            ("SU2", np.zeros((2, 4), dtype=complex)),
            ("SU2xSU2", np.zeros((2, 4))),
            ("SU2xSU2", np.zeros((2, 3, 4))),
            ("SO3", np.zeros((2, 4))),
        ],
    )
    def test_refuses_a_stack_of_the_wrong_shape_or_dtype(self, group, raw):
        with pytest.raises(DomainError, match="stack of"):
            Representation(group, raw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("group", ["SL2C", "SU2", "SU2xSU2"])
    def test_refuses_a_non_finite_stack(self, group, bad):
        raw = torus_rep().raw if group == "SL2C" else np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
        raw = np.array(raw if group != "SU2xSU2" else np.stack([raw, raw], axis=1))
        raw[(1,) * raw.ndim] = bad
        with pytest.raises(DomainError, match="finite"):
            Representation(group, raw)

    def test_holds_a_frozen_copy_of_the_callers_stack(self):
        raw = np.array(torus_rep().raw)
        rho = Representation("SL2C", raw)
        raw[0, 0, 0] = 5.0
        assert rho.raw[0, 0, 0] != 5.0
        assert not rho.raw.flags.writeable and not rho.raw_inverses.flags.writeable


class TestEvaluate:
    def test_commutator_at_torus_rep(self):
        rho = torus_rep()
        pres = torus_pres()
        assert identity_distance(SL2C, evaluate(rho, pres.relators[0])) < 1e-12

    def test_inverse_word(self):
        rng = np.random.default_rng(1)
        rho = random_rep("SL2C", 2, rng)
        w = parse_word("abaBAb", GENS)
        inverse = tuple((i, -e) for i, e in reversed(w))
        g = mul(SL2C, evaluate(rho, w), evaluate(rho, inverse))
        assert identity_distance(SL2C, g) < 1e-12

    def test_product_of_generators(self):
        rng = np.random.default_rng(2)
        rho = random_rep("SU2", 2, rng)
        g = evaluate(rho, parse_word("ab", GENS))
        assert dist(g, mul(SU2, rho.raw[0], rho.raw[1])) < 1e-14

    def test_homomorphism_on_concatenation(self):
        rng = np.random.default_rng(3)
        for group in ("SL2C", "SU2", "SU2xSU2"):
            rho = random_rep(group, 2, rng)
            u = parse_word("aBab", GENS)
            v = parse_word("bbA", GENS)
            assert dist(evaluate(rho, u + v), mul(group, evaluate(rho, u), evaluate(rho, v))) < 1e-12

    @pytest.mark.parametrize("group", [SL2C, SU2])
    def test_is_the_last_prefix_of_the_walk(self, group):
        rng = np.random.default_rng(11)
        rho = random_rep(group, 2, rng)
        for text in ("", "a", "aBab", "bbAAbaB"):
            w = parse_word(text, GENS)
            got, want = evaluate(rho, w), prefix_walk(rho, w)[-1]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_pair_is_the_stack_of_its_factor_walks(self):
        rng = np.random.default_rng(12)
        rho = random_rep(SU2XSU2, 2, rng)
        for text in ("", "a", "aBab", "bbAAbaB"):
            w = parse_word(text, GENS)
            want = np.array([prefix_walk(f, w)[-1] for f in rho.factors])
            got = evaluate(rho, w)
            assert got.shape == (2, 4) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_identity_word_is_read_only(self):
        g = evaluate(torus_rep(), ())
        assert np.array_equal(g, np.eye(2)) and not g.flags.writeable


class TestRelatorResidual:
    def test_valid_torus(self):
        assert relator_residual(torus_rep(), torus_pres()) < 1e-12

    def test_perturbed_torus(self):
        xi = cmath.exp(1j * math.pi / 4)
        b = mul(
            SL2C,
            _det_rule(np.diag([xi * (1 + 1e-3), 1 / (xi * (1 + 1e-3))])),
            exp_raw(SL2C, np.array([0, 1e-3, 0], dtype=complex)),
        )
        rho = Representation(SL2C, np.array([torus_rep().raw[0], b]))
        res = relator_residual(rho, torus_pres())
        assert 1e-5 < res < 1e-1

    def test_free_group_residual_zero(self):
        pres = Presentation.from_strings(["a", "b"], [])
        rng = np.random.default_rng(4)
        assert relator_residual(random_rep("SL2C", 2, rng), pres) == 0.0


class TestExtendCocycle:
    def test_coboundary_formula(self):
        rng = np.random.default_rng(5)
        for group in ("SL2C", "SU2"):
            rho = random_rep(group, 2, rng)
            v = random_coords(group, rng)
            z = coboundary(rho, v)
            for text in ("a", "ab", "aBBa", "bAbA"):
                w = parse_word(text, GENS)
                expected = v - ad_action(evaluate(rho, w), v)
                assert np.linalg.norm(extend_cocycle(rho, z, w) - expected) < 1e-12

    def test_identity_word(self):
        rng = np.random.default_rng(6)
        rho = random_rep("SU2", 2, rng)
        z = np.concatenate(np.eye(3)[:2])
        assert np.linalg.norm(extend_cocycle(rho, z, ())) == 0.0

    def test_torus_angle_cocycle_on_meridian(self):
        alpha = math.pi / 2
        rho = torus_rep()
        s_theta, _ = sigma_fields("SL2C")
        z = np.concatenate([np.zeros(3, dtype=complex), alpha * s_theta])
        got = extend_cocycle(rho, z, parse_word("b", GENS))
        assert np.allclose(got, [alpha / 2 * 1j, 0.0, 0.0])

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for group in ("SL2C", "SU2"):
            rho = random_rep(group, 2, rng)
            z = random_coords(group, rng, 2)
            u = parse_word("abA", GENS)
            v = parse_word("Bab", GENS)
            lhs = extend_cocycle(rho, z, u + v)
            rhs = extend_cocycle(rho, z, u) + ad_action(
                evaluate(rho, u), extend_cocycle(rho, z, v)
            )
            assert np.linalg.norm(lhs - rhs) < 1e-12


class TestRelatorJacobian:
    def test_torus_kernel_dimension(self):
        jac = fox_jacobian(torus_rep(), torus_pres())
        assert jac.shape == (3, 6)
        s = np.linalg.svd(jac, compute_uv=False)
        assert int((s > 1e-9 * s[0]).sum()) == 2  # kernel has complex dimension 4

    def test_free_group_empty(self):
        pres = Presentation.from_strings(["a", "b"], [])
        rng = np.random.default_rng(8)
        jac = fox_jacobian(random_rep("SU2", 2, rng), pres)
        assert jac.shape == (0, 6)

    def test_invalid_representation_rejected(self):
        pres = torus_pres()
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidRepresentation):
            fox_jacobian(random_rep("SL2C", 2, rng), pres)


class TestIntegrability:
    @pytest.mark.parametrize(
        "fixture_name", ["torus.json", "pants.json", "genus2-su2.json", "cusped.json"]
    )
    def test_first_order_deformations_are_second_order_flat(self, fixture_name):
        from conerig.cohomology import cocycle_space
        from conerig.manifest import fixture_path, load_manifest

        man = load_manifest(fixture_path(fixture_name))
        rho, pres = man.representation, man.presentation
        base = relator_residual(rho, pres)
        cocycles = cocycle_space(rho, pres)
        ts = (1e-2, 1e-3, 1e-4)
        for z in cocycles.T[:3]:
            residuals = [max(relator_residual(deform(rho, z, t), pres), base, 1e-300) for t in ts]
            for (t1, r1), (t2, r2) in zip(zip(ts, residuals), list(zip(ts, residuals))[1:]):
                if r2 < 1e-13:  # flat direction, already at rounding noise
                    continue
                slope = math.log(r1 / r2) / math.log(t1 / t2)
                assert slope > 1.9
