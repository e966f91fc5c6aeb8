#!/usr/bin/env python3
"""Generate the bundled example manifests under src/conerig/fixtures/.

Deterministic: fixed seeds, roots polished to ~1e-14 and frozen at 17
significant digits.  Run from the repository root:

    python tools/make_fixtures.py
"""
from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conerig.cohomology import dimension_audit, h1_basis, rigidity_test  # noqa: E402
from conerig.manifest import _image_payload, load_manifest, manifest_from_dict, write_report  # noqa: E402
from conerig.words import relator_residual  # noqa: E402
from conerig.liecore import SL2C, SU2, SU2XSU2, _norm_rule, _su2_matrix, su2_quaternion  # noqa: E402

FIXTURES = ROOT / "src" / "conerig" / "fixtures"


def diag(z: complex) -> np.ndarray:
    return np.array([[z, 0.0], [0.0, 1.0 / z]], dtype=complex)


def su2_diag(z: complex) -> np.ndarray:
    return np.array([[z, 0.0], [0.0, z.conjugate()]], dtype=complex)


# ---------------------------------------------------------------------------
# torus fixtures


def make_torus() -> dict:
    alpha = math.pi / 2.0
    eta = cmath.exp(0.3 + 0.7j)
    xi = cmath.exp(1j * alpha / 2.0)
    return {
        "schema": 1,
        "curvature": -1,
        "group": "SL2C",
        "generators": ["a", "b"],
        "relators": ["abAB"],
        "meridians": [{"word": "b", "edge_id": 0, "cone_angle": alpha}],
        "holonomy": {"a": _image_payload(diag(eta), SL2C), "b": _image_payload(diag(xi), SL2C)},
        "boundary": [{"genus": 1, "generator_words": ["a", "b"]}],
        "singular_graph": {"edges": [{"id": 0, "angle": alpha}], "vertices": []},
    }


def make_spherical_torus(coaxial_equal: bool) -> dict:
    alpha = math.pi / 2.0
    xi = cmath.exp(1j * alpha / 2.0)
    if coaxial_equal:
        eta1 = eta2 = cmath.exp(0.65j)
    else:
        eta1, eta2 = cmath.exp(0.4j), cmath.exp(0.9j)
    left_a, right_a, mer = (_norm_rule(su2_quaternion(su2_diag(z))) for z in (eta1, eta2, xi))
    return {
        "schema": 1,
        "curvature": 1,
        "group": "SU2xSU2",
        "generators": ["a", "b"],
        "relators": ["abAB"],
        "meridians": [{"word": "b", "edge_id": 0, "cone_angle": alpha}],
        "holonomy": {
            "a": _image_payload(np.array([left_a, right_a]), SU2XSU2),
            "b": _image_payload(np.array([mer, mer]), SU2XSU2),
        },
        "boundary": [{"genus": 1, "generator_words": ["a", "b"]}],
        "singular_graph": {"edges": [{"id": 0, "angle": alpha}], "vertices": []},
    }


# ---------------------------------------------------------------------------
# pair of pants


def rotation_angle(m: np.ndarray) -> float:
    t = complex(np.trace(m)).real
    return 2.0 * math.acos(max(-1.0, min(1.0, t / 2.0)))


def make_pants(conjugated: bool) -> dict:
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    m1 = diag(cmath.exp(1j * math.pi / 4.0))
    m2 = np.array([[c, 1j * s], [1j * s, c]], dtype=complex)
    m3 = np.linalg.inv(m1 @ m2)
    if conjugated:
        g = np.array([[1.2, 0.3 - 0.4j], [0.1j, (1.0 + 0.03j - 0.4j * 0.1j + 0.3 * 0.1j) ]], dtype=complex)
        # fix determinant to 1 exactly enough, then renormalize
        g[1, 1] = (1.0 + g[0, 1] * g[1, 0]) / g[0, 0]
        m1, m2, m3 = (g @ m @ np.linalg.inv(g) for m in (m1, m2, m3))
    angles = [rotation_angle(m) for m in (m1, m2, m3)]
    return {
        "schema": 1,
        "curvature": -1,
        "group": "SL2C",
        "generators": ["a", "b", "c"],
        "relators": ["abc"],
        "meridians": [
            {"word": "a", "edge_id": 0, "cone_angle": angles[0]},
            {"word": "b", "edge_id": 1, "cone_angle": angles[1]},
            {"word": "c", "edge_id": 2, "cone_angle": angles[2]},
        ],
        "holonomy": {g: _image_payload(m, SL2C) for g, m in zip("abc", (m1, m2, m3))},
        "singular_graph": {
            "edges": [{"id": k, "angle": angles[k]} for k in range(3)],
            "vertices": [{"incident": [0, 1, 2]}],
        },
    }


# ---------------------------------------------------------------------------
# genus-2 surface group with irreducible SU(2) image


def make_genus2() -> dict:
    from scipy.optimize import least_squares

    rng = np.random.default_rng(20240613)

    def rand_unit():
        q = rng.standard_normal(4)
        return q / np.linalg.norm(q)

    a1, b1 = rand_unit(), rand_unit()
    m_a1, m_b1 = _su2_matrix(a1), _su2_matrix(b1)
    comm1 = m_a1 @ m_b1 @ np.linalg.inv(m_a1) @ np.linalg.inv(m_b1)
    target = np.linalg.inv(comm1)

    def residual(x):
        p = x[:4] / np.linalg.norm(x[:4])
        q = x[4:] / np.linalg.norm(x[4:])
        ma, mb = _su2_matrix(p), _su2_matrix(q)
        d = ma @ mb @ np.linalg.inv(ma) @ np.linalg.inv(mb) - target
        return np.concatenate([d.real.ravel(), d.imag.ravel()])

    sol = None
    for _ in range(50):
        x0 = rng.standard_normal(8)
        res = least_squares(residual, x0, xtol=3e-16, ftol=3e-16, gtol=3e-16)
        if np.linalg.norm(residual(res.x)) < 1e-12:
            sol = res.x
            break
    assert sol is not None, "no solution of the commutator equation found"
    a2 = sol[:4] / np.linalg.norm(sol[:4])
    b2 = sol[4:] / np.linalg.norm(sol[4:])
    return {
        "schema": 1,
        "curvature": 1,
        "group": "SU2",
        "generators": ["a", "b", "c", "d"],
        "relators": ["abABcdCD"],
        "meridians": [],
        "holonomy": {g: _image_payload(q, SU2) for g, q in zip("abcd", (a1, b1, a2, b2))},
    }


# ---------------------------------------------------------------------------
# one-cusped two-bridge example at an elliptic meridian


def inv_word(w: str) -> str:
    return "".join(ch.swapcase() for ch in reversed(w))


def two_bridge_word(p: int, q: int) -> str:
    """Standard 2-bridge word w with relator a w = w b for the knot b(p, q)."""
    letters = []
    for i in range(1, p):
        ch = "b" if i % 2 == 1 else "a"
        letters.append(ch if (-1) ** ((q * i) // p) > 0 else ch.upper())
    return "".join(letters)


def two_bridge_relator(w: str) -> str:
    return "a" + w + "B" + inv_word(w)


def two_bridge_longitude(w: str) -> str:
    """w * reversed(w) commutes with the meridian a; the a-power correction
    kills the total exponent sum."""
    exps = {"a": 1, "b": 1, "A": -1, "B": -1}
    e = sum(exps[ch] for ch in w)
    tail = "A" * (2 * e) if e > 0 else "a" * (-2 * e)
    return w + w[::-1] + tail


def riley_matrices(m: complex, u: complex) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([[m, 1.0], [0.0, 1.0 / m]], dtype=complex)
    b = np.array([[m, 0.0], [u, 1.0 / m]], dtype=complex)
    return a, b


def eval_word(word: str, images: dict) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for ch in word:
        out = out @ images[ch]
    return out


def relator_defect(relator: str, m: complex, u: complex) -> np.ndarray:
    a, b = riley_matrices(m, u)
    images = {"a": a, "b": b, "A": np.linalg.inv(a), "B": np.linalg.inv(b)}
    return eval_word(relator, images) - np.eye(2)


def solve_riley(relator: str, m: complex) -> list[complex]:
    """Roots u of the relator equation, found entrywise and polished."""
    samples = np.exp(2j * math.pi * np.arange(21) / 21.0) * 1.6
    vals = np.array([relator_defect(relator, m, u)[0, 1] for u in samples])
    coeffs = np.polyfit(samples, vals, 10)
    roots = [r for r in np.roots(coeffs) if abs(r) > 1e-8]
    polished = []
    for u in roots:
        for _ in range(60):
            f = relator_defect(relator, m, u)
            fn = np.linalg.norm(f)
            if fn < 1e-14:
                break
            h = 1e-7
            d = (relator_defect(relator, m, u + h) - relator_defect(relator, m, u - h)) / (2 * h)
            grad = np.vdot(d.ravel(), f.ravel())
            if abs(grad) < 1e-18:
                break
            u = u - (fn**2 / grad).conjugate() * 0.9
        if np.linalg.norm(relator_defect(relator, m, u)) < 1e-12:
            if not any(abs(u - v) < 1e-8 for v in polished):
                polished.append(u)
    return polished


def make_cusped() -> dict:
    # 5_2 = b(7, 3); the figure-eight knot is already at its Euclidean
    # transition angle at 2*pi/3, so it cannot serve as a rigid example here.
    w = two_bridge_word(7, 3)
    relator = two_bridge_relator(w)
    longitude = two_bridge_longitude(w)
    # sanity: the parabolic representation satisfies the relator
    parabolic_roots = solve_riley(relator, 1.0 + 0j)
    assert parabolic_roots, "relator convention broken"

    alpha = 2.0 * math.pi / 3.0
    m = cmath.exp(1j * alpha / 2.0)
    candidates = solve_riley(relator, m)
    assert candidates, "no representation found"
    chosen = None
    for u in sorted(candidates, key=lambda z: -abs(z.imag)):
        a, b = riley_matrices(m, u)
        images = {"a": a, "b": b, "A": np.linalg.inv(a), "B": np.linalg.inv(b)}
        lon = eval_word(longitude, images)
        if np.linalg.norm(lon @ a - a @ lon) > 1e-9:
            continue
        if min(np.linalg.norm(lon - np.eye(2)), np.linalg.norm(lon + np.eye(2))) < 1e-8:
            continue
        doc = _cusped_doc(alpha, a, b, relator, longitude)
        man = manifest_from_dict(doc)
        if relator_residual(man.representation, man.presentation) > 1e-10:
            continue
        rep = h1_basis(man.representation, man.presentation)
        if rep.dim_H1_complex != 1:
            continue
        rig = rigidity_test(man.representation, man.presentation)
        audit = dimension_audit(man.representation, man.presentation, man.boundary)
        if rig.verdict == "LocallyRigid" and audit.all_hold:
            chosen = doc
            break
    assert chosen is not None, "no candidate passed the diagnostics"
    return chosen


def _cusped_doc(alpha, a, b, relator, longitude) -> dict:
    return {
        "schema": 1,
        "curvature": -1,
        "group": "SL2C",
        "generators": ["a", "b"],
        "relators": [relator],
        "meridians": [{"word": "a", "edge_id": 0, "cone_angle": alpha}],
        "holonomy": {"a": _image_payload(a, SL2C), "b": _image_payload(b, SL2C)},
        "boundary": [{"genus": 1, "generator_words": [longitude, "a"]}],
        "singular_graph": {"edges": [{"id": 0, "angle": alpha}], "vertices": []},
    }


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    fixtures = {
        "torus.json": make_torus(),
        "spherical-torus.json": make_spherical_torus(coaxial_equal=False),
        "abelian-torus.json": make_spherical_torus(coaxial_equal=True),
        "pants.json": make_pants(conjugated=False),
        "pants-conjugated.json": make_pants(conjugated=True),
        "genus2-su2.json": make_genus2(),
        "cusped.json": make_cusped(),
    }
    for name, doc in fixtures.items():
        path = FIXTURES / name
        write_report(doc, path)
        man = load_manifest(path)
        res = relator_residual(man.representation, man.presentation)
        print(f"{name}: residual {res:.3e}, warnings {list(man.warnings)}")
        assert res < 1e-8, name


if __name__ == "__main__":
    main()
