"""The oracle's decay suite samples each grid once and matches a loop over
the public decay functions exactly, and the radial commands print no numpy
warning."""
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conerig import cli, radial
from conerig.errors import DomainError
from conerig.radial import MAX_QUAD_SAMPLES, t_b0, t_b0_bound, t_b1, t_b1_bound


def count_trig_sweeps(monkeypatch) -> dict:
    """Counts of np.cos and np.sin calls from here on."""
    calls = {"cos": 0, "sin": 0}
    for name in calls:
        original = getattr(np, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls


def test_decay_suite_takes_one_cos_and_one_sin_per_grid(monkeypatch):
    # 25 inputs, each sampled once on [0, r] (t_b0 and its bound) and once on
    # [r, 1] (t_b1), and the [0, 1] grid of t_b1_bound once for all: 51 sweeps
    # of each, where one sampling per decay function took 100
    calls = count_trig_sweeps(monkeypatch)
    report = cli._decay_suite(25, 4096)
    assert report["pass"] is True
    assert calls["cos"] <= 51 and calls["sin"] <= 51, calls


def trig_input(coef):
    """The suite's input g(x) as a callable, from one cos and one sin of x."""
    poly = cli._trig_polynomial(coef)
    return lambda x: poly(*radial._cos_sin(x))


def reference_decay_suite(samples: int, n: int, seed: int = 7) -> dict:
    """The decay suite as a loop over the public decay functions, each
    sampling its own grid of a `trig_input` callable."""
    rng = np.random.default_rng(seed)
    budget = 1e-6
    min_slack0 = math.inf
    min_slack1 = math.inf
    for _ in range(samples):
        g = trig_input((rng.standard_normal(6) / np.arange(1.0, 7.0)).tolist())
        b0 = float(rng.uniform(-0.45, 4.0))
        b1 = float(rng.uniform(-4.0, 4.0))
        r = float(rng.uniform(0.05, 0.95))
        min_slack0 = min(min_slack0, t_b0_bound(g, b0, r, n) - abs(t_b0(g, b0, r, n)))
        min_slack1 = min(min_slack1, t_b1_bound(g, b1, r, n) - abs(t_b1(g, b1, r, n)))
    return {
        "samples": samples,
        "quadrature_budget": budget,
        "min_slack_t_b0": min_slack0,
        "min_slack_t_b1": min_slack1,
        "pass": min_slack0 >= -budget and min_slack1 >= -budget,
    }


@pytest.mark.parametrize("n", [1, 64, 4096, 16384])
@pytest.mark.parametrize("samples", [1, 2, 25, 200])
def test_decay_suite_matches_the_public_functions_exactly(samples, n):
    for seed in (7, 0, 1):
        assert cli._decay_suite(samples, n, seed) == reference_decay_suite(samples, n, seed)


def test_quadrature_cap_refused_before_any_sweep(monkeypatch, capsys):
    calls = count_trig_sweeps(monkeypatch)
    argv = ["oracle", "--quad-samples", str(MAX_QUAD_SAMPLES + 1)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: quadrature takes at least 1 and at most {MAX_QUAD_SAMPLES} samples, "
        f"got {MAX_QUAD_SAMPLES + 1}\n"
    )
    assert calls == {"cos": 0, "sin": 0}


def first_public_refusal(g, b0, b1, r, n):
    """The name and the DomainError text of the first public decay function
    that refuses, in the suite's order: t_b0_bound, t_b0, t_b1_bound, t_b1."""
    for f, b in ((t_b0_bound, b0), (t_b0, b0), (t_b1_bound, b1), (t_b1, b1)):
        try:
            f(g, b, r, n)
        except DomainError as exc:
            return f.__name__, str(exc)
    return None


@pytest.mark.parametrize(
    "h, b0, b1, r, name",
    [
        # g^2 overflows on [0, r]
        (lambda c, s: np.full_like(c, 1e300), 1.0, 0.0, 0.5, "t_b0_bound"),
        # g overflows on (1/2, 1) only: g^2 in the bound, the slope of g in t_b1
        (lambda c, s: np.where(s < 0.0, 1e307, 1.0), 1.0, 0.0, 0.4, "t_b1_bound"),
        # r^-b overflows in the bound
        (lambda c, s: np.ones_like(c), 1.0, 1100.0, 0.5, "t_b1_bound"),
        # r^-b = 2^1023 fits, the weight's (b+1)-th power 2^1024 does not
        (lambda c, s: np.ones_like(c), 1.0, 1023.0, 0.5, "t_b1"),
    ],
)
def test_decay_suite_refuses_as_the_public_functions(h, b0, b1, r, name):
    n = 64
    g = lambda x: h(*radial._cos_sin(x))  # noqa: E731
    want = first_public_refusal(g, b0, b1, r, n)
    assert want is not None and want[0] == name
    if name == "t_b1_bound" and b1 == 0.0:  # both t_b1 quantities refuse
        with pytest.raises(DomainError, match=f"^t_b1 at b = {b1!r}, r = {r!r} is not finite"):
            t_b1(g, b1, r, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as got:
            radial.min_decay_slacks([(h, b0, b1, r)], n)
    assert str(got.value) == want[1]


# ---------------------------------------------------------------------------
# radial commands under warnings-as-errors

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
SNAPSHOT_CASES = sorted(k for k in GOLDEN if k.split()[0] in ("oracle", "forms"))
LADDER = [(256, -1), (256, 0), (256, 1), (512, -1), (512, 0), (512, 1), (1024, 0)]
BENCHMARK_CASES = [
    ["oracle", "--grid", str(n), "--kappa", str(k), "--samples", "1",
     "--b", "0", "--b", "1", "--b", "2", "--b", "4", "--b", "8"]
    for n, k in LADDER
] + [["oracle", "--grid", "256", "--kappa", "0", "--samples", "25", "--b", "1"]] + [
    # the corners of the benchmark's cone angle, length and radius ranges
    ["forms", "--profile", profile, "--kappa", str(kappa),
     "--alpha", repr(alpha), "--length", repr(length), "--eps", repr(eps)]
    for profile in ("ang", "shr", "tws", "len")
    for kappa in (-1, 0, 1)
    for alpha, length, eps in ((0.3, 0.5, 0.25), (math.pi, 2.0, 1.0))
]


def run_with_warnings_as_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [case.split() for case in SNAPSHOT_CASES] + BENCHMARK_CASES,
                         ids=lambda argv: " ".join(argv))
def test_radial_commands_print_no_warning(argv):
    code, out, err = run_with_warnings_as_errors(argv)
    assert (code, err) == (0, "")
    assert json.loads(out)
