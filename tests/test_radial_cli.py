"""The oracle's decay suite takes one cos and one sin per grid, and the
radial commands print no numpy warning."""
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conerig import cli


def test_decay_suite_takes_one_cos_and_one_sin_per_grid(monkeypatch):
    # 25 inputs, each sampled on 4 grids (t_b0, t_b1 and their bounds):
    # 100 sweeps of each, where six-trig inputs took 300
    calls = {"cos": 0, "sin": 0}
    for name in calls:
        original = getattr(np, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    report = cli._decay_suite(25, 4096)
    assert report["pass"] is True
    assert calls["cos"] <= 100 and calls["sin"] <= 100, calls


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
