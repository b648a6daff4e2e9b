"""Smoke runs of the experiment scripts under scripts/, in-process through
each script's main(argv) with tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

from specrad import limit_laws, stats
from specrad.limit_laws import GUMBEL, SPHERICAL_H, ProductLaw
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family, spec, law", [
    ("spherical", Spherical(20), SPHERICAL_H),
    ("truncated", TruncatedUnitary(20, 10), GUMBEL),
    ("product-k1", GinibreProduct(20, 1), GUMBEL),
])
def test_convergence_study_row(capsys, family, spec, law):
    argv = ["--family", family, "--n-list", "20", "--reps", "200", "--seed", "3",
            "--grid-points", "50"]
    assert _script("convergence_study").main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "family,n,exact_gap,mc_ks,critical_005"
    name, n, gap, mc_ks, critical = row.split(",")
    assert (name, n) == (family, "20")
    want = stats._exact_limit_gap(spec, law, stats.mass_span_grid(law, points=50))
    assert gap == f"{want:.6f}"
    assert 0.0 < float(mc_ks) < 1.0
    assert critical == f"{1.358 / 200 ** 0.5:.6f}"


@pytest.mark.parametrize("argv, law", [
    (["--law", "spherical-h"], SPHERICAL_H),
    (["--law", "product-alpha", "--alpha", "2"], ProductLaw(alpha=2.0)),
])
def test_tail_asymptote_check_rows(capsys, argv, law):
    assert _script("tail_asymptote_check").main(argv + ["--points", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "x,tail,asymptote,ratio"
    assert len(rows) == 3
    for row in rows:
        x, tail, asym, ratio = (float(v) for v in row.split(","))
        assert tail == pytest.approx(limit_laws.upper_tail(law, x), rel=1e-8)
        assert ratio == pytest.approx(tail / asym, rel=1e-8)
