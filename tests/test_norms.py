"""Dyadic annulus suprema and the decay-rate fits made from them."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conic_lmcf
from conic_lmcf import ValidationError, decay_rate, dyadic_annulus_suprema


def test_dyadic_annuli_geometry():
    r = np.geomspace(1e-4, 1.0, 5000)
    centers, sups = dyadic_annulus_suprema(r, r**2, 1e-3, 1.0)
    assert np.all(np.diff(centers) > 0)
    # annulus supremum of r^2 on [c/sqrt2, c*sqrt2] is (upper edge)^2
    for c, s in zip(centers, sups):
        assert s <= (c * np.sqrt(2.0)) ** 2 * 1.01
        assert s >= (c / np.sqrt(2.0)) ** 2 * 0.99


def test_decay_rate_exact_power():
    r = np.geomspace(1e-4, 1.0, 5000)
    centers, sups = dyadic_annulus_suprema(r, r**2.5, 1e-3, 1.0)
    rate, err = decay_rate(centers, sups)
    assert abs(rate - 2.5) < 1e-3
    assert err < 1e-3


def test_decay_rate_mixture_inner_window():
    # on r <= 1/8 the r^2.5 part dominates the fit of r^2.5 + r^4
    r = np.geomspace(1e-4, 1.0, 8000)
    u = r**2.5 + r**4
    centers, sups = dyadic_annulus_suprema(r, u, r.min(), 1.0 / 8.0)
    rate, _ = decay_rate(centers, sups)
    assert abs(rate - 2.5) < 0.05


def test_decay_rate_quadratic():
    r = np.geomspace(1e-4, 1.0, 5000)
    centers, sups = dyadic_annulus_suprema(r, 3.0 * r**2, 1e-3, 1.0)
    rate, _ = decay_rate(centers, sups)
    assert abs(rate - 2.0) < 1e-3


def test_decay_rate_scale_invariance():
    r = np.geomspace(1e-4, 1.0, 5000)
    centers, sups = dyadic_annulus_suprema(r, r**1.5, 1e-3, 1.0)
    rate1, _ = decay_rate(centers, sups)
    rate2, _ = decay_rate(centers, 7.3 * sups)
    assert abs(rate1 - rate2) < 1e-12


def test_decay_rate_needs_five_annuli():
    centers = np.array([0.1, 0.2, 0.4, 0.8])
    sups = centers**2
    with pytest.raises(ValidationError, match="need at least 5 annuli, got 4"):
        decay_rate(centers, sups)
    with pytest.raises(ValidationError, match="finite and positive"):
        decay_rate(np.array([0.1] * 5), np.zeros(5))


def test_annuli_skip_empty_shells():
    # sparse sampling leaves some shells empty; they are skipped, not zeroed
    r = np.array([1e-4, 2e-4, 0.3, 0.5, 0.9])
    centers, sups = dyadic_annulus_suprema(r, np.ones_like(r), 1e-4, 1.0)
    assert np.all(sups > 0)
    assert len(centers) < 14


# Calls dyadic_annulus_suprema on each (r_lo, r_hi) in a child, so that a
# range whose halving never ends fails the test on the timeout instead of
# hanging the suite; prints the exception each call raised.
ANNULI_PROBE = """
import json, sys
import numpy as np
from conic_lmcf import dyadic_annulus_suprema
out = []
for r_lo, r_hi in json.loads(sys.argv[1]):
    try:
        dyadic_annulus_suprema(np.geomspace(1e-4, 1.0, 50), np.ones(50), r_lo, r_hi)
        out.append(None)
    except Exception as exc:
        out.append([type(exc).__name__, str(exc)])
print(json.dumps(out))
"""


def test_annuli_refuse_a_range_whose_halving_never_ends():
    # r_lo <= 0 halved r_hi towards 0 forever, and r_hi = inf stayed inf
    cases = [(-1.0, 1.0), (0.0, 1.0), (1e-3, math.inf), (1e-3, math.nan), (math.nan, 1.0)]
    src = str(Path(conic_lmcf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", ANNULI_PROBE, json.dumps(cases)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    for (r_lo, r_hi), raised in zip(cases, json.loads(proc.stdout)):
        assert raised is not None and raised[0] == "ValidationError", (r_lo, r_hi, raised)
        assert "0 < r_lo and a finite r_hi" in raised[1]


@pytest.mark.parametrize("centers, sups", [
    ([0.1, 0.2, 0.4, 0.8, 1.6], [0.01, math.nan, 0.16, 0.64, 2.56]),   # returned (nan, nan)
    ([0.1, 0.2, 0.4, 0.8, 1.6], [0.01, 0.04, math.inf, 0.64, 2.56]),
    ([0.1, 0.2, math.inf, 0.8, 1.6], [0.01, 0.04, 0.16, 0.64, 2.56]),
    ([0.5] * 5, [0.25] * 5),                                           # returned (0.0, inf)
    ([0.0, 0.2, 0.4, 0.8, 1.6], [0.01, 0.04, 0.16, 0.64, 2.56]),      # np.log warned
    ([-0.1, 0.2, 0.4, 0.8, 1.6], [0.01, 0.04, 0.16, 0.64, 2.56]),
])
def test_decay_rate_refuses_degenerate_data(centers, sups):
    with pytest.raises(ValidationError, match="to fit a rate"):
        decay_rate(np.array(centers), np.array(sups))
