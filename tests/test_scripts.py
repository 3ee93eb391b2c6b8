"""Smoke runs of the example scripts and a check of the public name list."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import regsubmax as rs

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_vertex_cover.py", ["--n", "40", "--ks", "2,3", "--out", "{tmp}/cover.csv"]),
    ("run_mode_finding.py", ["--n", "6", "--k", "2", "--seed", "1"]),
])
def test_script_runs(tmp_path, script, args):
    # TMPDIR keeps the generated edge list of run_vertex_cover.py in tmp_path.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path) for a in args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_once():
    assert len(rs.__all__) == len(set(rs.__all__))
    for name in rs.__all__:
        assert hasattr(rs, name), name
    for gone in ("vertex_cover_value", "facility_location_value", "logdet_value",
                 "saturating_coverage_value", "slc_log_density", "reservoir_update",
                 "ThresholdParams"):
        assert gone not in rs.__all__
        assert not hasattr(rs, gone)
