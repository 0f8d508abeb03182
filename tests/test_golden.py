"""Behaviour lock: `curvatura compute` outputs of six reference configs,
pinned in golden_compute.json.

Each config pins M_r at one level for r = -1..n-1 and the comparison
breakdown over two levels for r = 0..n-1, at low orders so the whole file
runs in seconds.  Every float of a record is compared with relative
tolerance 1e-9 against the record's scale (its largest magnitude), so a
residual or a zero term is measured against the numbers it derives from;
node counts must match exactly.  A reordered sum passes, changed maths does
not.

The data file records the commit it was generated on.  To regenerate it
(only when a change of results is intended and checked):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from curvatura.cli import main

DATA = Path(__file__).with_name("golden_compute.json")
REL_TOL = 1e-9
LEVEL = 0.8
LEVELS = [0.5, 1.0]

CONFIGS = {
    "euclidean3-quadratic": ({"family": "euclidean", "dim": 3},
                             {"field": "quadratic",
                              "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 4.0]]}, 8),
    "euclidean3-radial_sq": ({"family": "euclidean", "dim": 3}, {"field": "radial_sq"}, 8),
    "constant3-radial": ({"family": "constant", "a": -1.0, "dim": 3}, {"field": "radial"}, 8),
    "constant3-offcenter": ({"family": "constant", "a": -1.0, "dim": 3},
                            {"field": "offcenter", "offset": 0.3}, 8),
    "poly3-3-radial": ({"family": "warped", "profile": "poly3", "dim": 3},
                       {"field": "radial"}, 8),
    "constant4-radial": ({"family": "constant", "a": -1.0, "dim": 4}, {"field": "radial"}, 6),
}


def compute(name, workdir: Path) -> dict:
    """Records of `compute` for one config: mean curvatures, then breakdowns."""
    manifold, field, order = CONFIGS[name]
    n = manifold["dim"]
    base = {"schema_version": 1, "manifold": manifold, "field": field,
            "quadrature": {"angular_order": order, "level_order": 4}}
    out = {}
    for key, extra, fname in (
            ("mean_curvature", {"level": LEVEL, "r": list(range(-1, n))}, "mean_curvature.json"),
            ("comparison", {"levels": LEVELS, "r": list(range(n))}, "comparison.json")):
        cfg_path = workdir / f"{name}-{key}.json"
        cfg_path.write_text(json.dumps({**base, **extra}))
        out_dir = workdir / f"{name}-{key}"
        assert main(["compute", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        out[key] = json.loads((out_dir / fname).read_text())
    return out


def assert_record_close(got: dict, want: dict, where: str):
    assert got.keys() == want.keys(), where
    floats = [v for v in want.values() if isinstance(v, float)]
    scale = max([abs(v) for v in floats] + [1e-300])
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float):
            assert abs(g - w) <= REL_TOL * scale, \
                f"{where}.{key}: {g!r} vs {w!r} (scale {scale:.3e})"
        else:
            assert g == w, f"{where}.{key}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_file_covers_every_config(golden):
    assert sorted(golden["configs"]) == sorted(CONFIGS)
    assert len(golden["generated_at_commit"]) == 40


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_compute_matches_golden(name, golden, tmp_path, capsys):
    got = compute(name, tmp_path)
    want = golden["configs"][name]
    for key in ("mean_curvature", "comparison"):
        assert len(got[key]) == len(want[key])
        for g, w in zip(got[key], want[key]):
            assert_record_close(g, w, f"{name}.{key}[r={w['r']}]")


def write_golden(workdir: Path) -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=DATA.parent, check=True,
                            capture_output=True, text=True).stdout.strip()
    configs = {name: compute(name, workdir) for name in sorted(CONFIGS)}
    DATA.write_text(json.dumps({"generated_at_commit": commit, "configs": configs},
                               indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
    sys.exit(0)
