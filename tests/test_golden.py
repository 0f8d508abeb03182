"""Behaviour lock: `curvatura compute` outputs of six reference configs,
the two specialised comparison paths on the same configs, and the
`measured`, `expected` and `tolerance` columns of the four quick
verification suites, pinned in golden_compute.json.

Each config pins M_r at one level for r = -1..n-1 and the comparison
breakdown over two levels for r = 0..n-1, at low orders so the whole file
runs in seconds.  Library calls at the same orders and levels add the
`comparison_rhs_constant` breakdowns for r = 0..n-1 on the constant-family
configs and the `ricci_comparison` breakdown on every config.  Every float
of a record is compared with relative tolerance 1e-9 against the record's
scale (its largest magnitude), so a residual or a zero term is measured
against the numbers it derives from; node counts must match exactly.

The quick suites run at seed QUICK_SEED and are keyed by case_id.  A row's
measured value is compared with relative tolerance 1e-9 against the larger
of its magnitude and its expected value, except for roundoff residuals:
rows expecting 0 whose pinned value lies within ROUNDOFF_SHARE of their
tolerance may move anywhere inside that share.  A reordered sum passes,
changed maths does not.  A row's expected value and tolerance must match
exactly.

The data file records the commit its first records were generated on, and
the commit that last added records.  To add missing records (existing ones
stay as they are; delete the file to re-pin everything, only when a change
of results is intended and checked):

    PYTHONPATH=src python tests/test_golden.py

To list every pinned value that the current code moves outside the lock
(where, pinned value, new value, relative move), and every roundoff
residual that moved inside its band, marked "(roundoff band)", writing
nothing:

    PYTHONPATH=src python tests/test_golden.py --moved

A value moved on purpose is then re-pinned by hand in the data file.

The lock cannot see a change in the last bits.  To print one SHA-256 digest
over the full-precision repr of every value it covers (the compute records,
the path breakdowns and the quick-suite measured values), writing nothing:

    PYTHONPATH=src python tests/test_golden.py --fingerprint

Equal digests before and after a change mean every one of those values is
bit-identical.  To print one SHA-256 digest per seed (12345 and 424242) over
the bytes of the four CSVs that `verify --quick --threads 1` writes, exiting
1 unless `--threads 2` writes the same bytes (written to a temporary
directory only):

    PYTHONPATH=src python tests/test_golden.py --quick-csvs
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from curvatura import QuadratureSpec, comparison_rhs_constant, ricci_comparison
from curvatura.cli import _validate_field, _validate_manifold, main
from curvatura.verification import SUITE_NAMES, SuiteConfig, run_suite

DATA = Path(__file__).with_name("golden_compute.json")
REL_TOL = 1e-9
QUICK_SEED = 12345
QUICK_CSV_SEEDS = (12345, 424242)
ROUNDOFF_SHARE = 1e-2
# marks a --moved row that moved inside its ROUNDOFF_SHARE band
IN_BAND = " (roundoff band)"
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


def paths(name) -> dict:
    """Breakdowns of the two specialised comparison paths for one config, by
    direct library calls at compute's orders and levels, on the model and
    field that compute builds from the config."""
    manifold, field, order = CONFIGS[name]
    n = manifold["dim"]
    M = _validate_manifold(manifold)
    u = _validate_field(field, M)
    spec = QuadratureSpec(angular_orders=(order,), level_order=4)
    out = {"ricci": [ricci_comparison(u, M, tuple(LEVELS), spec).to_record()]}
    if M.family == "constant":
        out["constant"] = [comparison_rhs_constant(u, M, tuple(LEVELS), r, spec).to_record()
                           for r in range(n)]
    return out


def quick_suite(suite: str) -> dict:
    """measured, expected and tolerance of every case of a quick suite,
    keyed by case_id."""
    rep = run_suite(SuiteConfig(suite=suite, seed=QUICK_SEED, quick=True))
    return {c.case_id: {"measured": c.measured, "expected": c.expected,
                        "tolerance": c.tolerance} for c in rep.cases}


def record_moves(got: dict, want: dict, where: str):
    """(where.key, pinned, new, relative move) for every value of a record
    outside the lock; the move of a float is relative to the record's
    scale, other values must be equal (move None)."""
    floats = [v for v in want.values() if isinstance(v, float)]
    scale = max([abs(v) for v in floats] + [1e-300])
    for key in sorted(got.keys() | want.keys()):
        w, g = want.get(key), got.get(key)
        if isinstance(w, float) and isinstance(g, (int, float)):
            if not abs(g - w) <= REL_TOL * scale:
                yield f"{where}.{key}", w, g, abs(g - w) / scale
        elif g != w:
            yield f"{where}.{key}", w, g, None


def records_moves(got: dict, want: dict, where: str):
    """record_moves of every list of records of one config, matched in order."""
    for key in sorted(got.keys() | want.keys()):
        g, w = got.get(key, []), want.get(key, [])
        if len(g) != len(w):
            yield f"{where}.{key}", f"{len(w)} records", f"{len(g)} records", None
        for gr, wr in zip(g, w):
            yield from record_moves(gr, wr, f"{where}.{key}[r={wr['r']}]")


def suite_moves(got: dict, want: dict, band: bool = False):
    """(case_id, pinned, new, relative move) for every quick-suite row
    outside the lock, and every added or missing row (move None).  With
    band, also every row expecting 0 that moved past REL_TOL but stayed
    inside its ROUNDOFF_SHARE band, marked by IN_BAND after its case_id:
    the lock passes it, a re-pin should still list it."""
    for cid in sorted(got.keys() | want.keys()):
        if cid not in got or cid not in want:
            yield cid, want.get(cid), got.get(cid), None
            continue
        g, w = got[cid], want[cid]
        move = abs(g["measured"] - w["measured"])
        rel = move / max(abs(w["measured"]), abs(w["expected"]), 1e-300)
        strict = REL_TOL * max(abs(w["measured"]), abs(w["expected"]))
        if w["expected"] == 0.0 and abs(w["measured"]) <= ROUNDOFF_SHARE * w["tolerance"]:
            bound = ROUNDOFF_SHARE * w["tolerance"]
        else:
            bound = strict
        if not move <= bound:
            yield cid, w["measured"], g["measured"], rel
        elif band and not move <= strict:
            yield cid + IN_BAND, w["measured"], g["measured"], rel
        for key in ("expected", "tolerance"):
            if g[key] != w[key]:
                yield f"{cid}.{key}", w[key], g[key], None


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_file_covers_every_config(golden):
    assert sorted(golden["configs"]) == sorted(CONFIGS)
    assert len(golden["generated_at_commit"]) == 40
    assert len(golden.get("extended_at_commit", golden["generated_at_commit"])) == 40
    for name, (manifold, _, _) in CONFIGS.items():
        assert ("constant" in golden["configs"][name]) == (manifold["family"] == "constant")
        assert "ricci" in golden["configs"][name]
    assert golden["verify_quick"]["seed"] == QUICK_SEED
    assert sorted(golden["verify_quick"]["suites"]) == sorted(SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_compute_matches_golden(name, golden, tmp_path, capsys):
    want = {k: golden["configs"][name][k] for k in ("mean_curvature", "comparison")}
    moves = list(records_moves(compute(name, tmp_path), want, name))
    assert moves == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_paths_match_golden(name, golden):
    want = {k: v for k, v in golden["configs"][name].items() if k in ("constant", "ricci")}
    moves = list(records_moves(paths(name), want, name))
    assert moves == []


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_quick_suite_matches_golden(suite, golden):
    moves = list(suite_moves(quick_suite(suite), golden["verify_quick"]["suites"][suite]))
    assert moves == []


def test_moves_name_what_left_the_lock():
    want = {"a": {"measured": 2.0, "expected": 2.0, "tolerance": 1.9},
            "b": {"measured": 1e-16, "expected": 0.0, "tolerance": 1e-8},
            "c": {"measured": 1.0, "expected": 0.0, "tolerance": 1e-8}}
    got = {"a": {"measured": 2.0 + 1e-12, "expected": 2.0, "tolerance": 1.9},
           "b": {"measured": 5e-11, "expected": 0.0, "tolerance": 1e-8},
           "c": {"measured": float("nan"), "expected": 0.0, "tolerance": 1e-7},
           "d": {"measured": 0.0, "expected": 0.0, "tolerance": 1.0}}
    moves = list(suite_moves(got, want))
    assert [m[0] for m in moves] == ["c", "c.tolerance", "d"]
    got["a"]["measured"] = 2.0 + 1e-8
    assert list(suite_moves(got, want))[0] == ("a", 2.0, 2.0 + 1e-8, pytest.approx(5e-9))
    # b moved inside its roundoff band: the lock passes it, the listing names it
    assert [m[0] for m in suite_moves(got, want, band=True)] == [
        "a", "b (roundoff band)", "c", "c.tolerance", "d"]
    assert list(suite_moves(got, want, band=True))[1][1:] == (
        1e-16, 5e-11, pytest.approx(499999.0))
    rec = {"r": 1, "lhs": 4.0, "nodes": 8}
    assert list(record_moves(dict(rec, lhs=4.0 + 1e-9), rec, "x")) == []
    assert list(record_moves(dict(rec, lhs=4.0 + 1e-8, nodes=9), rec, "x")) == [
        ("x.lhs", 4.0, 4.0 + 1e-8, pytest.approx(2.5e-9)), ("x.nodes", 8, 9, None)]


def plain(v):
    """A numpy float as the Python float whose repr pastes into the data file."""
    return float(v) if isinstance(v, float) else v


def print_moves(workdir: Path) -> None:
    """Print every pinned value the current code moves outside the lock."""
    golden = json.loads(DATA.read_text())
    moves = []
    with contextlib.redirect_stdout(io.StringIO()):   # the CLI's own report
        for name in sorted(CONFIGS):
            moves += records_moves({**compute(name, workdir), **paths(name)},
                                   golden["configs"][name], name)
        for suite in SUITE_NAMES:
            moves += suite_moves(quick_suite(suite), golden["verify_quick"]["suites"][suite],
                                 band=True)
    for where, pinned, new, rel in moves:
        print(f"{where}\t{plain(pinned)!r}\t{plain(new)!r}\t"
              + ("-" if rel is None else f"{rel:.3e}"))
    banded = sum(where.endswith(IN_BAND) for where, *_ in moves)
    print(f"{len(moves) - banded} value(s) outside the lock, {banded} moved inside "
          f"a roundoff band", file=sys.stderr)


def fingerprint(workdir: Path) -> str:
    """SHA-256 over the repr of every value the lock covers, each named by
    where it sits: the compute and path records of every config, then the
    measured value of every quick-suite row."""
    digest = hashlib.sha256()
    with contextlib.redirect_stdout(io.StringIO()):   # the CLI's own report
        for name in sorted(CONFIGS):
            for key, records in sorted({**compute(name, workdir), **paths(name)}.items()):
                for k, rec in enumerate(records):
                    for field, v in sorted(rec.items()):
                        digest.update(f"{name}.{key}[{k}].{field}={plain(v)!r}\n".encode())
        for suite in SUITE_NAMES:
            for cid, row in sorted(quick_suite(suite).items()):
                digest.update(f"{cid}={plain(row['measured'])!r}\n".encode())
    return digest.hexdigest()


def quick_csv_digests(workdir: Path):
    """({seed: SHA-256 over the four suite CSVs of `verify --quick --threads
    1`}, whether `--threads 2` wrote the same bytes at every seed)."""
    digests, same = {}, True
    with contextlib.redirect_stdout(io.StringIO()), mock.patch.dict(os.environ):
        os.environ.pop("CURVATURA_SEED", None)     # the config's seed decides
        for seed in QUICK_CSV_SEEDS:
            cfg = workdir / f"verify-{seed}.json"
            cfg.write_text(json.dumps({"schema_version": 1, "seed": seed, "suites": "all"}))
            written = []
            for threads in ("1", "2"):
                out = workdir / f"verify-{seed}-threads{threads}"
                main(["verify", "--config", str(cfg), "--out", str(out), "--quick",
                      "--threads", threads])
                written.append([(out / f"suite_{suite}.csv").read_bytes()
                                for suite in SUITE_NAMES])
            digest = hashlib.sha256()
            for suite, data in zip(SUITE_NAMES, written[0]):
                digest.update(f"suite_{suite}.csv {len(data)}\n".encode() + data)
            digests[seed] = digest.hexdigest()
            same = same and written[0] == written[1]
    return digests, same


def write_golden(workdir: Path) -> None:
    """Pin every record missing from the data file at the current commit.
    Records already in the file stay byte-identical, so pins taken at an
    earlier commit keep holding later code to that commit's numbers; delete
    the file to pin everything afresh.  `extended_at_commit` is stamped
    only when `src/` has no uncommitted changes: records pinned from an
    uncommitted tree come from code that no commit holds yet."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=DATA.parent, check=True,
                              capture_output=True, text=True).stdout.strip()
    commit = git("rev-parse", "HEAD")
    data = (json.loads(DATA.read_text()) if DATA.exists()
            else {"generated_at_commit": commit, "configs": {}})
    added = False
    for name in sorted(CONFIGS):
        have = data["configs"].setdefault(name, {})
        for key, records in {**compute(name, workdir), **paths(name)}.items():
            if key not in have:
                have[key], added = records, True
    suites = data.setdefault("verify_quick", {"seed": QUICK_SEED, "suites": {}})["suites"]
    for suite in SUITE_NAMES:
        have = suites.setdefault(suite, {})
        for cid, row in quick_suite(suite).items():
            if cid not in have:
                have[cid], added = row, True
    src_dirty = git("status", "--porcelain", "--", "../src")
    if added and not src_dirty and data["generated_at_commit"] != commit:
        data["extended_at_commit"] = commit
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["--moved"]:
            print_moves(Path(tmp))
        elif sys.argv[1:] == ["--fingerprint"]:
            print(fingerprint(Path(tmp)))
        elif sys.argv[1:] == ["--quick-csvs"]:
            digests, same = quick_csv_digests(Path(tmp))
            for seed, digest in digests.items():
                print(f"seed {seed}: {digest}")
            if not same:
                sys.exit("verify --quick --threads 2 wrote other CSV bytes than --threads 1")
        elif sys.argv[1:]:
            sys.exit(f"usage: {sys.argv[0]} [--moved | --fingerprint | --quick-csvs]")
        else:
            write_golden(Path(tmp))
    sys.exit(0)
