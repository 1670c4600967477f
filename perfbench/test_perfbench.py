"""Tests of the benchmark itself, on the tiny item sets.

Run from the repository root: python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(script, workload, trace=0, seed=0):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    proc, result = bench(HERE / "run.py", workload)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    table = proc.stdout.splitlines()[-len(run.END_TO_END) - 2:-1]
    for (name, unit), line in zip(list(run.END_TO_END.items()) + [("error_rate", "ratio")], table):
        assert line.split()[1] == name and line.split()[3] == unit


def test_traced_run_reports_every_layer_metric():
    proc, result = bench(HERE / "run.py", "morse-index", trace=1)
    assert proc.returncode == 0, proc.stderr
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert result["metrics"]["loop_morse.bott_calls"]["value"] > 0


def test_same_seed_gives_identical_digests():
    first = workloads.run_pass("orbit-norms", 5, "tiny").digests()
    assert workloads.run_pass("orbit-norms", 5, "tiny").digests() == first


def test_new_seed_changes_only_rank_3_4_pairs():
    def by_system(seed):
        pairs = {}
        for label, eta, xi in workloads.orbit_pairs(seed, "full"):
            pairs.setdefault(label, []).append((eta, xi))
        return pairs

    a, b = by_system(0), by_system(1)
    for label in workloads.LABELS:
        assert (a[label] == b[label]) == (int(label[1]) <= 2), label
    da = workloads.run_pass("orbit-norms", 0, "tiny").digests()
    db = workloads.run_pass("orbit-norms", 1, "tiny").digests()
    assert {g for g in da if da[g] != db[g]} == {l for l in workloads.LABELS if int(l[1]) > 2}


def test_wrong_expected_digest_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["tiny"]["su2-spectra"]["energy:m=1:n=32"] = "0" * 64
    path.write_text(json.dumps(expected))
    proc, result = bench(tmp_path / "perfbench" / "run.py", "su2-spectra")
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] > 0
    error_rate = next(l for l in proc.stdout.splitlines() if l.split()[1:2] == ["error_rate"])
    assert float(error_rate.split()[2]) > 0
    assert "energy:m=1:n=32" in proc.stdout


def test_wrong_oracle_value_fails_the_item(monkeypatch):
    monkeypatch.setitem(workloads.EXPONENTS, "A2", (1, 3))
    p = workloads.run_pass("morse-index", 0, "tiny")
    assert p.groups["omega:A2"][1] == 1
    assert sum(e[1] for e in p.groups.values()) == 1


def test_outside_a_checkout_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "su2-spectra", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_timings_are_scaled_by_the_bursts_around_them(monkeypatch):
    import speed

    bursts = iter([2.0, 4.0, 2.0])  # seconds; the reference below is 1.0
    times = iter([0.0, 3.0, 3.0, 3.5])
    monkeypatch.setattr(speed, "burst", lambda kind: next(bursts))
    monkeypatch.setattr(speed, "now", lambda: next(times))
    monkeypatch.setattr(speed, "EVERY_S", 1000.0)
    monkeypatch.setitem(speed.REFERENCE_S, "python", 1.0)
    clock = speed.Clock("python")  # first burst: 2.0
    started = clock.start()
    clock._fire(None, None)  # 4.0, within the first timing
    clock.stop(started)  # 3.0 s
    clock.stop(clock.start())  # 0.5 s
    # last burst: 2.0; the first timing has bursts 2, 4, 2 around it
    assert clock.scaled() == pytest.approx([3.0 / (8 / 3), 0.5 / 3])
