"""Smoke test of the benchmark harness at tiny size.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import tracing  # noqa: E402
from weakmeas import scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tmp_cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("# report "):]) for line in lines if line.startswith("# report "))
    return json.loads(lines[-1]), report


def _wire(cases) -> list[str]:
    return [json.dumps(scenario.scenario_to_wire(c.scenario), sort_keys=True) for c in cases]


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_metrics()
    assert all(m["better"] == tracing.better(m["name"]) for m in SPEC["per_layer"])
    assert WORKLOADS == ["amplify", "verify", "cli"]
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


def test_generator_is_deterministic_per_seed(tmp_path):
    assert generate.amplify_block(7, 3) == generate.amplify_block(7, 3)
    assert generate.amplify_block(7, 3) != generate.amplify_block(8, 3)
    assert _wire(generate.verify_block(7, 0, 8192)) == _wire(generate.verify_block(7, 0, 8192))
    assert _wire(generate.verify_block(7, 0, 8192)) != _wire(generate.verify_block(8, 0, 8192))
    files = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths = generate.write_cli_files(7, str(tmp_path / sub))
        files.append({name: Path(p).read_bytes() for name, p in paths.items()})
        assert generate.cli_block(7, 2, paths) == generate.cli_block(7, 2, paths)
    assert files[0] == files[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload):
    plain = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", "0", "--tiny")
    traced = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", "1", "--tiny")
    for proc, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert proc.returncode == 0, proc.stderr
        result, report = _result(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        assert report["seed"] == 3 and report["provenance"]["src_lines"] > 0
    # Tracing changes no output: the first block gives the same check
    # outcomes and output digests with and without the span wrappers.
    assert _result(plain)[1]["first_block"] == _result(traced)[1]["first_block"]
    assert all(ok for ok, _ in _result(plain)[1]["first_block"])


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "amplify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
