"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at a tiny config
(``--tiny``: n=64, order 4, n_plus 4; about a minute in all) and asserts that
the metric lists in BENCHMARK.json match the harness, that every metric is
printed by name with its unit, and that the trace keeps the workload design:
one-particle runs call no series, decoupling or manybody code, and nbody
computes no resolvent distances.  At order 4 the converge check may report
failed runs; that is the truncation, not the harness, so it is not asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result: dict, expected: tuple, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], label
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert got == list(expected), f"{label}: metrics {got}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} = {m['value']!r}"


def check_printed(lines: list[str], expected, label: str) -> None:
    for name, unit in expected:
        assert any(f" {name} " in f" {ln} " and f" {unit} " in f" {ln} " for ln in lines), \
            f"{label}: {name} [{unit}] not printed"


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)

    for workload in WORKLOADS:
        lines, result = run(workload, 0)
        check_result(result, END_TO_END, f"{workload} untraced")
        check_printed(lines, END_TO_END + (("failed_frac", "1"),), f"{workload} untraced")

        lines, result = run(workload, 1)
        check_result(result, PER_LAYER, f"{workload} traced")
        check_printed(lines, END_TO_END + PER_LAYER, f"{workload} traced")
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        calls = {name: v for name, v in metrics.items() if name.endswith(".calls")}
        assert all(isinstance(v, int) for v in calls.values()), calls
        if WORKLOADS[workload].command == "one-particle":
            busy = [n for n, v in calls.items()
                    if n.split(".")[0] in ("series", "decoupling", "manybody") and v]
            assert not busy, f"{workload}: unexpected calls {busy}"
        if WORKLOADS[workload].command == "nbody":
            assert metrics["decoupling.resolvent_distance.calls"] == 0
        print(f"{workload}: ok ({result['failed']} of {result['attempted']} traced runs failed the check)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
