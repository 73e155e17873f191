"""Benchmark of the diracdiag command line, one workload per invocation.

    python3 perfbench/run.py --workload converge-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  The load is a closed loop: one client runs one CLI subprocess at a
time, every one with ``--threads 1``, until the next would overrun
``--seconds`` (always at least one).  Before that, a fresh interpreter that
imports the CLI and its heavy modules is timed five times (``setup_s``).
Each CLI run counts as failed unless it exits 0 and its outputs pass the
workload's check.  CPU time and peak memory come from the child's own
rusage (``wait4``), never from the cumulative RUSAGE_CHILDREN.

With ``--trace 1`` a traced replay of the same command follows in its own
subprocess (``replay.py``), and the per-layer metrics of ``layers.py`` are
reported instead of the end-to-end ones.  Generated configs, outputs and
spans live under ``.perfbench/`` in the checkout; a JSON record of each run,
with the environment, stays in ``.perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero, with no such line, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, per_layer_metrics  # noqa: E402
from replay import THREAD_ENV  # noqa: E402
from workloads import WORKLOADS, draw_couplings  # noqa: E402

SETUP_REPEATS = 5
SETUP_IMPORTS = "import diracdiag.cli, diracdiag.manybody, diracdiag.report"
RUN_DEADLINE_S = 170.0  # a child still running this long after start is killed

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

ENV_PROBE = SETUP_IMPORTS + """
import json, os, sys, numpy, scipy
deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": deps.get("blas"), "lapack": deps.get("lapack")}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_ENV})
    return env


def run_child(argv: list[str], cwd: Path, log: Path, timeout: float) -> dict:
    """Run one child to completion; wall time, own CPU time, own peak RSS."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


class Bench:
    def __init__(self, workload, seed: int, trace: bool, tiny: bool):
        self.workload = workload
        self.couplings = draw_couplings(seed, workload.n_couplings)
        self.config = workload.config(self.couplings, tiny)
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.started = time.perf_counter()
        self.errors: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def cli_args(self, out: Path) -> list[str]:
        return [self.workload.command, "--config", str(self.config_path),
                "--output", str(out), "--threads", "1"]

    def check(self, rc: int, out: Path, log: Path, label: str) -> bool:
        if rc != 0:
            errors = [f"exit code {rc}: {tail(log)}"]
        else:
            try:
                errors = self.workload.check(out, self.couplings, self.config)
            except (OSError, ValueError, KeyError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        self.errors += [f"{label}: {e}" for e in errors]
        return not errors

    def python(self, code: str, log: Path) -> dict:
        res = run_child([sys.executable, "-c", code], self.dir, log, self.remaining())
        if res["rc"] != 0:
            raise SystemExit(f"cannot import the program from {SRC}:\n{tail(log)}")
        return res

    def environment(self) -> dict:
        """Versions of the program's dependencies; also warms the import caches."""
        log = self.dir / "env.log"
        self.python(ENV_PROBE, log)
        env = json.loads(log.read_text().splitlines()[-1])
        env.update({"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
                    "threads": {var: child_env()[var] for var in THREAD_ENV}})
        return env

    def setup_times(self) -> list[float]:
        return [self.python(SETUP_IMPORTS, self.dir / "setup.log")["wall_s"]
                for _ in range(SETUP_REPEATS)]

    def cli_runs(self, seconds: float) -> list[dict]:
        runs = []
        py = [sys.executable, "-m", "diracdiag"]
        while True:
            out, log = self.dir / f"out{len(runs)}", self.dir / f"cli{len(runs)}.log"
            res = run_child(py + self.cli_args(out), self.dir, log, self.remaining())
            res["ok"] = self.check(res["rc"], out, log, f"run {len(runs)}")
            shutil.rmtree(out, ignore_errors=True)
            runs.append(res)
            elapsed = sum(r["wall_s"] for r in runs)
            if elapsed + statistics.median(r["wall_s"] for r in runs) > seconds:
                return runs

    def replay(self, untraced_wall: float) -> tuple[dict, bool]:
        out, log, spans_path = self.dir / "replay_out", self.dir / "replay.log", self.dir / "spans.json"
        argv = [sys.executable, str(HERE / "replay.py"), "--src", str(SRC),
                "--spans", str(spans_path), "--"] + self.cli_args(out)
        res = run_child(argv, self.dir, log, self.remaining())
        ok = self.check(res["rc"], out, log, "traced replay")
        report_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
        if not spans_path.exists():
            return {name: {"value": 0, "unit": unit} for name, unit in PER_LAYER}, False
        trace = json.loads(spans_path.read_text())
        metrics = per_layer_metrics(trace["spans"], trace["counters"], report_bytes,
                                    res["wall_s"] - untraced_wall)
        return metrics, ok


def main() -> int:
    parser = argparse.ArgumentParser(description="diracdiag CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (n=64, order 4, n_plus 4) to test the harness")
    args = parser.parse_args()

    if not (SRC / "diracdiag").is_dir():
        print(f"no diracdiag package under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), args.tiny)
    environment = bench.environment()
    setups = bench.setup_times()
    runs = bench.cli_runs(args.seconds)
    attempted, failed = len(runs), sum(not r["ok"] for r in runs)
    medians = {name: statistics.median(r[name] for r in runs) for name, _ in END_TO_END[:3]}
    medians["setup_s"] = statistics.median(setups)

    if args.trace:
        metrics, ok = bench.replay(medians["wall_s"])
        attempted, failed = attempted + 1, failed + (not ok)
    else:
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}

    for line in bench.errors:
        print(f"output check failed: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} couplings {bench.couplings}: "
          f"{len(runs)} CLI runs, {len(setups)} set-ups")
    blas = environment["blas"] or {}
    print(f"  python {environment['python']}, numpy {environment['numpy']}, "
          f"scipy {environment['scipy']}, BLAS {blas.get('name')} {blas.get('version')}, "
          f"nproc {environment['nproc']}, {environment['cpu_model']}, BLAS threads 1")
    for name, unit in END_TO_END:
        values = setups if name == "setup_s" else [r[name] for r in runs]
        print(f"  {name:<12} {medians[name]:12.4f} {unit:<3} median of {len(values)}, "
              f"range {min(values):.4f}..{max(values):.4f}")
    print(f"  {'failed_frac':<12} {failed / attempted:12.4f} 1   {failed} of {attempted} runs")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:16.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, couplings=bench.couplings,
                  config=bench.config, environment=environment, setup_s=setups, runs=runs,
                  errors=bench.errors)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(bench.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
