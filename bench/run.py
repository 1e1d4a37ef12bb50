#!/usr/bin/env python3
"""ghostbench benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload canonical_slit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from the root of a source checkout; nothing needs installing.  Each unit
is one fresh interpreter (bench/unit.py) running the workload through the
public harness API with threads=1 and the inherited BLAS threading.  Units
repeat until ``--seconds`` have passed (at least one always runs), and twelve
more interpreters only start up and parse, so ``setup_s`` is a median too.
Every unit's outputs are checked (bench/checks.py); a unit that raises or
fails a check counts as failed and is left out of the timings.  Every unit of
a run must write byte-identical files.

``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of bench/layers.py instead, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give sample counts, the solver outcome and the environment.  Work files,
results and spans go to ``.bench_work/`` at the root of the checkout.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_SAMPLES = 12
HARD_LIMIT_S = 170.0  # a run must end within 180 s; no unit may outlive this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "gi_snr": "ratio", "recon_mse": "1"}


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks from /proc/stat (user, nice, system, idle, ..., steal)."""
    first = (_read(Path("/proc/stat")) or "cpu").splitlines()[0].split()
    return [int(v) for v in first[1:]]


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) > 0 else None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


class Run:
    """One benchmark run of one workload: inputs, units, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.started = time.monotonic()
        self.units: list[dict] = []
        self.setup: list[float] = []
        self.reference_digests: dict | None = None

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, index: int, traced: bool, setup_only: bool) -> dict:
        out = self.dir / f"out{index}"
        result = self.dir / f"unit{index}.json"
        cmd = [sys.executable, str(HERE / "unit.py"), "--scenario", str(self.scenario_path),
               "--out", str(out), "--result", str(result)]
        cmd += ["--trace"] if traced else []
        cmd += ["--setup-only"] if setup_only else []
        proc = None
        try:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            log, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timed out"}
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result.is_file():
            tail = log.decode(errors="replace").strip().splitlines()[-3:]
            return {"error": f"exit {proc.returncode}: {' | '.join(tail)}"}
        return json.loads(result.read_text(encoding="utf-8"))

    def check(self, unit: dict, out: Path) -> tuple[list[str], dict]:
        scenario_dir = out / unit["scenario_name"]
        if not scenario_dir.is_dir():
            return [f"no output directory {scenario_dir.name}"], {}
        problems, found = checks.check_run(
            scenario_dir, self.scenario.seeds, self.scenario.methods, self.metrics_header,
            self.scenario.gics.max_iters, self.scenario.gics.tau,
            self.scenario.slit_geometry is not None)
        files = checks.digests(out)
        if self.reference_digests is not None and files != self.reference_digests:
            problems.append("output bytes differ from an earlier rerun")
        elif not problems:
            self.reference_digests = files
        return problems, found

    def run_unit(self, traced: bool) -> None:
        index = len(self.units)
        unit = self.spawn(index, traced, setup_only=False)
        unit["traced"] = traced
        if "error" not in unit:
            try:
                problems, found = self.check(unit, self.dir / f"out{index}")
            except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed output
                problems, found = [f"unreadable output: {exc!r}"], {}
            unit.update(problems=problems, **found)
            if not traced:
                self.setup.append(unit["setup_s"])
        shutil.rmtree(self.dir / f"out{index}", ignore_errors=True)
        self.units.append(unit)

    def execute(self) -> dict:
        from ghostbench import harness

        shutil.rmtree(self.dir, ignore_errors=True)
        self.scenario_path = write_inputs(self.workload, self.seed, self.dir / "inputs")
        self.scenario = harness.load_scenario(self.scenario_path)
        self.metrics_header = harness.METRICS_HEADER
        load_start = _read(Path("/proc/loadavg"))
        ticks_start = cpu_ticks()

        measure_start = time.monotonic()
        for i in range(SETUP_SAMPLES):
            unit = self.spawn(1000 + i, traced=False, setup_only=True)
            if "error" in unit:
                self.units.append({"error": f"set-up: {unit['error']}", "traced": False})
                break
            self.setup.append(unit["setup_s"])

        # Rounds continue while the next one is expected to end no later than
        # half a round past the measuring time, so runs centre on --seconds.
        # A failed set-up is already recorded as the run's one failure.
        order = [False, True] if self.trace else [False]
        rounds_start = time.monotonic()
        rounds = 0
        more = not self.units
        while more:
            for traced in order:
                self.run_unit(traced)
            rounds += 1
            now = time.monotonic()
            per_round = (now - rounds_start) / rounds
            more = (now - measure_start + per_round / 2 < self.seconds
                    and per_round < self.remaining())
        return self.summarise(load_start, _read(Path("/proc/loadavg")),
                              steal_share(ticks_start, cpu_ticks()))

    def summarise(self, load_start, load_end, steal) -> dict:
        ok = [u for u in self.units if "error" not in u and not u["problems"]]
        plain = [u for u in ok if not u["traced"]]
        traced = [u for u in ok if u["traced"]]
        failed = len(self.units) - len(ok)
        blas = (ok or [{}])[0].get("blas")
        summary = {
            "workload": self.workload, "seed": self.seed, "trace": self.trace,
            "campaign_seeds": list(self.scenario.seeds),
            "attempted": len(self.units), "failed": failed,
            "samples": {"wall_s": len(plain), "setup_s": len(self.setup),
                        "traced": len(traced)},
            "failures": [u.get("error") or u["problems"] for u in self.units
                         if u not in ok],
            "env": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "blas": blas,
                    "blas_env": {k: os.environ[k] for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                                 if k in os.environ},
                    "git_commit": git_commit(), "loadavg_start": load_start,
                    "loadavg_end": load_end, "cpu_steal_share": steal},
        }
        correct = bool(plain) and (bool(traced) or not self.trace) and failed == 0
        metrics = {}
        if plain:
            quality = plain[0]
            summary["wall_s_samples"] = [u["wall_s"] for u in plain]
            summary["setup_s_samples"] = self.setup
            summary["solver_outcome_solve_csv"] = quality["solves"]
            values = {
                "wall_s": statistics.median(u["wall_s"] for u in plain),
                "setup_s": statistics.median(self.setup),
                "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in plain),
                "gi_snr": quality["gi_snr"],
                "recon_mse": quality["recon_mse"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        if self.trace and traced and plain:
            untraced_wall = statistics.median(u["wall_s"] for u in plain)
            per_unit = [layers.derive(u["spans"], u["wall_s"], untraced_wall) for u in traced]
            metrics = {k: {"value": statistics.median(d[k] for d in per_unit), "unit": unit}
                       for k, (unit, _) in layers.PER_LAYER.items()}
            summary["solver_outcome_report"] = layers.solver_outcome(traced[0]["spans"])
            summary["unwrapped"] = traced[0]["unwrapped"]
            trace_file = WORK / f"trace-{self.workload}-seed{self.seed}.json"
            trace_file.write_text(json.dumps({"workload": self.workload, "seed": self.seed,
                                              "units": [u["spans"] for u in traced]}),
                                  encoding="utf-8")
            summary["trace_file"] = str(trace_file.relative_to(ROOT))
        summary["result"] = {"correct": correct, "attempted": len(self.units),
                             "failed": failed, "metrics": metrics}
        (WORK / f"result-{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
         ).write_text(json.dumps(summary, indent=1), encoding="utf-8")
        shutil.rmtree(self.dir, ignore_errors=True)
        return summary


def report(summary: dict) -> None:
    """Human-readable lines: metrics with units and sample counts, solver, env."""
    name = summary["workload"]
    res = summary["result"]
    print(f"[{name}] seed {summary['seed']} (campaign seeds {summary['campaign_seeds']}): "
          f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    samples = summary["samples"]
    for key, metric in res["metrics"].items():
        note = ""
        if key == "wall_s":
            note = f"  (median of {samples['wall_s']})"
        elif key == "setup_s":
            note = f"  (median of {samples['setup_s']})"
        print(f"[{name}]   {key} = {metric['value']:.6g} {metric['unit']}{note}")
    for failure in summary["failures"]:
        print(f"[{name}]   failure: {failure}")
    if summary.get("unwrapped"):
        print(f"[{name}]   not traced (missing functions): {summary['unwrapped']}")
    for label in ("solver_outcome_report", "solver_outcome_solve_csv"):
        for solve in summary.get(label, []):
            print(f"[{name}]   solver ({label[15:]}): {solve}")
    if summary["trace"] and res["metrics"]:
        m = res["metrics"]
        if name == "canonical_slit":
            print(f"[{name}]   separation: recon_gics.solve_s / wall_s = "
                  f"{m['share.gics_solve']['value']:.3f} (want >= 0.70)")
        elif name == "aperture_gi":
            print(f"[{name}]   separation: recon_gics time = "
                  f"{m['recon_gics.build_s']['value'] + m['recon_gics.solve_s']['value']:.3g} s"
                  f" (want 0), speckle+forward+recon_gi / wall_s = "
                  f"{m['share.gi_pipeline']['value']:.3f} (want >= 0.70)")
    print(f"[{name}]   env: {json.dumps(summary['env'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ghostbench" / "__init__.py").is_file():
        print(f"bench: no ghostbench sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
        report(summary)
        summaries.append(summary)
    if len(summaries) == 1:
        print(json.dumps(summaries[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(s["result"]["correct"] for s in summaries),
            "attempted": sum(s["result"]["attempted"] for s in summaries),
            "failed": sum(s["result"]["failed"] for s in summaries),
            "metrics": {f"{s['workload']}.{k}": v for s in summaries
                        for k, v in s["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
