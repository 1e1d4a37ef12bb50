"""Checks of a unit's output files, read independently of the program's readers.

check_run returns a list of problems (empty when the outputs are correct) and
the figures the benchmark reports from the files: the quality metrics and the
solver outcome read back from solve.csv.
"""
from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

GRID_N = 100
SOLVE_HEADER = ["iter", "objective", "kkt_residual"]


def digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_pgm(path: Path) -> list[str]:
    data = path.read_bytes()
    fields = data.split(maxsplit=4)
    if len(fields) < 4 or fields[0] != b"P5":
        return [f"{path.name}: not a P5 graymap"]
    width, height, maxval = (int(v) for v in fields[1:4])
    header = b"P5\n%d %d\n%d\n" % (width, height, maxval)
    expected = len(header) + width * height * (2 if maxval > 255 else 1)
    problems = []
    if (width, height) != (GRID_N, GRID_N):
        problems.append(f"{path.name}: {width}x{height}, want {GRID_N}x{GRID_N}")
    if not data.startswith(header) or len(data) != expected:
        problems.append(f"{path.name}: {len(data)} bytes, want {expected}")
    return problems


def check_raw_csv(path: Path) -> list[str]:
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    if len(rows) != GRID_N or any(len(r) != GRID_N for r in rows):
        return [f"{path.name}: want {GRID_N} rows of {GRID_N} values"]
    if not all(_finite(v) for row in rows for v in row):
        return [f"{path.name}: non-finite value"]
    return []


def read_solve_csv(path: Path, max_iters: int, tau: float) -> tuple[list[str], dict]:
    """Solver outcome from solve.csv; row 0 holds ||A'b||inf - tau."""
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    if not rows or rows[0] != SOLVE_HEADER or len(rows) < 2:
        return [f"{path.name}: bad header or no rows"], {}
    body = rows[1:]
    if not all(len(r) == 3 and all(_finite(v) for v in r) for r in body):
        return [f"{path.name}: malformed or non-finite row"], {}
    iters = [int(r[0]) for r in body]
    objective = [float(r[1]) for r in body]
    problems = []
    if iters != list(range(len(body))):
        problems.append(f"{path.name}: iterations not numbered 0..{len(body) - 1}")
    if any(b > a for a, b in zip(objective, objective[1:])):
        problems.append(f"{path.name}: objective increases")
    atb_inf = float(body[0][2]) + tau
    outcome = {"iterations": iters[-1], "converged": iters[-1] < max_iters,
               "kkt": float(body[-1][2]),
               "kkt_rel": float(body[-1][2]) / atb_inf if atb_inf > 0 else None}
    return problems, outcome


def check_run(scenario_dir: Path, seeds, methods, header: str, max_iters: int,
              tau: float, slit: bool) -> tuple[list[str], dict]:
    """Outputs of run_scenario: every per-seed file, parsed and consistent."""
    problems = []
    rows_by_method = {m: [] for m in methods}
    solves = []
    expected = {"truth.pgm", "metrics.csv"}
    if "gi" in methods:
        expected |= {"gi.pgm", "gi_raw.csv"}
    if "gics" in methods:
        expected |= {"gics.pgm", "gics_raw.csv", "solve.csv"}
    if sorted(p.name for p in scenario_dir.iterdir()) != sorted(str(s) for s in seeds):
        problems.append(f"{scenario_dir.name}: seed directories differ from {list(seeds)}")
    for seed in seeds:
        seed_dir = scenario_dir / str(seed)
        found = {p.name for p in seed_dir.iterdir()} if seed_dir.is_dir() else set()
        if found != expected:
            problems.append(f"seed {seed}: files {sorted(found)}, want {sorted(expected)}")
            continue
        for name in sorted(expected):
            if name.endswith(".pgm"):
                problems += check_pgm(seed_dir / name)
            elif name.endswith("_raw.csv"):
                problems += check_raw_csv(seed_dir / name)
        lines = (seed_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != header:
            problems.append(f"seed {seed}: metrics.csv header {lines[:1]} != {header!r}")
            continue
        rows = list(csv.DictReader(lines))
        if [r["method"] for r in rows] != list(methods):
            problems.append(f"seed {seed}: metrics rows {[r['method'] for r in rows]}")
            continue
        for row in rows:
            needed = ["snr", "mse", "psnr"] + (["dip_ratio"] if slit else [])
            if row["seed"] != str(seed) or not all(_finite(row[k]) for k in needed):
                problems.append(f"seed {seed}: bad metrics row {row}")
            elif slit and row["resolved"] not in ("true", "false"):
                problems.append(f"seed {seed}: resolved {row['resolved']!r}")
            else:
                rows_by_method[row["method"]].append(row)
        if "gics" in methods:
            solve_problems, outcome = read_solve_csv(seed_dir / "solve.csv", max_iters, tau)
            problems += [f"seed {seed}: {p}" for p in solve_problems]
            if outcome:
                solves.append(dict(outcome, seed=seed))
    # recon_mse scores the workload's final reconstruction: GICS where it runs.
    gi_snr = [float(r["snr"]) for r in rows_by_method.get("gi", [])]
    mse = [float(r["mse"]) for r in rows_by_method.get("gics") or rows_by_method.get("gi", [])]
    return problems, {"gi_snr": sum(gi_snr) / len(gi_snr) if gi_snr else None,
                      "recon_mse": sum(mse) / len(mse) if mse else None,
                      "solves": solves}
