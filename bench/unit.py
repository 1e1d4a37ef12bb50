"""One benchmark unit in a fresh interpreter, as a CLI user would pay for it.

    python3 bench/unit.py --scenario FILE --out DIR --result FILE --t0 STAMP
                          [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; monotonic time is system-wide, so ``setup_s`` runs from that stamp
until numpy and ghostbench are imported and the scenario (with its mask) is
parsed.  ``wall_s`` runs from the loaded scenario until ``run_scenario`` has
written every output.  The harness runs with ``threads=1`` and the BLAS
threading is left as inherited.

With ``--trace`` the public functions of each ghostbench module are wrapped,
under the names their callers look up, before the scenario is loaded.  Spans
(name, start, end, parent, attributes) stay in memory and go into the result
file when the unit ends.
"""
import time

import argparse
import ctypes
import functools
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Tracer:
    """Span recorder for single-threaded runs (the harness runs with threads=1)."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.missing = []

    def wrap(self, owner, attr, name, attrs=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install_tracer(tracer):
    from ghostbench import (forward, harness, ioutil, metrics, optics, recon_gi,
                            recon_gics, speckle)

    def frame_attrs(args, kwargs, result):
        config = _arg(args, kwargs, 0, "config")
        return {"k": speckle.aperture_sample_count(config), "n": config.grid_n}

    def gi_attrs(args, kwargs, result):
        ms = _arg(args, kwargs, 0, "ms")
        return {"m": ms.m, "n": ms.config.grid_n}

    def solve_attrs(args, kwargs, result):
        system = _arg(args, kwargs, 0, "system")
        tau = float(_arg(args, kwargs, 1, "params").tau)
        report = result[1]
        return {"iterations": report.iterations, "converged": bool(report.converged),
                "kkt": float(report.kkt_residual),
                "atb_inf": float(report.history[0][2]) + tau if report.history else None,
                "m": system.rows.shape[0], "n": system.rows.shape[1]}

    def write_attrs(args, kwargs, result):
        return {"bytes": len(_arg(args, kwargs, 1, "data"))}

    wraps = [
        (harness, "load_scenario", "harness.load_scenario", None),
        (harness, "parse_scenario_text", "harness.parse_scenario_text", None),
        (harness, "run_scenario", "harness.run_scenario", None),
        (optics, "make_double_slit", "optics.make_double_slit", None),
        (optics, "load_mask_pgm", "optics.load_mask_pgm", None),
        (harness, "run_campaign", "forward.run_campaign", None),
        (forward, "synthesize_frame", "speckle.synthesize_frame", frame_attrs),
        (forward, "bucket_measure", "forward.bucket_measure", None),
        (recon_gi, "gi_reconstruct", "recon_gi.gi_reconstruct", gi_attrs),
        (recon_gics, "gics_reconstruct", "recon_gics.gics_reconstruct", None),
        (recon_gics, "build_sensing", "recon_gics.build_sensing", None),
        (recon_gics, "gpsr_solve", "recon_gics.gpsr_solve", solve_attrs),
        (metrics, "minmax_normalize", "metrics.minmax_normalize", None),
        (metrics, "recon_snr", "metrics.recon_snr", None),
        (metrics, "mse", "metrics.mse", None),
        (metrics, "psnr", "metrics.psnr", None),
        (metrics, "slit_dip", "metrics.slit_dip", None),
        (recon_gi, "write_image_csv", "recon_gi.write_image_csv", None),
        (recon_gics, "write_solve_csv", "recon_gics.write_solve_csv", None),
        (ioutil, "write_pgm", "ioutil.write_pgm", None),
        (ioutil, "atomic_write_text", "ioutil.atomic_write_text", None),
        (ioutil, "atomic_write_bytes", "ioutil.atomic_write_bytes", write_attrs),
    ]
    for owner, attr, name, attrs in wraps:
        tracer.wrap(owner, attr, name, attrs)


def blas_info():
    """BLAS build and live thread count of this process (read-only probes)."""
    import numpy as np

    info = {"numpy": np.__version__, "build": None, "threads": None, "library": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = " ".join(str(blas.get(k)) for k in
                                 ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of what a user's start-up pays)
    import ghostbench
    from ghostbench import harness

    if not Path(ghostbench.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported ghostbench from {ghostbench.__file__}, not {SRC}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_tracer(tracer)
    scenario = harness.load_scenario(args.scenario)
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s}
    if not args.setup_only:
        start = time.perf_counter()
        harness.run_scenario(scenario, args.out, threads=1)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["blas"] = blas_info()
        result["scenario_name"] = scenario.name
    if tracer is not None:
        result["spans"] = tracer.spans
        result["unwrapped"] = tracer.missing
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
