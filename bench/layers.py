"""Per-layer metrics derived from the spans of one traced unit.

A span is ``[name, start, end, parent_index, attrs]``.  A layer's self time is
its spans' duration minus the time their child spans cover.  Which end-to-end
metric each layer metric should move, and on which workload:

  speckle.*            wall_s on aperture_gi (dominant), sparse_slit, canonical_slit
  forward.*            wall_s and peak_rss_mb on aperture_gi
  recon_gi.*           wall_s and peak_rss_mb on aperture_gi
  recon_gics.*         wall_s on canonical_slit and sparse_slit (build_s also
                       peak_rss_mb there); nothing on aperture_gi
  ioutil.*             wall_s on the two workloads that write files
  harness.parse_s,
  optics.mask_s        setup_s on all three workloads
"""
from __future__ import annotations

MIB = 2.0**20

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
PER_LAYER = {
    "speckle.synth_s": ("s", "lower"),
    "speckle.frames": ("count", "lower"),
    "speckle.frame_us": ("us", "lower"),
    "speckle.gflop": ("GFLOP", "lower"),
    "speckle.gflops": ("GFLOP/s", "higher"),
    "forward.campaign_s": ("s", "lower"),
    "forward.bucket_s": ("s", "lower"),
    "forward.self_s": ("s", "lower"),
    "recon_gi.correlate_s": ("s", "lower"),
    "recon_gi.stack_mb": ("MiB", "lower"),
    "recon_gics.build_s": ("s", "lower"),
    "recon_gics.solve_s": ("s", "lower"),
    "recon_gics.solves": ("count", "lower"),
    "recon_gics.iterations": ("count", "lower"),
    "recon_gics.iter_ms": ("ms", "lower"),
    "recon_gics.converged_ratio": ("ratio", "higher"),
    "recon_gics.kkt_rel": ("ratio", "lower"),
    "recon_gics.matvec_gb": ("GB", "lower"),
    "metrics.score_s": ("s", "lower"),
    "ioutil.write_s": ("s", "lower"),
    "ioutil.files": ("count", "lower"),
    "ioutil.mb_written": ("MiB", "lower"),
    "optics.mask_s": ("s", "lower"),
    "harness.parse_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "share.gics_solve": ("ratio", "lower"),
    "share.gi_pipeline": ("ratio", "lower"),
}

# Functions whose time is output writing: formatting plus the atomic write.
WRITE_SPANS = ("recon_gi.write_image_csv", "recon_gics.write_solve_csv", "ioutil.write_pgm",
               "ioutil.atomic_write_text", "ioutil.atomic_write_bytes")


def _times(spans):
    """Per span name: (count, total duration, total self time)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        count, total, self_time = out.get(name, (0, 0.0, 0.0))
        out[name] = (count + 1, total + end - start, self_time + end - start - child[i])
    return out


def derive(spans, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric of one traced unit; a layer that never ran reads 0."""
    times = _times(spans)

    def count(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(times.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(times.get(n, (0, 0.0, 0.0))[2] for n in names)

    def attrs(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    frames = attrs("speckle.synthesize_frame")
    gflop = sum(8.0 * a["n"] * a["k"] * (a["k"] + a["n"]) for a in frames) / 1e9
    synth_s = total("speckle.synthesize_frame")
    solves = attrs("recon_gics.gpsr_solve")
    iterations = sum(a["iterations"] for a in solves)
    solve_s = total("recon_gics.gpsr_solve")
    kkt_rel = [a["kkt"] / a["atb_inf"] for a in solves if a["atb_inf"]]
    writes = attrs("ioutil.atomic_write_bytes")
    campaign_s = total("forward.run_campaign")
    correlate_s = total("recon_gi.gi_reconstruct")
    return {
        "speckle.synth_s": synth_s,
        "speckle.frames": float(len(frames)),
        "speckle.frame_us": 1e6 * synth_s / len(frames) if frames else 0.0,
        "speckle.gflop": gflop,
        "speckle.gflops": gflop / synth_s if synth_s > 0 else 0.0,
        "forward.campaign_s": campaign_s,
        "forward.bucket_s": total("forward.bucket_measure"),
        "forward.self_s": self_time("forward.run_campaign"),
        "recon_gi.correlate_s": correlate_s,
        "recon_gi.stack_mb": max((a["m"] * a["n"] ** 2 * 8 / MIB
                                  for a in attrs("recon_gi.gi_reconstruct")), default=0.0),
        "recon_gics.build_s": total("recon_gics.build_sensing"),
        "recon_gics.solve_s": solve_s,
        "recon_gics.solves": float(len(solves)),
        "recon_gics.iterations": float(iterations),
        "recon_gics.iter_ms": 1e3 * solve_s / iterations if iterations else 0.0,
        "recon_gics.converged_ratio": (sum(a["converged"] for a in solves) / len(solves)
                                       if solves else 0.0),
        "recon_gics.kkt_rel": max(kkt_rel, default=0.0),
        # computed, not measured: two dense float64 matvecs per iteration
        "recon_gics.matvec_gb": sum(2 * a["m"] * a["n"] * 8 * a["iterations"]
                                    for a in solves) / 1e9,
        "metrics.score_s": sum(v[2] for k, v in times.items() if k.startswith("metrics.")),
        "ioutil.write_s": self_time(*WRITE_SPANS),
        "ioutil.files": float(count("ioutil.atomic_write_bytes")),
        "ioutil.mb_written": sum(a["bytes"] for a in writes) / MIB,
        "optics.mask_s": total("optics.make_double_slit", "optics.load_mask_pgm"),
        "harness.parse_s": self_time("harness.load_scenario", "harness.parse_scenario_text"),
        "harness.self_s": self_time("harness.run_scenario"),
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "share.gics_solve": solve_s / wall_s,
        "share.gi_pipeline": (campaign_s + correlate_s) / wall_s,
    }


def solver_outcome(spans) -> list[dict]:
    """Per solve, from the SolveReport the traced gpsr_solve returned."""
    return [{"iterations": a["iterations"], "converged": a["converged"], "kkt": a["kkt"],
             "kkt_rel": a["kkt"] / a["atb_inf"] if a["atb_inf"] else None}
            for a in (s[4] for s in spans if s[0] == "recon_gics.gpsr_solve")]
