"""Layered benchmark of the jordanbundles engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One process, one thread.  The run
imports the package from ``src/`` and builds the workload's seeded inputs,
then runs two passes over the workload's fixed case list (so that every
case's output digest is compared across passes) and more samples of the
cases where the median and tail latency are read, until ``--seconds`` are
used (see ``measure``).  The set-up is timed again, from a fresh import,
at fixed points of the run.  Times are scaled by the machine's speed as a
fixed probe measures it during the run (``harness.SpeedProbe``); the
details line holds them unscaled too.  Every case is checked.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` every case runs untraced and traced
back to back, and the metrics are its per-layer metrics, taken from spans
around the benchmark's calls into each package module; the spans are
written to ``perfbench/out/``.  The line before it holds the
details: per-case latencies and sample counts, failures, the tail
percentile and the probe.

``failed`` counts unexpected failures only; ``correct`` is true when there
are none.  ``failed_frac`` counts every failed case, including the two
known-bad cases and the one self-test canary per workload, whose expected
value is deliberately wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 5  # timed set-ups in an untraced run, the first one included
CUT = 1.5  # cases up to this times the tail latency get more samples
RUN_LIMIT_S = 160.0  # the whole run must end within 180 s
PACKAGE_LAYERS = ("field", "polyring", "schemes", "modules", "operators",
                  "bundles", "cli")

from harness import (  # noqa: E402
    SpeedProbe, Tracer, digest, install_alarm, make_api, mark_unstable, run_case,
    run_pass, tail, wall,
)
from workloads import WORKLOADS  # noqa: E402


def fresh_import() -> SimpleNamespace:
    """Import the package from the checkout's sources, discarding any
    earlier import, so that every set-up pays for the import."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("jordanbundles")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("jordanbundles imported from %s, not from src/" % pkg.__file__)
    return SimpleNamespace(**{layer: importlib.import_module("jordanbundles." + layer)
                              for layer in PACKAGE_LAYERS})


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name.partition(".")[0] == "jordanbundles"}


def setup(workload: str, seed: int, tracer):
    inputs_fn, cases_fn = WORKLOADS[workload]
    pkg = fresh_import()
    api = make_api(pkg, tracer)
    inputs = inputs_fn(api, random.Random("%s/%d" % (workload, seed)))
    cases = cases_fn(inputs)
    # One fixed order for every seed and pass, shuffled so that cases of
    # similar cost run at different moments of a pass: the machine's speed
    # drifts over seconds, and a cluster run back to back would see one speed.
    random.Random(0).shuffle(cases)
    return pkg, cases


def timed_setup(workload: str, seed: int) -> tuple:
    """Time one more set-up; the passes keep the import they were built on,
    so its modules go back into sys.modules afterwards.  Returns its start
    and its seconds."""
    kept = package_modules()
    t0 = time.perf_counter()
    setup(workload, seed, None)
    seconds = time.perf_counter() - t0
    sys.modules.update(kept)
    gc.collect()  # free the discarded import here, not inside a timed case
    return t0, seconds


def layer_metrics(tracer: Tracer, npass: int, overhead: float, noise: float) -> dict:
    """Per-layer values for one traced pass plus the traced set-up."""
    def busy(*names):
        return sum(tracer.busy(n, npass) for n in names)

    def calls(name):
        return tracer.calls(name, npass)

    def count(key):
        return tracer.total(key, npass)

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for kind in ("prime", "ext"):
        rr = busy("field.%s.row_reduce" % kind, "field.%s.rank" % kind)
        kb = busy("field.%s.kernel_basis" % kind)
        ops = count("field.%s.elim_ops" % kind)
        out["field.%s.row_reduce.busy_s" % kind] = rr
        out["field.%s.mat_mul.busy_s" % kind] = busy("field.%s.mat_mul" % kind)
        out["field.%s.elim_ops" % kind] = ops
        out["field.%s.elim_ops_per_s" % kind] = frac(ops, rr + kb)
    out["field.kernel_basis.busy_s"] = busy("field.prime.kernel_basis", "field.ext.kernel_basis")
    out["field.ext_field_build.busy_s"] = busy("field.ext_field_build")

    for name in ("polyring.evaluate", "polyring.power", "polyring.generic_rank",
                 "schemes.enumerate_points", "schemes.frobenius_point_map",
                 "schemes.sample_points", "modules.random_module",
                 "modules.frobenius_twist_gar", "modules.principal_indecomposable_sl2",
                 "modules.decompose_summands", "operators.theta_global",
                 "operators.jordan_type", "operators.jordan_type_chain_oracle",
                 "operators.constant_jrank_report", "operators.jtype_scan",
                 "bundles.restrict_p1", "bundles.kernel_graded", "bundles.subquotient_mj",
                 "bundles.global_sections", "bundles.rho_kappa_matrix", "cli.main"):
        out[name + ".busy_s"] = busy(name)
    for name in ("polyring.evaluate", "polyring.generic_rank", "operators.jordan_type",
                 "bundles.kernel_graded", "cli.main"):
        out[name + ".calls"] = calls(name)
    for key in ("polyring.evaluate.entries", "schemes.points", "schemes.sample_points.failed",
                "modules.decompose.parts", "operators.points_scanned",
                "bundles.kernel.degrees_visited", "bundles.subquotient.degrees_visited",
                "cli.report_bytes"):
        out[key] = count(key)
    out["modules.decompose.certified_frac"] = frac(
        count("modules.decompose.certified"), calls("modules.decompose_summands"))
    out["bundles.kernel.degree_yield"] = frac(
        count("bundles.kernel.top_degrees"), count("bundles.kernel.degrees_visited"))
    out["bundles.kernel.certified_frac"] = frac(
        count("bundles.kernel.certified"), calls("bundles.kernel_graded"))
    out["bundles.subquotient.identified_frac"] = frac(
        count("bundles.subquotient.identified"), calls("bundles.subquotient_mj"))
    out["trace.overhead_s"] = overhead
    out["trace.overhead_noise_s"] = noise
    out["trace.spans"] = sum(1 for s in tracer.spans if s[4] != "setup") / npass
    return out


def measure(cases, api, workload: str, seed: int, seconds: float, deadline: float,
            setup_times: list):
    """The untraced run.  Two passes over every case in the fixed order, so
    that every case's output digest is compared across passes, except that
    a case is not run again if it ran past its cap (its latency is its cap)
    or took over a quarter of the run (the traced run compares its digest).
    Then, while time is left, rounds over the cases no slower than 1.5
    times the current tail latency, the case with the fewest samples first:
    the median and the tail are read there, and one sample of a cheap case
    is at the mercy of the machine's speed over a fraction of a second.
    More set-ups are timed at fixed fractions of the run, and the speed
    probe between cases.  Returns the outcomes by case and the probe."""
    probe = SpeedProbe()
    t_start = time.perf_counter()
    marks = [t_start + seconds * k / SETUPS for k in range(1, SETUPS)]
    samples = {c.name: [] for c in cases}

    def run(case):
        probe.maybe()
        if marks and time.perf_counter() >= marks[0]:
            marks.pop(0)
            setup_times.append(timed_setup(workload, seed))
        cap = min(case.cap_s, deadline - time.perf_counter())
        samples[case.name].append(run_case(case, api, cap, None))

    def again(case):
        first = samples[case.name][0]
        return first.status != "timeout" and first.seconds < seconds / 4

    for case in cases:
        run(case)
    for case in cases:
        if again(case):
            run(case)
    order = {c.name: i for i, c in enumerate(cases)}
    while True:
        left = min(t_start + seconds, deadline) - time.perf_counter()
        lat = {name: median(o.seconds for o in outs) for name, outs in samples.items()}
        cut = CUT * tail(list(lat.values()))[0]
        fits = [c for c in cases if again(c) and lat[c.name] <= cut and lat[c.name] < left]
        if not fits:
            break
        run(min(fits, key=lambda c: (len(samples[c.name]), order[c.name])))
    for _ in marks:
        setup_times.append(timed_setup(workload, seed))
    probe.sample()  # so the last case and set-up have a probe after them
    return samples, probe


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="jordanbundles layered benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    install_alarm()
    deadline = T_START + RUN_LIMIT_S

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    pkg, cases = setup(args.workload, args.seed, tracer)
    setup_times = [(t0, time.perf_counter() - t0)]
    first_case_s = time.perf_counter() - T_START
    detail = {"workload": args.workload, "seed": args.seed,
              "python": sys.version.split()[0], "cases": len(cases)}

    if tracer is None:
        samples, probe = measure(cases, make_api(pkg, None), args.workload, args.seed,
                                 args.seconds, deadline, setup_times)
        plain = [outs for outs in samples.values()]
        every = [o for outs in plain for o in outs]
        mark_unstable([every])

        def scaled(o):  # a timed-out case's latency is its cap, on any machine
            return o.seconds if o.status == "timeout" else probe.scaled(o.start, o.seconds)

        def statistics(latency, setup_time):
            # A case's latency is its median over its samples; a pass is
            # every case once, so its time is the sum of those medians.
            lat = [median(latency(o) for o in outs) for outs in plain]
            return lat, {
                "setup_s": median(setup_time(*s) for s in setup_times),
                "wall_s": sum(lat),
                "case_p50_ms": 1000.0 * median(lat),
                "case_tail_ms": 1000.0 * tail(lat)[0],
            }

        latencies, metrics = statistics(scaled, probe.scaled)
        _, raw = statistics(lambda o: o.seconds, lambda start, seconds: seconds)
        _, tail_pct, tail_n = tail(latencies)
        metrics["failed_frac"] = sum(any(o.failed for o in outs) for outs in plain) / len(plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]
        detail.update({
            "unscaled": {name: round(value, 6) for name, value in raw.items()},
            "probe": {"median_ms": round(1000.0 * median(probe.times), 4),
                      "samples": len(probe.times)},
            "setup_s": [round(s, 4) for _, s in setup_times],
            "first_case_s": round(first_case_s, 4),
            "case_tail": {"percentile": round(tail_pct, 2), "cases": tail_n},
            "case_ms": {outs[0].case.name: [round(1000.0 * lat, 2), len(outs)]
                        for outs, lat in zip(plain, latencies)},
        })
        first_pass = [outs[0] for outs in plain]
        measured = every
    else:
        # Each case runs untraced and traced back to back (harness.run_pass),
        # so the two latencies differ by the tracing and not by the drift.
        runs = [(make_api(pkg, None), None), (make_api(pkg, tracer), tracer)]
        passes = []  # per pass, one outcome list per run
        t_measure = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(cases, runs, deadline, len(passes)))
            longest = max(longest, time.perf_counter() - t0)
            now = time.perf_counter()
            if now - t_measure + longest > args.seconds or now + longest > deadline:
                break
        plain = [outs[0] for outs in passes]
        traced = [outs[1] for outs in passes]
        every = [o for outs in plain + traced for o in outs]
        mark_unstable(plain + traced)
        # Tracing overhead: the sum over one pass of each case's traced minus
        # untraced latency.  Were those differences noise only, their sum
        # would scatter by about the root of their summed squares; the
        # overhead is resolved only when it is well above that.
        diffs = [[t.seconds - u.seconds for u, t in zip(us, ts)]
                 for us, ts in zip(plain, traced)]
        overhead = median([sum(d) for d in diffs])
        noise = median([math.sqrt(sum(x * x for x in d)) for d in diffs])
        metrics = layer_metrics(tracer, len(traced), overhead, noise)
        declared = spec["per_layer"]
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))
        detail["passes"] = {"untraced": [round(wall(outs), 4) for outs in plain],
                            "traced": [round(wall(outs), 4) for outs in traced]}
        first_pass = plain[0]
        measured = [o for outs in plain for o in outs]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise SystemExit("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(metrics), sorted(names)))

    unexpected = [o for o in every if o.unexpected]
    detail.update({
        "digest": digest(sorted((o.case.name, o.digest) for o in first_pass if o.digest)),
        "failures": {kind: sum(o.failed for o in measured if o.case.kind == kind)
                     for kind in ("normal", "known_bad", "canary")},
        "unexpected": [[o.case.name, o.status, o.message] for o in unexpected],
        "failed_cases": sorted({(o.case.name, o.status) for o in measured if o.failed}),
    })
    print(json.dumps(detail))
    result = {
        "correct": not unexpected,
        "attempted": len(every),
        "failed": len(unexpected),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
