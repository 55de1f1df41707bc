#!/usr/bin/env python3
"""Airshed repository benchmark runner (standard library only).

One workload, as BENCHMARK.json's command runs it (--seconds defaults to
its run_seconds):

    python3 benchmark/run.py --workload la_day --seed 1998 --trace 0

builds airshed_benchmark into build-bench/ when sources changed, then runs a
closed loop with one client: one airshed_benchmark process per operation,
each started cold, the next launched only while it is expected to end inside
the --seconds window (at least one operation per run). Set-up-only processes
then bring the run to SETUP_SAMPLES cold set-ups. It checks every
operation's outputs against benchmark/reference.json, prints every metric
with its name and unit, writes a results file under build-bench/results/ and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics (medians over
the run's operations); --trace 1 runs one more, traced, operation and
reports the per-layer metrics, writing <trace-dir>/<workload>.trace.json
(Chrome trace) and <trace-dir>/<workload>.layers.json.

Other modes:

    --repeats N [--vary-seed] [--trace 1]
        every workload N times, round-robin so drift on a shared host hits
        every workload alike; writes build-bench/results-<time>.json for
        benchmark/compare.py and, with --trace 1, one traced run each.
    --smoke
        the self-test registered with ctest: smoke-sized workloads, count
        repeatability, thread invariance, seed sensitivity, closure of the
        span accounting and the correctness gate.
    --write-reference
        regenerates benchmark/reference.json at the default seed.
"""

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1998
PROGRAM = "airshed_benchmark"
# A run must end within 180 s; airshed_benchmark gets what is left.
PROGRAM_TIMEOUT_S = 170
# Cold set-ups timed per untraced run. One process's set-up runs up to 2x
# slower on some CPUs of a shared host than on others, so setup_s is the
# median over this many processes, not over the one or two operations.
SETUP_SAMPLES = 10
# Correctness gate against the reference at the default seed.
MEAN_TOLERANCE = 0.02
PEAK_TOLERANCE = 0.05
# Physical ranges (ppm) that every seed must respect: (mean O3, mean NO2,
# mean CO, peak O3). Generous on purpose; they catch garbage, not drift.
RANGES = {
    "o3": (0.005, 0.2),
    "no2": (0.0, 0.05),
    "co": (0.05, 2.0),
    "peak": (0.005, 0.5),
}
# Counts that must repeat exactly at a fixed thread count.
EXACT_COUNTS = (
    "chem.substeps",
    "core.steps",
    "svc.input_cache_hits",
    "svc.input_cache_misses",
    "durable.journal_records",
)


class BenchError(Exception):
    """A failure that ends the run without printing a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {e}")


def threads_default():
    return max(1, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# Build and launch
# ---------------------------------------------------------------------------


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(
            f"no Airshed sources beside {BENCH_DIR.name}/: expected "
            f"CMakeLists.txt and src/ in {ROOT}")
    jobs = str(threads_default())
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            raise BenchError(f"build failed: {' '.join(cmd)}: {e}")
    program = build_dir / PROGRAM
    if not program.is_file():
        raise BenchError(f"build produced no {program}")
    return program


def run_program(program, build_dir, workload, seed, threads=None,
                trace_dir=None, smoke=False, setup_only=False):
    """One operation in a fresh airshed_benchmark process."""
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads or threads_default()),
           "--work-dir", str(build_dir / "work" / workload)]
    if trace_dir:
        cmd += ["--trace-dir", str(trace_dir)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: airshed_benchmark exceeded "
                         f"{PROGRAM_TIMEOUT_S} s")
    if p.returncode != 0:
        raise BenchError(f"{workload}: airshed_benchmark exited with "
                         f"{p.returncode}")
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload}: unreadable airshed_benchmark "
                         f"output: {e}")


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def check_rows(rows, ref_rows, problems, label):
    """Physical ranges always; the reference where one applies."""
    for row in rows:
        hour, o3, no2, co, peak = row
        values = {"o3": o3, "no2": no2, "co": co, "peak": peak}
        for name, v in values.items():
            lo, hi = RANGES[name]
            if v is None or not math.isfinite(v) or not lo <= v <= hi:
                problems.append(f"{label} hour {hour}: {name} {v} outside "
                                f"[{lo}, {hi}] ppm")
        if o3 is not None and peak is not None and peak < o3:
            problems.append(f"{label} hour {hour}: peak O3 below the mean")
    if ref_rows is None:
        return
    for row, ref in zip(rows, ref_rows):
        if row[0] != ref[0]:
            problems.append(f"{label}: hour {row[0]} where the reference "
                            f"has hour {ref[0]}")
            return
        for i, name, tol in ((1, "mean O3", MEAN_TOLERANCE),
                             (2, "mean NO2", MEAN_TOLERANCE),
                             (3, "mean CO", MEAN_TOLERANCE),
                             (4, "peak O3", PEAK_TOLERANCE)):
            if row[i] is None or abs(row[i] - ref[i]) > tol * abs(ref[i]):
                problems.append(f"{label} hour {row[0]}: {name} {row[i]} is "
                                f"more than {tol:.0%} off the reference "
                                f"{ref[i]}")


def check(doc, reference):
    """Returns (attempted, failed, problems, bit_identical)."""
    out = doc["outputs"]
    problems = []
    ref = None
    if reference and doc["seed"] == reference["seed"]:
        ref = reference["workloads"].get(doc["workload"])
    if "scenarios" not in out:
        attempted = 1
        if not out["finite_nonneg"]:
            problems.append("non-finite or negative concentrations")
        if len(out["hourly"]) != doc["hours"]:
            problems.append(f"{len(out['hourly'])} hourly rows for "
                            f"{doc['hours']} hours")
        check_rows(out["hourly"], ref and ref["hourly"], problems, "field")
        bit_identical = None
        if ref and not doc["smoke"]:
            bit_identical = out["digest"] == ref["digest"]
        failed = attempted if problems else 0
        return attempted, failed, problems, bit_identical

    attempted = doc["scenarios_per_op"]
    failed = out["failed"]
    if failed:
        problems.append(f"{failed} scenario(s) not Ok or failing read-back")
    if not out["journal_sealed"]:
        problems.append("the batch journal did not replay as sealed")
    ref_scn = ref and {s["id"]: s for s in ref["scenarios"]}
    bad = set()
    matches = []
    for s in out["scenarios"]:
        scn_problems = []
        r = ref_scn.get(s["id"]) if ref_scn else None
        if len(s["hourly"]) != s["hours"]:
            scn_problems.append(f"scenario {s['id']}: {len(s['hourly'])} "
                                f"hourly rows for {s['hours']} hours")
        check_rows(s["hourly"], r and r["hourly"], scn_problems,
                   f"scenario {s['id']}")
        if scn_problems:
            bad.add(s["id"])
            problems += scn_problems
        if r:
            matches.append(s["checksum"] == r["checksum"])
    failed += len(bad)
    if not out["journal_sealed"]:
        failed = attempted
    bit_identical = all(matches) if matches else None
    return attempted, min(failed, attempted), problems, bit_identical


def load_reference():
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(docs, setups):
    walls = [d["wall_s"] for d in docs]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(d["peak_rss_kb"] for d in docs)
        / 1024.0,
        "scenarios_per_hour":
            docs[0]["scenarios_per_op"] * len(walls) * 3600.0 / sum(walls),
    }


def metric_block(values, defs):
    missing = [d["name"] for d in defs if d["name"] not in values]
    if missing:
        raise BenchError("airshed_benchmark reported no value for "
                         + ", ".join(missing))
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in defs}


def provenance(docs, args, seeds, with_host=False):
    first = docs[0] if docs else {}
    p = {
        "nproc": os.cpu_count(),
        "build_type": first.get("build_type"),
        "compiler": first.get("compiler"),
        "git_commit": git_commit(),
        "seeds": seeds,
        "threads": threads_default(),
        "seconds": args.seconds,
        "python": platform.python_version(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if with_host:
        p["cpu_model"] = cpu_model()
    return p


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def measure(program, args, spec, reference, workload, seed, trace, trace_dir):
    """The closed loop of one run, plus one traced operation with trace."""
    docs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        docs.append(run_program(program, args.build_dir, workload, seed))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > args.seconds:
            break
    untraced = docs
    setups = [d["setup_s"] for d in docs]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_program(program, args.build_dir, workload, seed,
                                  setup_only=True)["setup_s"])
    if trace:
        docs = docs + [run_program(program, args.build_dir, workload, seed,
                                   trace_dir=trace_dir)]
    attempted = failed = 0
    problems = []
    bit_identical = None
    for doc in docs:
        a, f, p, bit = check(doc, reference)
        attempted += a
        failed += f
        problems += p
        bit_identical = bit if bit_identical is None else bit_identical and bit
    digests = [d["outputs"]["digest"] for d in docs]
    if len(set(digests)) != 1:
        problems.append(f"operations disagree on the result: {digests}")
        failed = attempted
    if trace:
        layers = dict(docs[-1]["layers"])
        layers["obs.trace_overhead"] = (
            docs[-1]["wall_s"] / statistics.median(d["wall_s"] for d in untraced)
            - 1.0)
        metrics = metric_block(layers, spec["per_layer"])
    else:
        metrics = metric_block(end_to_end(docs, setups), spec["end_to_end"])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests[-1],
        "bit_identical": bit_identical,
        "metrics": metrics,
        "samples": {"wall_s": [d["wall_s"] for d in untraced],
                    "setup_s": setups},
        "raw": docs,
    }


def print_result(r):
    print(f"{r['workload']}  seed {r['seed']}  "
          f"{len(r['samples']['wall_s'])} operation(s)  "
          f"{len(r['samples']['setup_s'])} set-up sample(s)")
    for name, m in r["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    state = "ok" if r["correct"] else "FAILED"
    print(f"  correctness {state}: {r['attempted'] - r['failed']}/"
          f"{r['attempted']} ok, field_digest {r['digest']}, "
          f"bit_identical {json.dumps(r['bit_identical'])}")
    for p in r["problems"][:20]:
        print(f"    {p}")


def write_layers(r, trace_dir):
    doc = r["raw"][-1]
    path = Path(trace_dir) / f"{r['workload']}.layers.json"
    path.write_text(json.dumps({
        "workload": r["workload"],
        "seed": r["seed"],
        "metrics": r["metrics"],
        "all_layers": doc["layers"],
        "spans": doc["spans"],
        "closure": doc["closure"],
    }, indent=1) + "\n")


def write_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def mode_single(args, spec, program, reference):
    r = measure(program, args, spec, reference, args.workload, args.seed,
                args.trace, args.trace_dir)
    if args.trace:
        write_layers(r, args.trace_dir)
    write_json(args.build_dir / "results" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"provenance": provenance(r["raw"], args, [args.seed]),
                "result": r})
    print_result(r)
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": r["metrics"],
    }))
    return 0 if r["correct"] else 1


def mode_repeats(args, spec, program, reference):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    runs = []
    seeds = []
    for rep in range(args.repeats):
        seed = args.seed + rep if args.vary_seed else args.seed
        seeds.append(seed)
        order = names[rep % len(names):] + names[:rep % len(names)]
        for w in order:
            r = measure(program, args, spec, reference, w, seed, 0, None)
            r["repeat"] = rep
            log(f"[{rep + 1}/{args.repeats}] {w} seed {seed}: "
                f"wall_s {r['metrics']['wall_s']['value']:.4f}"
                f"{'' if r['correct'] else '  INCORRECT'}")
            runs.append(r)
    if args.trace:
        for w in names:
            r = measure(program, args, spec, reference, w, args.seed, 1,
                        args.trace_dir)
            write_layers(r, args.trace_dir)
            runs.append(r)
    summary = summarize(runs, spec)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")
    out = args.build_dir / f"results-{stamp}.json"
    prov = provenance(runs[0]["raw"], args, seeds, with_host=True)
    for r in runs:
        del r["raw"]
    write_json(out, {
        "provenance": dict(prov, repeats=args.repeats),
        "bounds": {m["name"]: m.get("bound") for m in spec["end_to_end"]},
        "runs": runs,
        "summary": summary,
    })
    print_summary(summary, spec)
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs) else 1


def summarize(runs, spec):
    summary = {}
    for r in runs:
        if r["trace"]:
            continue
        s = summary.setdefault(r["workload"], {"attempted": 0, "failed": 0})
        s["attempted"] += r["attempted"]
        s["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            s.setdefault(name, []).append(m["value"])
    for s in summary.values():
        for d in spec["end_to_end"]:
            values = s[d["name"]]
            q1, med, q3 = quartiles(values)
            s[d["name"]] = {"median": med, "q1": q1, "q3": q3,
                            "n": len(values), "unit": d["unit"]}
        s["error_rate"] = s["failed"] / s["attempted"]
    return summary


def print_summary(summary, spec):
    for w, s in summary.items():
        print(f"{w}: error_rate {s['error_rate']:.3g} "
              f"({s['failed']}/{s['attempted']})")
        for d in spec["end_to_end"]:
            m = s[d["name"]]
            spread = (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0
            print(f"  {d['name']:20s} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}  "
                  f"IQR/median {spread:.3f} (bound {d['bound']})")


def mode_smoke(args, spec, program, reference):
    """Self-test at smoke size; returns 0 when every check passes."""
    failures = []
    trace_dir = args.build_dir / "smoke-trace"
    # measure() adds obs.trace_overhead; the program reports the rest.
    per_layer = [d for d in spec["per_layer"]
                 if d["name"] != "obs.trace_overhead"]
    for w in [w["name"] for w in spec["workloads"]]:
        def go(seed, threads, trace=True):
            doc = run_program(program, args.build_dir, w, seed, threads,
                              trace_dir if trace else None, smoke=True)
            attempted, failed, problems, bit = check(doc, reference)
            if problems or failed:
                failures.append(f"{w} seed {seed} threads {threads}: "
                                f"{problems[:3]}")
            if trace:
                metric_block(doc["layers"], per_layer)
            return doc, bit

        threads = threads_default()
        a, bit = go(args.seed, threads)
        b, _ = go(args.seed, threads)
        c, _ = go(args.seed, 1)
        d, _ = go(args.seed + 1, threads, trace=False)
        for k in EXACT_COUNTS:
            if a["layers"][k] != b["layers"][k]:
                failures.append(f"{w}: {k} did not repeat "
                                f"({a['layers'][k]} vs {b['layers'][k]})")
        if a["layers"]["chem.substeps"] != c["layers"]["chem.substeps"]:
            failures.append(f"{w}: chem.substeps differs between "
                            f"{threads} and 1 thread(s)")
        digests = {x["outputs"]["digest"] for x in (a, b, c)}
        if len(digests) != 1:
            failures.append(f"{w}: one seed gave digests {sorted(digests)}")
        if d["outputs"]["digest"] in digests:
            failures.append(f"{w}: seeds {args.seed} and {args.seed + 1} "
                            f"gave the same digest")
        if bit is False:
            failures.append(f"{w}: results differ from reference.json")
        cl = a["closure"]
        gap = cl["unattributed_s"] + cl["phase_self_s"] - cl["bench_hour_s"]
        if abs(gap) > 0.01 * cl["bench_hour_s"]:
            failures.append(f"{w}: span accounting leaves {gap:.4g} s of "
                            f"{cl['bench_hour_s']:.4g} s unexplained")
        print(f"{w}: digest {a['outputs']['digest']}, chem.substeps "
              f"{a['layers']['chem.substeps']:.0f}, closure gap {gap:.3g} s")
    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def mode_write_reference(args, spec, program, _reference):
    workloads = {}
    for w in [w["name"] for w in spec["workloads"]]:
        doc = run_program(program, args.build_dir, w, DEFAULT_SEED)
        out = doc["outputs"]
        entry = {"hours": doc["hours"], "digest": out["digest"]}
        if "scenarios" in out:
            entry["scenarios"] = [
                {"id": s["id"], "checksum": s["checksum"],
                 "hourly": s["hourly"]} for s in out["scenarios"]]
        else:
            entry["hourly"] = out["hourly"]
        workloads[w] = entry
        log(f"reference {w}: digest {out['digest']}")
    REFERENCE_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-dir", type=Path)
    p.add_argument("--build-dir", type=Path, default=ROOT / "build-bench")
    p.add_argument("--repeats", type=int)
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {', '.join(names)}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.trace_dir is None:
            args.trace_dir = args.build_dir / "trace"
        args.trace_dir = args.trace_dir.resolve()
        args.build_dir = args.build_dir.resolve()
        program = build(args.build_dir)
        reference = load_reference()
        if args.smoke:
            return mode_smoke(args, spec, program, reference)
        if args.write_reference:
            return mode_write_reference(args, spec, program, reference)
        if args.repeats:
            return mode_repeats(args, spec, program, reference)
        if args.workload is None:
            raise BenchError("--workload is required (or --repeats, "
                             "--smoke, --write-reference)")
        return mode_single(args, spec, program, reference)
    except BenchError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
