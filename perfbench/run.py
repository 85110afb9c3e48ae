"""Benchmark of `glt-lab run <config>`: one client, closed loop, fresh interpreters.

    python3 perfbench/run.py --rtol R --atol A --workload NAME --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout.  The workload's config is generated from
the seed, then a single client runs it again and again, each repetition in a
fresh interpreter with the library's default threading (the benchmark never
sets GLT_LAB_THREADS or OPENBLAS_NUM_THREADS).  A new repetition starts only
when the last one's duration still fits in `--seconds`.  Every report is
checked against the stored reference (see refcheck.py); a failed check counts
in `failed`.

With `--trace 0` the last line of stdout carries the end-to-end metrics:
medians of run_s, cpu_s and peak_rss_mb over the repetitions, and of setup_s
over the repetitions plus a few set-up-only interpreters.  With `--trace 1`
untraced and traced repetitions alternate; the line carries the per-layer
metrics of the traced ones (see tracing.py) and the tracing overhead.  The
full record, with the environment and every sample, is written to
`.perfbench_out/<run>/result.json`, the last traced run's spans to
`spans.json` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refcheck import check_report
from tracing import UNITS
from workloads import WORKLOADS, make_config

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 8
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
E2E_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def environment() -> dict:
    """Library, BLAS and threading settings that produced the numbers."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "GLT_LAB_THREADS": os.environ.get("GLT_LAB_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def spawn(config: Path, timeout: float, setup_only=False, trace_path=None, run_id="") -> dict:
    cmd = [sys.executable, str(CHILD), str(config)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path), "--run-id", run_id]
    spawned = time.monotonic()
    # CLOCK_MONOTONIC is system-wide on Linux, so the child can subtract it
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True, text=True,
                          timeout=max(timeout, 1.0), cwd=ROOT)
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"],
                "wall_s": wall}
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    out["problems"] = []
    if out.get("traceback"):
        out["problems"].append(f"traceback: {out['traceback'][-2000:]}")
    return out


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def summarize(name: str, values, unit: str) -> str:
    t = tail(values)
    extra = f", p{t[0]:.0f} {t[1]:.6g} {unit}" if t else ", no percentile with 10 samples beyond it"
    return f"{name}: median {statistics.median(values):.6g} {unit}{extra}, n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rtol", type=float, required=True, help="relative tolerance on report values")
    ap.add_argument("--atol", type=float, required=True, help="absolute tolerance on report values")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "glt_lab" / "cli.py").is_file():
        print(f"error: no glt_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.ini"
    report = out_dir / "report.csv"
    config.write_text(make_config(args.workload, args.seed, str(report)), encoding="utf-8")

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - started)

    # first interpreter compiles bytecode and pulls the libraries into the
    # page cache; a CLI user pays neither on every run
    warm = spawn(config, remaining(), setup_only=True)
    if warm["problems"]:
        print("error: set-up failed: " + "; ".join(warm["problems"]), file=sys.stderr)
        return 2

    measuring = time.monotonic()
    setup = []
    for _ in range(SETUP_PROBES):
        probe = spawn(config, remaining(), setup_only=True)
        if probe["problems"]:
            print("error: set-up failed: " + "; ".join(probe["problems"]), file=sys.stderr)
            return 2
        setup.append(probe["setup_s"])
    reps, problems = [], []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        report.unlink(missing_ok=True)
        timed_out = False
        try:
            rep = spawn(config, remaining(), trace_path=out_dir / "spans.json" if traced else None,
                        run_id=f"{out_dir.name}/{len(reps)}")
        except subprocess.TimeoutExpired:
            rep, timed_out = {"problems": ["repetition timed out"]}, True
        rep["traced"] = traced
        if not rep["problems"]:
            text = report.read_text(encoding="utf-8") if report.exists() else ""
            rep["problems"] = check_report(args.workload, args.seed, text, rep["exit_code"],
                                           args.rtol, args.atol)
        if rep["problems"]:
            problems.append({"rep": len(reps), "problems": rep["problems"]})
            if report.exists():
                report.replace(out_dir / f"report-{len(reps)}.csv")
        reps.append(rep)
        if "run_s" in rep:
            setup.append(rep["setup_s"])
        if timed_out:
            break
        # a traced run needs one untraced and one traced repetition
        done = len(reps) >= (2 if args.trace else 1)
        if done and (time.monotonic() - measuring + rep["wall_s"] > args.seconds
                     or remaining() < 2 * rep["wall_s"]):
            break

    failed = sum(1 for r in reps if r["problems"])
    plain = [r for r in reps if "run_s" in r and not r["traced"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(), "setup_s": setup,
              "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
              "problems": problems}
    lines = [f"env: {json.dumps(record['environment'])}"]
    if args.trace == 0:
        samples = {name: [r[name] for r in plain] for name in ("run_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setup
        lines += [summarize(name, v, E2E_UNITS[name]) for name, v in samples.items() if v]
        metrics = {name: {"value": statistics.median(v), "unit": E2E_UNITS[name]}
                   for name, v in samples.items() if v}
    else:
        traced = [r for r in reps if r["traced"] and "layers" in r]
        metrics = {}
        if traced:
            metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
                       for name, unit in UNITS.items()}
            rows = len(report.read_text(encoding="utf-8").splitlines()) - 1 if report.exists() else 0
            metrics["cli.report_rows"] = {"value": rows, "unit": "count"}
        if traced and plain:
            overhead = (statistics.median(r["run_s"] for r in traced)
                        - statistics.median(r["run_s"] for r in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            lines.append(f"tracing overhead: {overhead:.6g} s on a median untraced run_s of "
                         f"{statistics.median(r['run_s'] for r in plain):.6g} s")
        for r in traced[-1:]:
            lines.append(f"self time, top spans of the last traced run ({r['spans']} spans):")
            lines += [f"  {name:40s} {s:9.4f} s" for name, s in r["self_time_top"]]
        record["layers"] = [r["layers"] for r in traced]
    for p in problems:
        lines.append(f"rep {p['rep']} FAILED: " + "; ".join(p["problems"])[:1000])
    record["metrics"] = metrics
    (out_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
