"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py <config> --spawned <monotonic time> [--setup-only]
                               [--trace <spans.json> --run-id <id>]

Imports the CLI from the checkout's `src/`, loads the config, and (unless
`--setup-only`) runs `main(["run", config])` as a CLI user would.  Prints one
JSON object: `setup_s` counts from the parent's spawn time to the loaded
config; `run_s`, `cpu_s` and `peak_rss_mb` cover the run call.  A traceback
out of the run is reported, not raised, so the parent can count it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import astuple, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import glt_lab.cli

    glt_lab.cli.load_config(args.config)
    out = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, str(ROOT / "perfbench"))
            from tracing import Span, Tracer, layer_metrics, self_time_table

            tracer = Tracer(args.run_id)
            tracer.install()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            out["exit_code"] = glt_lab.cli.main(["run", args.config])
            out["traceback"] = None
        except Exception:
            out["exit_code"] = None
            out["traceback"] = traceback.format_exc()
        out["run_s"] = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
        out["peak_rss_mb"] = usage1.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if tracer is not None:
            out["layers"] = layer_metrics(tracer.spans)
            out["self_time_top"] = self_time_table(tracer.spans)
            out["spans"] = len(tracer.spans)
            spans = {"fields": [f.name for f in fields(Span)], "spans": [astuple(s) for s in tracer.spans]}
            Path(args.trace).write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
