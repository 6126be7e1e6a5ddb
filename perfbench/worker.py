"""One benchmark sample in a fresh process.

Imports offlang from the checkout's `src/`, warms up, then runs the given
offlang subcommands in-process through `cli.main`, each with `--config`, and
writes a JSON result: the moment set-up ended, each command's exit code, wall
time and captured stdout, and the process's peak RSS. With `--trace` the
layer functions are wrapped first and the spans are written next to the
result. With `--setup-only` it stops after the warm-up.

    python3 perfbench/worker.py --out RESULT.json [--config CFG CMD ...] [--trace] [--setup-only]
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--config")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("commands", nargs="*")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import offlang
    from offlang import cli

    if Path(offlang.__file__).resolve().parent != ROOT / "src" / "offlang":
        print(f"error: offlang imported from {offlang.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm = np.ones((64, 64))
    warm @ warm  # the first BLAS call sets up its buffers
    ready = time.monotonic()
    result = {"ready": ready, "commands": []}
    if args.setup_only:
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return 0

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    for command in args.commands:
        if recorder:
            recorder.run_id = command
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main([command, "--config", args.config])
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
        result["commands"].append({"command": command, "rc": rc, "wall_s": wall, "stdout": out.getvalue()})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder:
        recorder.uninstall()
        spans = args.out.with_suffix(".spans.jsonl")
        recorder.dump(spans)
        result["spans"] = str(spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
