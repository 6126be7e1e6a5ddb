"""offlang benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {classify,embed,tune-pu} --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed, times a few set-ups, then
runs samples, each a fresh worker process that runs the workload's offlang
commands in-process, until the next sample would end after `--seconds`.
Every output is checked. With `--trace 0` the last stdout line holds the
end-to-end metrics (medians over samples); with `--trace 1` untraced and
traced samples alternate and it holds the per-layer metrics from the traced
ones. Inputs, outputs and a results file live under perfbench/work/.
README.md explains the workloads and metrics.
"""

import argparse
import hashlib
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

import numpy as np

import gen
import tracing
from workloads import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # set-up-only launches before the first sample; one more precedes each sample
HARD_LIMIT_S = 165  # never start a sample that could end after this (a run must exit by 180 s)
NOT_APPLICABLE = 1.0  # value of a workload-specific metric on the other workloads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    """One BLAS thread (never more than nproc) and fixed string hashing."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": None, "version": None}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git must not report an enclosing repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=5).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env = worker_env()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(env.items()) if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Runner:
    """Launches workers one at a time and always waits for them."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = worker_env()
        self.launches = 0

    def launch(self, args: list[str]) -> tuple[dict | None, float]:
        """Run one worker; returns (its result or None, launch time)."""
        self.launches += 1
        out = self.work / f"worker-{self.launches}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(out), *args]
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"worker {self.launches} passed the time limit; killed", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not out.exists():
            return None, launched
        return json.loads(out.read_text(encoding="utf-8")), launched


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    wl = WORKLOADS[workload_name]
    work = HERE / "work" / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    summary = gen.generate(inputs, seed, **wl.gen)
    runner = Runner(work, started + HARD_LIMIT_S)
    attempted = failed = 0
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(name)

    setups = []

    def probe_setup() -> None:
        result, launched = runner.launch(["--setup-only"])
        check("set-up", result is not None)
        if result:
            setups.append(result["ready"] - launched)

    measure_start = time.monotonic()
    for _ in range(SETUP_PROBES):
        probe_setup()

    modes = (False, True) if trace else (False,)
    samples: list[dict] = []
    keys = []
    while True:
        probe_setup()  # spread over the run, so set-up is timed under the same conditions as the samples
        traced = modes[len(samples) % len(modes)]
        out = work / f"sample-{len(samples)}"
        config = work / f"config-{len(samples)}.json"
        config.write_text(json.dumps(wl.config(inputs, out), indent=1), encoding="utf-8")
        t0 = time.monotonic()
        result, launched = runner.launch(["--config", str(config), *(["--trace"] if traced else []), *wl.commands])
        sample = {"traced": traced, "elapsed_s": time.monotonic() - t0, "ok": False}
        samples.append(sample)
        for i, command in enumerate(wl.commands):
            ran = result["commands"][i] if result and i < len(result["commands"]) else None
            check(f"offlang {command} exits 0", ran is not None and ran["rc"] == 0)
        if result and all(c["rc"] == 0 for c in result["commands"]):
            try:
                figures, checks, key = wl.figures(result, summary, out)
            except (OSError, KeyError, ValueError, IndexError, AttributeError) as exc:
                check(f"outputs readable ({type(exc).__name__}: {exc})", False)
            else:
                for name, ok in checks:
                    check(name, ok)
                keys.append(key)
                sample.update(
                    ok=True, figures=figures, setup_s=result["ready"] - launched,
                    wall_s=sum(c["wall_s"] for c in result["commands"]),
                    peak_rss_mb=result["peak_rss_mb"], spans=result.get("spans"),
                )
        shutil.rmtree(out, ignore_errors=True)  # model and text-embedding files are large

        longest = max(s["elapsed_s"] for s in samples)
        now = time.monotonic()
        enough = len(samples) >= max(wl.min_samples, len(modes))
        if now + longest > runner.deadline or (enough and now + longest > measure_start + seconds):
            break
    if len(samples) < wl.min_samples:
        check("enough samples for the reproducibility check", False)
    for key in keys[1:]:
        check("same inputs and seed reproduce the same output", key == keys[0])

    plain = [s for s in samples if s["ok"] and not s["traced"]]
    setups += [s["setup_s"] for s in plain]
    metrics = {}
    if trace:
        traced_runs = [s for s in samples if s["ok"] and s["traced"]]
        per_sample = [tracing.layer_metrics(tracing.load_spans(Path(s["spans"]))) for s in traced_runs]
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_ratio":
                value = (statistics.median(s["wall_s"] for s in traced_runs)
                         / statistics.median(s["wall_s"] for s in plain)) if traced_runs and plain else 0.0
                n = len(traced_runs)
            else:
                values = [m[name] for m in per_sample]
                value, n = (statistics.median(values) if values else 0.0), len(values)
            metrics[name] = {"value": value, "unit": unit, "n": n}
    else:
        for name, unit, where in END_TO_END:
            if name == "setup_s":
                values = setups
            elif name in ("wall_s", "peak_rss_mb"):
                values = [s[name] for s in plain]
            elif where is not None and wl.name not in where:
                metrics[name] = {"value": NOT_APPLICABLE, "unit": unit, "n": 0, "applies": False}
                continue
            else:
                values = [s["figures"][name] for s in plain if name in s["figures"]]
            if not values:
                check(f"{name} measured", False)
                values = [0.0]
            metrics[name] = {"value": statistics.median(values), "unit": unit, "n": len(values)}

    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": summary, "environment": environment(), "failures": failures,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
        "setups_s": setups, "metrics": metrics,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
        },
    }
    shutil.rmtree(inputs, ignore_errors=True)
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description="offlang benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills and reaps its worker (Runner.launch's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "offlang" / "cli.py").is_file():
        print(f"error: no offlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in report["metrics"].items():
        shown = f"{m['value']:.6g}" if m.get("applies", True) else "n/a"
        print(f"{name:<44} {shown:>12} {m['unit']:<6} (median of {m['n']})")
    result = report["result"]
    print(f"{'failed_ratio':<44} {result['failed'] / result['attempted']:>12.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)"
          + (f": {'; '.join(report['failures'])}" if report["failures"] else ""))
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
