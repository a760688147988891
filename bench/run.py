"""hetcount benchmark: one workload per invocation, every sample in a fresh
child process.

    python3 bench/run.py --workload fig11a-sweep --seed 1 --seconds 12 --trace 0

Run it from the repository root.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` a separate traced run prints the
per-layer metrics and the tracing overhead.  Human-readable lines come
first, then one ``info`` JSON line (versions, machine, digest, checks), and
the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/NOTES.md for the workloads, the metrics and their definitions.
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

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
# A run must end within 180 s; children get what is left of this budget.
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB",
         "slots_per_rep": "slots", "acc_share_min": "share"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args, mode, env, deadline):
    """Run bench/worker.py once and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{mode} process printed no result") from None


def git_commit(root):
    """Commit of a git checkout, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def info(root, src, out):
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((src / "hetcount").glob("*.py")))
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": out.get("numpy"),
            "nproc": nproc, "commit": git_commit(root), "src_lines": lines}


def golden_digest(workload):
    return json.loads((BENCH / "golden.json").read_text()).get(workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "hetcount" / "__init__.py").is_file():
        print("error: src/hetcount not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(src)
    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            out = run_child(args, "trace", env, deadline)
            metrics = out.pop("layers")
            for span, reason in out["absent"].items():
                print(f"warning: span {span} absent: {reason}")
            for name, check in out["crosschecks"].items():
                ok = check["traced"] == check["expected"]
                print(f"crosscheck {'ok' if ok else 'MISMATCH'}: {name}: "
                      f"traced {check['traced']}, expected "
                      f"{check['expected']}")
        else:
            setups = [run_child(args, "setup", env, deadline)["setup_s"]
                      for _ in range(wl.setup_samples - 1)]
            out = run_child(args, "run", env, deadline)
            setups.append(out["setup_s"])
            out["setup_s_samples"] = setups
            out["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": out[name], "unit": unit}
                       for name, unit in UNITS.items()}
            digest = golden_digest(args.workload)
            out["csv_matches_golden"] = (digest is not None
                                         and out["csv_sha256"] == digest)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = out["attempted"], out["failed"]
    out["failed_frac"] = failed / attempted if attempted else 1.0
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    print("info " + json.dumps(dict(out, **info(root, src, out),
                                    workload=args.workload, seed=args.seed)))
    correct = failed == 0 and not out["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
