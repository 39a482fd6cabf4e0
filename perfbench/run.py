#!/usr/bin/env python3
"""Build and run the wavelet dI/dt benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (the repository's libraries, the
didt_serve daemon and the didt_bench benchmark program) into
.bench_build/, then runs one workload with didt_bench. Its last stdout
line is the result object. Exits non-zero without a result when the sources are
missing, the build fails, or DIDT_FAILPOINTS is armed.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep_cold", "sweep_warm", "mc_sampled", "serve_warm")
TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring didt_bench and didt_serve up to date."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4",
                    "--target", "didt_bench"],
                   check=True, stdout=sys.stderr)


def stop_group(pgid):
    """Stop what is left of a process group (a daemon whose didt_bench
    crashed) and wait until the group is empty."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        for _ in range(100):  # up to 10 s for the group to empty
            time.sleep(0.1)
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "tools", "perfbench"):
        paths = [ROOT / top] if (ROOT / top).is_file() else \
            sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
        for path in paths:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    if os.environ.get("DIDT_FAILPOINTS"):
        log("refusing to measure with DIDT_FAILPOINTS armed")
        return 2
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("no repository sources next to perfbench/")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed:", err)
        return 2

    cmd = [str(BUILD / "didt_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--source-id", source_id()]
    # Own process group, so nothing didt_bench spawned can outlive it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {TIMEOUT_S} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 3
    stop_group(proc.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())
