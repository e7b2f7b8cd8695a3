#!/usr/bin/env python3
"""Builds and runs the fdtdmm end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tline_engines, xtalk_nonlinear, emc_mc_ensemble, ac_skin_band.
The first call configures and builds the library and the benchmark from
source into .bench_build/perfbench (Release); later calls only rebuild what
changed. Build output goes to stderr, so the last stdout line is always the
benchmark's JSON result. Exits nonzero, without a result, when the build
fails or the sources are missing, and with code 1 when an output check
fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fdtdmm_perfbench")
TIMEOUT_S = 900


def source_id():
    """git SHA when the tree is a git checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=TIMEOUT_S, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr, timeout=TIMEOUT_S, env=env)


def main():
    try:
        build()
    except (OSError, subprocess.SubprocessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 3
    cmd = [BINARY] + sys.argv[1:] + ["--source-id", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
