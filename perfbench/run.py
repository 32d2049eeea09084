#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark run.

    python3 perfbench/run.py --workload fleet_serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds the
rightsizer library and the benchmark (Release) under .bench_build/, or under
$CARGO_TARGET_DIR when it is set; later calls only rebuild what changed.
Build output goes to stderr, so stdout carries only the benchmark's lines:
a provenance line and, last, the result line.  With --trace 1 the spans are
written to the build directory as spans-<workload>-<seed>.json.

Exit codes: the benchmark's own (0 ok, 1 output mismatch, 2 bad arguments),
or 1 when the build fails, for instance in a directory without the sources.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path / "perfbench"


def build(out: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def source_digest() -> str:
    """sha256 over the library's sources and build file, path and content."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in [ROOT / "CMakeLists.txt", *files]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no rightsizer sources next to {HERE}",
              file=sys.stderr)
        return 1
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(out / f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
