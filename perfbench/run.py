#!/usr/bin/env python3
"""Build and run the phi benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record     # rewrite perfbench/fingerprints.txt
    python3 perfbench/run.py --selftest   # the benchmark's own unit tests

Run it from the root of a checkout. The OCaml sources live in
perfbench/_src, a directory the repository's own dune build ignores (dune
skips directories whose name starts with "_"), so the benchmark never
touches the repository's build or test gates. This script assembles a
private dune workspace under .bench_build/perfbench from the library
sources in lib/ plus perfbench/_src, builds it in release mode and runs the
benchmark executable from the checkout root. Everything it reads and
writes stays inside the checkout; the dune cache is disabled so nothing
lands in the home directory either.

The last line of standard output is the JSON result. Build output goes to
standard error. Without lib/ next to perfbench/ the build cannot be
assembled and the script exits with status 2 without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "perfbench" / "_src"
LIB = ROOT / "lib"
WORKSPACE = ROOT / ".bench_build" / "perfbench"
FINGERPRINTS = Path("perfbench") / "fingerprints.txt"
WORKLOADS = ["dumbbell_onoff", "parking_lot_pdes", "wan_remyphi_flap", "context_service"]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RECORD_TIMEOUT_S = 600

DUNE_PROJECT = "(lang dune 3.0)\n"
# Release profile, as the repository's own dune-workspace sets it: the
# dev profile's -opaque would disable cross-module inlining on the hot
# paths this benchmark measures.
DUNE_WORKSPACE = "(lang dune 3.0)\n(context (default (profile release)))\n"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst, keep):
    """Mirror the files of src that `keep` accepts into dst, rewriting only
    changed files and removing ones that disappeared from src."""
    wanted = set()
    for path in src.rglob("*"):
        if not path.is_file() or not keep(path):
            continue
        rel = path.relative_to(src)
        wanted.add(rel)
        out = dst / rel
        data = path.read_bytes()
        if out.is_file() and out.read_bytes() == data:
            continue
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(data)
    if dst.is_dir():
        for path in dst.rglob("*"):
            if path.is_file() and path.relative_to(dst) not in wanted:
                path.unlink()


def write_if_changed(path, text):
    if not path.is_file() or path.read_text() != text:
        path.write_text(text)


def is_source(path):
    return path.name == "dune" or path.suffix in (".ml", ".mli")


def build(targets):
    if not LIB.is_dir() or not SRC.is_dir():
        fail(f"run from a phi checkout: need {LIB} and {SRC}")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    WORKSPACE.mkdir(parents=True, exist_ok=True)
    sync_tree(LIB, WORKSPACE / "lib", is_source)
    sync_tree(SRC, WORKSPACE / "perfbench", is_source)
    write_if_changed(WORKSPACE / "dune-project", DUNE_PROJECT)
    write_if_changed(WORKSPACE / "dune-workspace", DUNE_WORKSPACE)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", str(WORKSPACE), "--display", "quiet"]
    cmd += [f"./perfbench/{t}" for t in targets]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")
    return WORKSPACE / "_build" / "default" / "perfbench"


def run(cmd, timeout, stdout=None, cwd=ROOT):
    try:
        return subprocess.run(cmd, cwd=cwd, timeout=timeout, stdout=stdout).returncode
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} timed out after {timeout} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="recompute every workload's fingerprints into " + str(FINGERPRINTS))
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's unit tests")
    args = ap.parse_args()

    if args.selftest:
        out = build(["test_perfbench.exe"])
        # Alcotest keeps its logs under _build/_tests of the working directory.
        sys.exit(run([str(out / "test_perfbench.exe")], RUN_TIMEOUT_S, cwd=WORKSPACE))

    exe = build(["main.exe"]) / "main.exe"
    if args.record:
        tmp = ROOT / ".bench_build" / "fingerprints.txt"
        with open(tmp, "w") as f:
            for w in WORKLOADS:
                code = run([str(exe), "--workload", w, "--record"], RECORD_TIMEOUT_S, stdout=f)
                if code != 0:
                    fail(f"recording {w} failed")
        shutil.copyfile(tmp, ROOT / FINGERPRINTS)
        print(f"wrote {FINGERPRINTS}", file=sys.stderr)
        return

    if args.workload is None:
        fail("--workload is required")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.exit(run(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
