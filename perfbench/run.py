#!/usr/bin/env python3
"""Build the benchmark executable from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the source tree. The executable (perfbench/perfbench.ml)
is built with dune, then run once; its standard output is passed through
with the metadata line completed (source revision, host CPU count,
compiler flambda status). The last line printed is the JSON result. Any
build failure, crash, timeout or malformed result exits non-zero without
printing a result.

--self-test runs every workload of BENCHMARK.json at a tiny size, traced
and untraced, and checks that every metric BENCHMARK.json names is
printed with its unit, that the outputs pass their checks, and that the
traced and untraced runs report the same fingerprint.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % proc.returncode)


def source_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: digest the sources the executable is built from.
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def flambda():
    try:
        cfg = subprocess.run(["ocamlfind", "ocamlopt", "-config"],
                             capture_output=True, text=True, timeout=30)
        for line in cfg.stdout.splitlines():
            if line.startswith("flambda:"):
                return line.split(":", 1)[1].strip() == "true"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def run_exe(args):
    """Run the built executable; return its stdout lines, or exit on failure."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench.exe timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("perfbench.exe exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("perfbench.exe printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    return lines, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_metrics(result, specs):
    """Problems with the metrics of one result against BENCHMARK.json."""
    problems = []
    metrics = result["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None:
            problems.append("missing metric " + spec["name"])
        elif m.get("unit") != spec["unit"]:
            problems.append("%s: unit %r, expected %r"
                            % (spec["name"], m.get("unit"), spec["unit"]))
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: value %r is not a finite number"
                            % (spec["name"], m.get("value")))
    extra = set(metrics) - {s["name"] for s in specs}
    if extra:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(sorted(extra)))
    return problems


def line_value(lines, key):
    for line in lines:
        if line.startswith('{"%s"' % key):
            return json.loads(line)[key]
    return None


def one_run(argv):
    bench = load_benchmark()
    build()
    lines, result = run_exe(argv)
    trace = argv[argv.index("--trace") + 1] == "1" if "--trace" in argv else False
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    problems = check_metrics(result, specs)
    if problems:
        fail("; ".join(problems))
    meta = line_value(lines, "meta") or {}
    meta.update(git_rev=source_revision(), nproc=os.cpu_count(),
                flambda=flambda())
    for line in lines[:-1]:
        if not line.startswith('{"meta"'):
            print(line)
    print(json.dumps({"meta": meta}))
    print(lines[-1])
    sys.stdout.flush()


def self_test():
    bench = load_benchmark()
    with open(os.path.join(HERE, "plan.json")) as f:
        plan = json.load(f)
    build()
    problems = []
    for spec in bench["per_layer"]:
        if spec["name"] not in plan["per_layer"]:
            problems.append("plan.json does not say what %s should move" % spec["name"])
    for wl in bench["workloads"]:
        name = wl["name"]
        prints = {}
        for trace in ("0", "1"):
            lines, result = run_exe(["--workload", name, "--seed", "7",
                                     "--seconds", "0.2", "--trace", trace,
                                     "--size", "tiny"])
            specs = bench["per_layer"] if trace == "1" else bench["end_to_end"]
            ps = check_metrics(result, specs)
            if not result["correct"] or result["failed"] != 0:
                ps.append("output checks failed")
            if trace == "0":
                ps += ["%s is 0" % s["name"] for s in specs
                       if result["metrics"].get(s["name"], {}).get("value") == 0]
            prints[trace] = (line_value(lines, "info") or {}).get("fingerprint")
            problems += ["%s trace=%s: %s" % (name, trace, p) for p in ps]
        # The traced run checks its replays against its own untraced
        # repetitions; across the two processes the outputs must agree too.
        if prints["0"] is None or prints["0"] != prints["1"]:
            problems.append("%s: fingerprint %s in the traced run <> %s"
                            % (name, prints["1"], prints["0"]))
        print("%-18s %s" % (name, "ok" if not any(p.startswith(name) for p in problems)
                            else "FAILED"))
    for p in problems:
        print("FAILED " + p)
    print("self-test: %s" % ("PASS" if not problems else "FAIL"))
    sys.exit(0 if not problems else 1)


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        self_test()
    else:
        one_run(argv)


if __name__ == "__main__":
    main()
