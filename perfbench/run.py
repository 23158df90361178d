#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator's libraries plus the svcbench program)
with CMake under $CARGO_TARGET_DIR (default .bench_build), runs the
decorator-transparency test once per build, then runs svcbench for one
workload. With --trace 0 it prints every end-to-end metric; with
--trace 1 it prints the per-layer metrics of a traced run. Every result
carries a host fingerprint and is kept under the build directory, so a
later run can say whether it is comparable with the previous one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every output was correct.
"""

import argparse
import glob
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# svcbench itself runs for --seconds plus one pass and its set-up; the
# cap keeps a wedged run from outliving the benchmark's time limit.
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840
TEST_TIMEOUT_S = 120

# Fingerprint fields that must match for two results to be comparable.
# The load average is recorded but not matched: it differs every run.
MATCHED_FIELDS = ("cores", "cpu_model", "compiler", "build_type",
                  "svc_kernel")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout, env=None):
    """Run cmd with its output on stderr, killing its process group on
    timeout. Returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))


def build(build_root):
    """Configure (once) and build perfbench; return the build dir."""
    bdir = os.path.join(build_root, "cmake")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_checked(["cmake", "--build", bdir, "-j", jobs],
                   BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return bdir


def transparency_test(bdir, build_root):
    """Run the decorator-transparency test once per built binary."""
    exe = os.path.join(bdir, "perfbench_transparency_test")
    stamp = os.path.join(bdir, "transparency.ok")
    mark = str(os.stat(exe).st_mtime_ns)
    if os.path.exists(stamp) and open(stamp).read() == mark:
        return
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TEST_TMPDIR=tmp + os.sep)
    if run_checked([exe, "--gtest_brief=1"], TEST_TIMEOUT_S, env) != 0:
        fail("decorator transparency test failed")
    with open(stamp, "w") as f:
        f.write(mark)


def cmake_cache(bdir, key):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def compiler(bdir):
    for path in glob.glob(os.path.join(bdir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        fields = {}
        with open(path) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID",
                            "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        fields[key] = line.split('"')[1]
        if fields:
            return "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                              fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(bdir, loadavg):
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(bdir),
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "svc_kernel": os.environ.get("SVC_KERNEL") or "event (default)",
        "loadavg_1m": loadavg,
    }


def compare_with_previous(path, fp):
    """Say whether this result is comparable with the previous one."""
    if not os.path.exists(path):
        return "first result for this workload and mode in this build"
    try:
        with open(path) as f:
            old = json.load(f)["fingerprint"]
    except (OSError, ValueError, KeyError):
        return "previous result unreadable; comparability unknown"
    diff = [k for k in MATCHED_FIELDS if old.get(k) != fp.get(k)]
    if diff:
        return ("NOT comparable with the previous result: fingerprint "
                "differs in " + ", ".join(diff))
    return "comparable with the previous result (fingerprints match)"


def run_svcbench(bdir, workdir, args):
    cmd = [os.path.join(bdir, "svcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("svcbench timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("svcbench exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("svcbench printed nothing")
    return json.loads(lines[-1])


def select(measured, wanted, require_nonzero):
    """Pick the metrics BENCHMARK.json lists; return (metrics, errors)."""
    picked, errors = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            errors.append("metric %s has unit %s, expected %s"
                          % (m["name"], got["unit"], m["unit"]))
        value = got["value"]
        if not math.isfinite(value) or (require_nonzero and value == 0):
            errors.append("metric %s has invalid value %r"
                          % (m["name"], value))
        picked[m["name"]] = {"value": value, "unit": m["unit"]}
    return picked, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    loadavg = os.getloadavg()[0]
    if not os.path.exists(SPEC):
        fail("BENCHMARK.json not found at the repository root")
    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    bdir = build(build_root)
    transparency_test(bdir, build_root)

    workdir = os.path.join(build_root, "work")
    os.makedirs(workdir, exist_ok=True)
    res = run_svcbench(bdir, workdir, args)

    fp = fingerprint(bdir, loadavg)
    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(
        results, "%s-trace%d.json" % (args.workload, args.trace))
    verdict = compare_with_previous(result_path, fp)

    e2e = res["metrics"]
    if args.trace:
        metrics, errors = select(res.get("layers", {}), spec["per_layer"],
                                 False)
    else:
        metrics, errors = select(e2e, spec["end_to_end"], True)
    correct = (res["correct"] and res["failed"] == 0
               and e2e["fail_ratio"]["value"] == 0 and not errors)

    print("host: " + " ".join("%s=%s" % (k, json.dumps(v))
                              for k, v in fp.items()))
    print("fingerprint: " + verdict)
    print("workload %s seed %d trace %d: %d untraced + %d traced passes, "
          "%d items per pass, rows digest %s"
          % (args.workload, args.seed, args.trace, res["passes"],
             res["traced_passes"], res["items_per_pass"],
             res["rows_digest"]))
    for f in res["failures"]:
        print("FAILED: " + f)
    for e in errors:
        print("ERROR: " + e)
    shown = metrics if args.trace else e2e
    for name, m in shown.items():
        print("  %-36s %18.9g %s" % (name, m["value"], m["unit"]))

    with open(result_path, "w") as f:
        json.dump({"fingerprint": fp, "seed": args.seed,
                   "rows_digest": res["rows_digest"], "correct": correct,
                   "metrics": shown}, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
