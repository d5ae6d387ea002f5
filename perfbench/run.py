#!/usr/bin/env python3
"""End-to-end benchmark of the oebench library: one workload per call.

    python3 perfbench/run.py --workload sweep_table9 --seed 1 --seconds 20 --trace 0

Run it from the root of an oebench checkout. It builds the driver
(perfbench/CMakeLists.txt, which compiles the library from ../src with the
repository's own flags) into $CARGO_TARGET_DIR or .bench_build, runs the
workload in a fresh process, checks the outputs and prints a report. The
last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs twice, untraced and traced, and the
metrics are the per-layer metrics, including the tracing overhead (traced
minus untraced wall_s). The traced run's spans and the full results,
including host facts, go to <build dir>/results/.

Workload settings live in perfbench/workloads.json and the output digests
committed for the reference seed in perfbench/digests.json. A failed check
prints a result with "correct": false and no metrics, and exits 1.
--record-digest writes the digest of a clean run as the reference for its
seed instead of comparing against it; such a run also applies the
workload's verify_all_flags (serve_pool then checks every session, not a
sample, against batch RunPrequential).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + ([] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
           else generator),
        ["cmake", "--build", build_dir, "--target", "oebench_perf", "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return None
    binary = os.path.join(build_dir, "oebench_perf")
    return binary if os.path.exists(binary) else None


def driver_flags(config, workload, seed, seconds, trace, spans_out,
                 verify_all):
    flags = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": config["threads"],
        "min-reps": config["min_reps"],
    }
    flags.update(config["workloads"][workload]["flags"])
    if verify_all:
        flags.update(config["workloads"][workload].get("verify_all_flags", {}))
    if spans_out:
        flags["spans-out"] = spans_out
    out = []
    for key, value in flags.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out.append("--%s=%s" % (key, value))
    return out


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_driver(binary, flags):
    """Runs the driver once; returns its JSON object or None. Records the
    share of CPU time the hypervisor stole meanwhile (host noise)."""
    before = cpu_ticks()
    proc = subprocess.Popen([binary] + flags, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return None
    if stderr.strip():
        log(stderr.strip()[-4000:])
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("driver failed with exit code %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("driver printed no result object")
        return None
    after = cpu_ticks()
    if before and after and after[1] > before[1]:
        result["host"]["steal_frac"] = \
            (after[0] - before[0]) / (after[1] - before[1])
    return result


def check(result, workload, seed, digests, record):
    """Returns the list of failed checks for one driver result."""
    errors = list(result["errors"])
    acct = result["accounting"]
    if acct["attempted"] < 1:
        errors.append("no operation was attempted")
    if acct["attempted"] != acct["succeeded"] + acct["failed"] + \
            acct["dropped"] + acct["shed"]:
        errors.append("accounting does not add up: %s" % acct)
    for phase in result["phases"]:
        a = phase["accounting"]
        if a["attempted"] != a["succeeded"] + a["dropped"] + a["shed"] + \
                a["failed"]:
            errors.append("phase %s: offered != accepted + dropped + shed"
                          % phase["phase"])
    ref = reference_digest(digests, workload, seed)
    if not record and ref is not None and ref != result["digest"]:
        errors.append("output digest %s != committed %s for seed %d"
                      % (result["digest"], ref, seed))
    return errors


def reference_digest(digests, workload, seed):
    """The committed digest for this workload and seed, or None."""
    ref = digests.get(workload)
    if ref is None or ref["seed"] != seed:
        return None
    return ref["digest"]


def report(result, verdict):
    host = result["host"]
    print("workload %s  seed %d  %g s  trace %d" % (
        result["workload"], result["seed"], result["seconds"],
        result["trace"]))
    print("host: nproc %d, threads %d, cpu %s, %s, flags [%s], "
          "steal %.1f%%" % (
              host["nproc"], host["threads"], host["cpu"], host["compiler"],
              host["build_flags"], 100.0 * host.get("steal_frac", 0.0)))
    print("digest %s: %s" % (result["digest"], verdict))
    for note in result["notes"]:
        print("  " + note)
    for phase in result["phases"]:
        a = phase["accounting"]
        print("  %-16s attempted %d, succeeded %d, failed %d, dropped %d, "
              "shed %d" % (phase["phase"], a["attempted"], a["succeeded"],
                           a["failed"], a["dropped"], a["shed"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's digest as the reference")
    args = parser.parse_args()

    config = load_json(os.path.join(HERE, "workloads.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    digests_path = os.path.join(HERE, "digests.json")
    digests = load_json(digests_path)
    if args.workload not in config["workloads"]:
        log("unknown workload %r" % args.workload)
        return 2
    if args.seconds < 1 or args.seed < 0:
        log("--seconds must be >= 1 and --seed >= 0")
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    started = time.time()
    binary = build(build_dir)
    if binary is None:
        return 1
    log("build ready in %.1f s" % (time.time() - started))

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_out = os.path.join(results_dir, stem + ".spans.json")

    runs = [0, 1] if args.trace else [0]
    results = []
    for trace in runs:
        result = run_driver(binary, driver_flags(
            config, args.workload, args.seed, args.seconds, trace,
            spans_out if trace else None, args.record_digest))
        if result is None:
            return 1
        results.append(result)
    errors = []
    for result in results:
        errors += check(result, args.workload, args.seed, digests,
                        args.record_digest)
    if len({r["digest"] for r in results}) != 1:
        errors.append("untraced and traced runs disagree on the digest")

    final = results[-1]
    if args.trace:
        names = bench["per_layer"]
        measured = dict(final["per_layer"])
        measured["trace.overhead_s"] = (final["end_to_end"]["wall_s"] -
                                        results[0]["end_to_end"]["wall_s"])
        for key in ("attempted", "succeeded", "failed", "dropped", "shed"):
            measured["ops." + key] = final["accounting"][key]
    else:
        names = bench["end_to_end"]
        measured = dict(final["end_to_end"])
    metrics = {}
    for m in names:
        if m["name"] not in measured or measured[m["name"]] is None:
            errors.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    verdict = "verified" if not errors else "FAILED"
    if errors or args.record_digest:
        pass
    elif reference_digest(digests, args.workload, args.seed) is not None:
        verdict = "verified, matches the committed digest"
    report(final, verdict)
    for error in errors:
        print("  check failed: " + error)

    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump({"runs": results, "errors": errors, "metrics": metrics},
                  f, indent=1)

    if args.record_digest and not errors:
        digests[args.workload] = {"seed": args.seed,
                                  "digest": final["digest"]}
        with open(digests_path, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
        log("recorded digest %s for %s" % (final["digest"], args.workload))

    if errors:
        print(json.dumps({"correct": False,
                          "attempted": final["accounting"]["attempted"],
                          "failed": max(1, final["accounting"]["failed"]),
                          "metrics": {}}))
        return 1
    print(json.dumps({"correct": True,
                      "attempted": final["accounting"]["attempted"],
                      "failed": final["accounting"]["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
