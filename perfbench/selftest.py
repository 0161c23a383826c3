#!/usr/bin/env python3
"""Self-tests of the simulator benchmark (run from the repository root).

    python3 perfbench/selftest.py

Builds cc_perfbench like run.py does, then runs each workload in its small
mode (n of 12 to 16, a fixed op count, seconds per run) and checks:

  * every end_to_end metric of BENCHMARK.json is printed with its unit by an
    untraced run, and every per_layer metric by a traced run;
  * a traced run writes a Chrome trace-event file; at full size (a few ops,
    so seconds again) its layer shares plus bench.unattributed.share sum to 1
    within SHARE_TOLERANCE — at the small sizes a relay call takes
    microseconds and probe timing is mostly jitter. Self times telescope, so
    that sum is 1 + clamped_share and only catches probes that overshoot;
    on apsp_sparse, whose probes repeat every call of the op, probes that
    undershoot leave bench.unattributed.share above SHARE_TOLERANCE;
  * a deliberately corrupted answer fails its op instead of disappearing;
  * the same seed reproduces the inputs and the model digest exactly, and a
    different seed changes the inputs;
  * run.py exits non-zero without a result line when only BENCHMARK.json and
    perfbench/ are present.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

import run

SHARE_TOLERANCE = 0.10
SCRATCH = os.path.join(run.ROOT, ".bench_build", "selftest")


def bench(workload, *extra, seed=1, trace=0, ops=20, small=True):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "60",
           "--trace", str(trace), "--ops", str(ops), *extra] + (["--small"] if small else [])
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    header = {}
    for line in lines[:-1]:
        assert line.startswith("#"), f"non-header line before the result: {line!r}"
        for word in line[1:].split():
            key, eq, value = word.partition("=")
            if eq:
                header[key] = value
    return header, json.loads(lines[-1])


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def expect_metrics(result, spec, what):
    got = result["metrics"]
    check(set(got) == {m["name"] for m in spec}, f"{what}: exactly the listed metrics")
    for m in spec:
        check(got[m["name"]]["unit"] == m["unit"], f"{what}: {m['name']} in {m['unit']}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        return 1
    shares = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".share")]
    os.makedirs(SCRATCH, exist_ok=True)
    for w in [x["name"] for x in spec["workloads"]]:
        _, r = bench(w)
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{w}: small run correct")
        expect_metrics(r, spec["end_to_end"], f"{w} --trace 0")

        trace_file = os.path.join(SCRATCH, f"{w}.json")
        _, t = bench(w, "--trace-out", trace_file, trace=1)
        check(t["correct"], f"{w}: traced run correct, model cost equal across passes")
        expect_metrics(t, spec["per_layer"], f"{w} --trace 1")
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        check(events and all(e["ph"] == "X" for e in events), f"{w}: trace file has spans")
        # serving_rw writes every 16th request; six rebuilds average out the
        # host's noise on single samples.
        h, full = bench(w, trace=1, ops=96 if w == "serving_rw" else 3, small=False)
        total = sum(full["metrics"][s]["value"] for s in shares)
        check(full["correct"] and abs(total - 1) <= SHARE_TOLERANCE,
              f"{w}: full size, shares sum to {total:.4f}")
        check(abs(total - 1 - float(h["clamped_share"])) <= 1e-3,
              f"{w}: the sum exceeds 1 by the clamped share only")
        if w == "apsp_sparse":
            rest = full["metrics"]["bench.unattributed.share"]["value"]
            check(rest <= SHARE_TOLERANCE,
                  f"{w}: probes cover the op, {rest:.4f} unattributed")

        _, bad = bench(w, "--corrupt-op", "2")
        check(not bad["correct"] and bad["failed"] >= 1, f"{w}: corrupted answer fails its op")

        h1, _ = bench(w, seed=7)
        h2, _ = bench(w, seed=7)
        h3, _ = bench(w, seed=8)
        check(h1["model_digest"] == h2["model_digest"] and
              h1["inputs_digest"] == h2["inputs_digest"], f"{w}: same seed, same digests")
        check(h1["inputs_digest"] != h3["inputs_digest"], f"{w}: another seed, other inputs")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=170)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources the benchmark fails and prints no result")
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
