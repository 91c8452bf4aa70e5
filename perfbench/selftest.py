#!/usr/bin/env python3
"""Self-tests of the pipeline benchmark (perfbench/README.md).

    python3 perfbench/selftest.py

Runs perfbench/run.py at WorkloadScale 0.2 for one second per run and
checks that:
  * every run prints exactly the metrics BENCHMARK.json names, in order,
    and a clean run reports no failure;
  * an injected corrupt cell or response is counted as failed, traced or
    not;
  * an injected delay around one layer's calls moves that layer's metric
    and the traced sweep time on the workload that calls the layer, and
    leaves a workload that never calls it alone.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.2"
DELAY_MS = 50
WORKLOADS = ["sweep_paper", "sweep_dataspec", "sweep_cls_tracedir",
             "sweepd_mixed"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=600)
    if out.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), out.stderr))
    lines = out.stdout.strip().splitlines()
    m = re.search(r"injected delays: (\d+)", out.stdout)
    result = json.loads(lines[-1])
    result["delayed"] = int(m.group(1)) if m else 0
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sheets = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    check([w["name"] for w in spec["workloads"]] == WORKLOADS,
          "BENCHMARK.json names the four workloads")

    clean = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run(w, trace)
            clean[w, trace] = r
            check(list(r["metrics"]) == sheets[trace],
                  "%s trace=%d prints the metric sheet" % (w, trace))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 1,
                  "%s trace=%d clean run has no failure" % (w, trace))

    for w in WORKLOADS:
        for trace in (0, 1):
            r = run(w, trace, "corrupt")
            check(not r["correct"] and r["failed"] >= 1,
                  "%s trace=%d corrupt output raises failed" % (w, trace))

    delay = "delay:%%s:%d" % DELAY_MS
    sec = DELAY_MS / 1e3

    def delayed_pair(layer, metric, hit, miss, min_calls):
        """Delay @layer: @hit calls it, @miss never does."""
        d_hit = run(hit, 1, delay % layer)
        d_miss = run(miss, 1, delay % layer)
        b_hit, b_miss = clean[hit, 1], clean[miss, 1]
        moved = value(d_hit, metric) - value(b_hit, metric)
        check(moved >= 0.8 * min_calls * sec,
              "delay %s moves %s on %s (+%.3f s)" % (layer, metric, hit,
                                                     moved))
        swept = (value(d_hit, "perfbench.traced_sweep_s") -
                 value(b_hit, "perfbench.traced_sweep_s"))
        check(swept >= 0.8 * sec,
              "delay %s moves the traced sweep on %s (+%.3f s)" %
              (layer, hit, swept))
        check(d_miss["delayed"] == 0 and
              value(d_miss, metric) == value(b_miss, metric) == 0,
              "delay %s never reaches %s" % (layer, miss))
        other = abs(value(d_miss, "perfbench.traced_sweep_s") -
                    value(b_miss, "perfbench.traced_sweep_s"))
        check(other < 0.5 * swept,
              "delay %s leaves the traced sweep on %s (%.3f s)" %
              (layer, miss, other))

    # trace_io dominates the trace-dir sweep and never runs in the paper
    # sweep; the functional pass is the other way round; the conflict
    # profiler runs only in the data-speculation sweep.
    delayed_pair("trace_io", "trace_io.replay_s", "sweep_cls_tracedir",
                 "sweep_paper", 18)
    delayed_pair("tracegen", "tracegen.pass_s", "sweep_paper",
                 "sweep_cls_tracedir", 18)
    delayed_pair("dataspec", "dataspec.conflict_profile_s", "sweep_dataspec",
                 "sweep_paper", 18)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
