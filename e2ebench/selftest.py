#!/usr/bin/env python3
"""Tiny-scale self-test of the e2ebench benchmark.

    python3 e2ebench/selftest.py

Runs every workload for about a second on a small collection, untraced and
traced, through run.py. For each run it checks that the exit code is 0,
that the last line is the result object with correct = true and failed = 0
(op_error_ratio = 0), and that every metric BENCHMARK.json names for that
mode is present with its unit, as are the printed-only p99s that
layers.json lists. It also checks that layers.json covers
exactly the per-layer metrics of BENCHMARK.json. Exits 1 on any failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_ROWS = 4000


def check_run(spec, printed_only, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--n", str(TINY_ROWS)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    errors = []
    if r.returncode != 0:
        errors.append("exit code %d: %s" % (r.returncode, r.stderr[-400:]))
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["last line is not a JSON result"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("correct=%s failed=%s" % (result.get("correct"),
                                                result.get("failed")))
    if not result.get("attempted", 0) >= 1:
        errors.append("attempted < 1")
    if not any(l.split()[:2] == ["op_error_ratio", "0"] for l in lines):
        errors.append("op_error_ratio is not printed as 0")
    for m in printed_only:
        if not any(l.split()[:1] == [m["name"]] and m["unit"] in l.split()
                   for l in lines):
            errors.append("%s is not printed with unit %s" % (m["name"], m["unit"]))
    want = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in want:
        if m["name"] not in got:
            errors.append("missing metric %s" % m["name"])
        elif got[m["name"]].get("unit") != m["unit"]:
            errors.append("%s has unit %s, want %s" % (
                m["name"], got[m["name"]].get("unit"), m["unit"]))
    extra = set(got) - {m["name"] for m in want}
    if extra:
        errors.append("unexpected metrics %s" % sorted(extra))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    failures = []
    named = {m for layer in layers["layers"] for m in layer["metrics"]}
    declared = {m["name"] for m in spec["per_layer"]}
    if named != declared:
        failures.append("layers.json vs BENCHMARK.json per_layer: %s" %
                        sorted(named ^ declared))
    e2e = {m["name"] for m in spec["end_to_end"] + layers["printed_only"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for layer in layers["layers"]:
        cells = layer["predictions"] + [
            {"moves": c["metrics"], "on": c["on"]} for c in layer["no_change"]]
        for cell in cells:
            for name in set(cell["moves"]) - e2e:
                failures.append("layers.json names unknown metric " + name)
            for name in set(cell["on"]) - workloads:
                failures.append("layers.json names unknown workload " + name)
    for w in spec["workloads"]:
        for trace in (0, 1):
            for e in check_run(spec, layers["printed_only"], w["name"], trace):
                failures.append("%s trace=%d: %s" % (w["name"], trace, e))
            print("%-14s trace=%d checked" % (w["name"], trace))
    for f in failures:
        print("FAIL:", f)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
