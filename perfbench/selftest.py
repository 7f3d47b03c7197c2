#!/usr/bin/env python3
"""Self-test of the perf ledger, at smoke size (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
- an untraced smoke run passes its parity check, has no failed
  request, and reports exactly the end-to-end metrics of
  BENCHMARK.json with their units, plus an error_rate line;
- a traced smoke run reports exactly the per-layer metrics;
- a run whose oracle lost one tuple (--perturb-oracle) fails: exit
  code not 0 and "correct": false.
Also checks that layers.json describes every per-layer metric.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

OUT = os.path.join(run.HERE, "out", "selftest")


def bench(env, workload, *extra):
    exe = os.path.join(run.ROOT, "_build", "default", "perfbench", "main.exe")
    args = [exe, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--smoke", "--out", OUT] + list(extra)
    p = subprocess.run(args, cwd=run.ROOT, env=env, capture_output=True,
                       text=True, timeout=run.RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1]) if lines else None


def expect(cond, what):
    if not cond:
        print("selftest FAILED: " + what)
        sys.exit(1)
    print("ok   " + what)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(run.HERE, "layers.json")) as f:
        layers = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(set(layers["metrics"]) == set(per_layer),
           "layers.json describes exactly the per-layer metrics")
    expect(all(m["layer"] in layers["layers"] for m in layers["metrics"].values()),
           "every per-layer metric names a known layer")

    env = dict(os.environ, DUNE_CACHE="disabled")
    expect(run.build(env) == 0, "benchmark builds")
    for w in [x["name"] for x in spec["workloads"]]:
        code, lines, res = bench(env, w, "--trace", "0")
        expect(code == 0 and res["correct"] and res["failed"] == 0
               and res["attempted"] > 0, w + ": smoke run passes its check")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == e2e, w + ": reports every end-to-end metric with its unit")
        expect(any(l.startswith("metric error_rate") for l in lines),
               w + ": prints error_rate")

        code, _, res = bench(env, w, "--trace", "1")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(code == 0 and res["correct"] and got == per_layer,
               w + ": traced run reports every per-layer metric with its unit")

        code, _, res = bench(env, w, "--trace", "0", "--perturb-oracle")
        expect(code != 0 and res is not None and not res["correct"],
               w + ": a perturbed oracle fails the run")
    print("selftest passed")


if __name__ == "__main__":
    main()
