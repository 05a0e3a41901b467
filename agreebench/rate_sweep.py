#!/usr/bin/env python3
"""Ungated rate sweep of the r2-rate-uds workload (Delta = 40 ms).

    python3 agreebench/rate_sweep.py [--rates 25,50,75,100,150] [--seconds 10]
                                     [--seed 1] [--tail-limit-ms 800]

Runs the workload once per offered rate through agreebench/run.py and prints
one row per step: latency_ms_tail, cpu_ms_per_agreement,
protocols.fallback_frac and the admission lag. A step keeps up when every
agreement decided, the tail stays under --tail-limit-ms and no admission ran
more than one Delta late (no backlog). The last line names the highest rate
that kept up. Run it from the root of the checkout; it is not part of the
gated benchmark.
"""
import argparse
import os
import subprocess
import sys

DELTA_MS = 40.0


def run_step(rate, seconds, seed):
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
           "--workload", "r2-rate-uds", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--rate", str(rate)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    figures = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("metric", "extra"):
            figures[parts[1]] = float(parts[2])
    figures["exit"] = proc.returncode
    return figures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", default="25,50,75,100,150")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tail-limit-ms", type=float, default=800.0)
    args = ap.parse_args()

    print("| rate /s | decided /s | latency_ms_p50 | latency_ms_tail | "
          "cpu_ms_per_agreement | protocols.fallback_frac | "
          "admission_lag_ms_max | keeps up |")
    print("|---|---|---|---|---|---|---|---|")
    best = None
    for rate in [float(r) for r in args.rates.split(",")]:
        f = run_step(rate, args.seconds, args.seed)
        keeps_up = (f["exit"] == 0 and f.get("fail_frac", 1.0) == 0.0 and
                    f.get("latency_ms_tail", 1e9) <= args.tail_limit_ms and
                    f.get("serve.admission_lag_ms_max", 1e9) <= DELTA_MS)
        if keeps_up:
            best = rate
        print("| %g | %.1f | %.1f | %.1f | %.2f | %.3f | %.1f | %s |" % (
            rate, f.get("agreements_per_s", 0.0), f.get("latency_ms_p50", 0.0),
            f.get("latency_ms_tail", 0.0), f.get("cpu_ms_per_agreement", 0.0),
            f.get("protocols.fallback_frac", 0.0),
            f.get("serve.admission_lag_ms_max", 0.0), "yes" if keeps_up else "no"),
            flush=True)
    print("highest rate keeping latency_ms_tail <= %g ms without backlog: %s" % (
        args.tail_limit_ms, "none" if best is None else "%g/s" % best))


if __name__ == "__main__":
    main()
