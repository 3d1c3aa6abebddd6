"""Check that the benchmark's counts are reproducible.

    python3 bench/selfcheck.py

For each workload, runs one short traced run of seed 1 twice and one of
seed 2.  Passes when every count (ops per pass, RK4 state steps, lift
steps, CSV rows, samples, SVG bytes) repeats exactly for the same seed,
and the second seed generates different inputs.  Exit code 0 on pass.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 1
COUNTS = (".state_steps", ".fiber_steps", ".rows_written", ".rows_read", ".samples",
          ".bytes")


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True).stdout.splitlines()
    diagnostics = json.loads(out[-2])["diagnostics"]
    result = json.loads(out[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if name.endswith(COUNTS)}
    counts["ops_per_pass"] = diagnostics["ops_per_pass"]
    return diagnostics["inputs"], counts


def main():
    ok = True
    for workload in WORKLOADS:
        inputs_a, counts_a = traced_run(workload, SEED)
        inputs_b, counts_b = traced_run(workload, SEED)
        inputs_c, _counts = traced_run(workload, SEED + 1)
        checks = [
            ("same seed, same inputs", inputs_a == inputs_b),
            ("same seed, same counts", counts_a == counts_b),
            ("next seed, other inputs", inputs_a != inputs_c),
        ]
        for label, passed in checks:
            ok &= passed
            print(f"[{'PASS' if passed else 'FAIL'}] {workload}: {label}")
        if counts_a != counts_b:
            for name in sorted(counts_a):
                if counts_a[name] != counts_b.get(name):
                    print(f"    {name}: {counts_a[name]} != {counts_b.get(name)}")
        print("    " + json.dumps(counts_a))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
