#!/usr/bin/env bash
# Calibration behind the bounds in BENCHMARK.json: runs the contract's
# command for ten seeds, twice (seeds 1-10, then 11-20), on every
# workload, and prints per end-to-end metric each set's median and
# IQR / median, yardstick time and raw wall time side by side.
# Run from the repository root on a quiet host:
#     benchmark/calibrate.sh > benchmark/CALIBRATION.md
set -euo pipefail
exec python3 - "$@" <<'PY'
import json, math, platform, statistics, subprocess, sys

bench = json.load(open("BENCHMARK.json"))
names = [m["name"] for m in bench["end_to_end"]]

def shell(*argv):
    return subprocess.run(argv, capture_output=True, text=True).stdout.strip()

def run(workload, seed):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for line in done.stderr.splitlines():
        if line.startswith("raw."):
            name, value, _unit = line.split()
            values[name] = float(value)
    return values

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print("# Calibration\n")
print(f"- host: `nproc` = {shell('nproc')}, kernel {platform.release()}, {shell('rustc', '-V')}")
print(f"- command: `{' '.join(bench['command'])} --workload W --seed S --seconds {bench['run_seconds']} --trace 0`")
print("- per cell: median (IQR / median) over ten seeds; set 1 is seeds 1-10, set 2 seeds 11-20;")
print("  `raw` is the same timing without the yardstick (peak heap has no raw form)\n")
worst = {name: 0.0 for name in names}
for workload in (w["name"] for w in bench["workloads"]):
    sets = [[run(workload, seed) for seed in seeds] for seeds in (range(1, 11), range(11, 21))]
    print(f"## {workload}\n")
    print("| metric | set 1 | set 2 | set 2 vs set 1 | raw set 1 | raw set 2 |")
    print("|---|---|---|---|---|---|")
    for name in names:
        cells, medians = [], []
        for key in (name, "raw." + name):
            for runs in sets:
                if key not in runs[0]:
                    cells.append("-")
                    continue
                values = [r[key] for r in runs]
                cells.append(f"{statistics.median(values):.4g} ({spread(values):.3f})")
                if key == name:
                    medians.append(statistics.median(values))
                    worst[name] = max(worst[name], spread(values))
        drift = f"{medians[1] / medians[0] - 1:+.3f}"
        print(f"| `{name}` | {cells[0]} | {cells[1]} | {drift} | {cells[2]} | {cells[3]} |")
    print()
    sys.stdout.flush()
print("## Worst spread per metric, and the bound it gives\n")
print("Bound = 3 x worst spread, rounded up to 0.01, at least 0.05, at most 0.25.\n")
print("| metric | worst IQR / median | bound |")
print("|---|---|---|")
for name in names:
    bound = min(0.25, max(0.05, math.ceil(round(300 * worst[name], 6)) / 100))
    print(f"| `{name}` | {worst[name]:.3f} | {bound:.2f} |")
PY
