"""Run one workload of the unichain benchmark and print its metrics.

    python3 perfbench/run.py --workload certify-l5 --seed 1 --seconds 15 --trace 0

Run it from the repository root; it needs ``src/unichain`` there and nothing
installed.  The workloads, metrics and bounds are declared in
``BENCHMARK.json``; ``perfbench/README.md`` says why they are what they are.

With ``--trace 0`` it starts ``SETUP_SAMPLES - 1`` processes that only set up
(to time start-up), then the workload process, which runs timed passes until
``--seconds`` have elapsed and checks every output against
``perfbench/reference.json``.  The gated times are CPU seconds scaled to the
baseline machine's speed by a calibration loop timed around and inside every
call (``workload.Calibrator``); raw CPU and wall times are printed beside
them.  With ``--trace 1`` the workload process adds one pass with spans
recorded and reports the per-layer metrics instead.

Every run writes its full record (machine, versions, load, every pass and
setup sample) to ``perfbench/results/BENCH_*.json``.  The last line on stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170  # a run must be over within 180 s


class BenchError(Exception):
    """The run cannot produce a result."""


def spawn(args: list[str], deadline: float) -> dict:
    """Run ``workload.py`` in a fresh process; add its start-up time, raw
    (wall seconds) and calibrated to the baseline machine's speed."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKLOAD), *args], cwd=ROOT,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              stdout=subprocess.PIPE, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process did not finish within the {TIME_LIMIT_S} s limit") from None
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["ready"] - started - result["setup_calibration_s"]
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    return result


def read_proc(path: str, key: str) -> str | None:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith(key)), None)


def load_average() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Identifies the measured code even where there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unichain").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def measure(args, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    load_start = load_average()
    setups = [] if args.trace else [spawn(["--mode", "setup", *common], deadline)
                                    for _ in range(SETUP_SAMPLES - 1)]
    child = spawn(["--mode", "run", *common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], deadline)
    load_end = load_average()
    setups.append(child)
    setup_raw = [s["setup_raw_s"] for s in setups]
    setups = [s["setup_s"] for s in setups]

    values = {
        "norm_cpu_s": child["norm_cpu_s"],
        "norm_ops_per_s": child["ops_per_pass"] / child["norm_cpu_s"],
        "cpu_s": child["cpu_s"],
        "wall_s": child["wall_s"],
        "ops_per_s": child["ops_per_pass"] / child["wall_s"],
        "setup_s": statistics.median(setups),
        "setup_raw_s": statistics.median(setup_raw),
        "peak_rss_mb": child["peak_rss_mb"],
        **child.get("layer_metrics", {}),
    }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "machine": {
            "cpu_model": read_proc("/proc/cpuinfo", "model name"),
            "nproc": len(os.sched_getaffinity(0)),
            "mem_total": read_proc("/proc/meminfo", "MemTotal"),
        },
        "python": platform.python_version(), "numpy": child["numpy"],
        "load_average_start": load_start, "load_average_end": load_end,
        "setup_s_samples": setups, "setup_raw_s_samples": setup_raw,
        "call_order": child["keys"], "ops_per_pass": child["ops_per_pass"],
        "passes": child["passes"],
        "all_values": values, **result,
    }
    for key in ("import_s", "traced_wall_s", "trace_id", "trace_file"):
        if key in child:
            record[key] = child[key]
    return result, record


def report(result: dict, record: dict) -> None:
    passes = [sum(p["seconds"].values()) for p in record["passes"]]
    setups = record["setup_s_samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{len(passes)} passes of {record['ops_per_pass']} ops")
    print(f"  pass totals (s): {', '.join(f'{p:.3f}' for p in passes)}")
    print(f"  setup samples: {len(setups)}, quartiles (s): "
          f"{', '.join(f'{q:.4f}' for q in quartiles(setups))}")
    for name, m in result["metrics"].items():
        print(f"  {name:42} {m['value']:>16.6g} {m['unit']}")
    if not record["trace"]:
        # the raw times are shown, not gated: on a shared host they carry the
        # other guests' load, which the calibrated norm_cpu_s and setup_s take out
        values = record["all_values"]
        print(f"  {'setup_raw_s':42} {values['setup_raw_s']:>16.6g} s")
        print(f"  {'cpu_s':42} {values['cpu_s']:>16.6g} s")
        print(f"  {'wall_s':42} {values['wall_s']:>16.6g} s")
        print(f"  {'ops_per_s':42} {values['ops_per_s']:>16.6g} ops/s")
    print(f"  {'failed_frac':42} {result['failed'] / result['attempted']:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} ops)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one unichain benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "unichain" / "cli.py").is_file():
            raise BenchError(f"no unichain sources under {ROOT / 'src'}")
        result, record = measure(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = RESULTS / f"BENCH_{args.workload}_{stamp}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(result, record)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
