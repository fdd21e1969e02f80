"""One workload of the unichain benchmark, run in a fresh process.

``run.py`` starts this file once per measured run (and a few more times with
``--mode setup`` to sample start-up cost).  Each workload is a fixed list of
``unichain`` command lines run in-process through ``unichain.cli.main``, one
caller in a closed loop.  Every call's output is reduced to a summary and
compared with ``reference.json``; a call whose summary differs, or that
raises, fails all of its ops.

Modes:

    setup      import unichain.cli and load the reference, then report
    run        the above, then timed passes until ``--seconds`` have elapsed
               (and, with ``--trace 1``, one more pass with spans recorded)
    reference  print a fresh reference for the named workloads (untimed)

The last line on stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"


def parse_name(name: str) -> tuple[str, int]:
    """``certify-l5`` -> ("certify", 5)."""
    kind, _, scale = name.rpartition("-l")
    if kind not in ("certify", "enumerate", "scan") or not scale.isdigit():
        raise ValueError(f"not a workload name: {name!r}")
    return kind, int(scale)


def step_keys(kind: str, n: int) -> list[str]:
    """The calls one pass makes: a single certify, one enumerate per neutral
    element, one scan per ordered pair of proper, unequal neutral elements."""
    if kind == "certify":
        return ["all"]
    if kind == "enumerate":
        return [str(e) for e in range(n + 1)]
    return [f"{a},{b}" for a in range(1, n) for b in range(1, n) if a != b]


def step_argv(kind: str, n: int, key: str) -> list[str]:
    common = ["--n", str(n), "--max-n", str(n), "--format", "structured"]
    if kind == "certify":
        return ["certify", *common, "--no-timing"]
    if kind == "enumerate":
        return ["enumerate", *common, "--e", key]
    e1, e2 = key.split(",")
    return ["scan", *common, "--e1", e1, "--e2", e2]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def summarize(kind: str, doc: dict, roundtrip: dict | None = None) -> dict:
    """The part of a call's output the reference fixes.

    ``nodes-expanded`` is left out on purpose: it is a search-cost counter a
    legitimate enumerator change moves, reported as ``search.nodes_expanded``.
    """
    if kind == "certify":
        return {k: v for k, v in doc.items() if k != "nodes-expanded"}
    if kind == "enumerate":
        return {"kind": doc["kind"], "scale": doc["scale"], "neutral": doc["neutral"],
                "count": doc["count"], "tables_sha256": digest(doc["tables"])}
    return {"kind": doc["kind"], "scale": doc["scale"], "e1": doc["e1"], "e2": doc["e2"],
            "count": doc["count"], "pairs_sha256": digest(doc["pairs"]), **roundtrip}


class Workload:
    """Runs the calls of one workload in this process and checks each output."""

    def __init__(self, name: str, reference: dict, seed: int):
        import unichain.cli
        from unichain import core, distributivity, formats
        from unichain.errors import CompositionInvalid

        self.cli, self.core, self.distributivity, self.formats = unichain.cli, core, distributivity, formats
        self.CompositionInvalid = CompositionInvalid
        self.name = name
        self.kind, self.n = parse_name(name)
        self.reference = reference
        self.keys = step_keys(self.kind, self.n)
        # no input is random; the seed fixes the order of the calls in a pass
        random.Random(seed).shuffle(self.keys)
        self.tracer = None
        self.calibrator = Calibrator()

    @property
    def ops_per_pass(self) -> int:
        return sum(self.reference[key]["ops"] for key in self.keys)

    def _timed(self, fn, *args):
        """``fn(*args)``, its wall time and the CPU time this process spent on
        it, both without the calibration samples taken while it ran.

        The traced pass takes no samples inside calls, so that spans hold only
        unichain's work.
        """
        cal = self.calibrator
        spent_wall, spent_cpu = cal.spent_wall, cal.spent_cpu
        if self.tracer is not None:
            self.tracer.active = True
        try:
            with cal if self.tracer is None else contextlib.nullcontext():
                start, cpu = time.perf_counter(), time.process_time()
                value = fn(*args)
                wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        return value, wall - (cal.spent_wall - spent_wall), cpu - (cal.spent_cpu - spent_cpu)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.main(argv)
        if status != 0:
            raise RuntimeError(f"unichain {' '.join(argv)} exited {status}: {err.getvalue().strip()}")
        return out.getvalue()

    def _roundtrip(self, hits):
        # every decomposition the scan emitted: text format, parse, compose
        formats, distributivity = self.formats, self.distributivity
        composed = []
        for d, scale, e1, e2 in hits:
            parsed = formats.parse_decomposition(formats.dump_decomposition(d, scale, e1, e2))
            try:
                composed.append(distributivity.compose(*parsed))
            except self.CompositionInvalid:
                composed.append(None)
        return composed

    def _decompositions(self, doc):
        core, distributivity = self.core, self.distributivity

        def rows(t):
            return tuple(map(tuple, t["rows"]))

        def uninorm(t):
            return core.Uninorm(core.OpTable(core.ChainScale(t["scale"]), rows(t)), t["neutral"])

        hits, pairs = [], []
        for pair in doc["pairs"]:
            d = pair["decomposition"]
            if d is None:
                continue
            selection = tuple((x, y, distributivity.Pick(p)) for x, y, p in d["selection"])
            hits.append((distributivity.Decomposition(distributivity.TheoremCase(d["case"]),
                                                      uninorm(d["inner"]), uninorm(d["boundary"]),
                                                      selection),
                         core.ChainScale(d["scale"]), d["e1"], d["e2"]))
            pairs.append((rows(pair["u1"]), rows(pair["u2"])))
        return hits, pairs

    def run_step(self, key: str) -> tuple[float, float, dict]:
        """One call, timed (wall and CPU seconds), then its summary (untimed)."""
        text, seconds, cpu = self._timed(self._cli, step_argv(self.kind, self.n, key))
        doc = json.loads(text)
        roundtrip = None
        if self.kind == "scan":
            hits, pairs = self._decompositions(doc)
            composed, extra, extra_cpu = self._timed(self._roundtrip, hits)
            seconds += extra
            cpu += extra_cpu
            identical = sum(c is not None and (c[0].rows, c[1].rows) == pair
                            for c, pair in zip(composed, pairs))
            roundtrip = {"decompositions": len(hits), "composed": sum(c is not None for c in composed),
                         "roundtrip_identical": identical}
            if self.tracer is not None:
                self.tracer.counters["distributivity.roundtrip_identical"] += identical
        return seconds, cpu, summarize(self.kind, doc, roundtrip)

    def run_pass(self) -> dict:
        """Every call once; a call fails all its ops if it raises or its
        summary differs from the reference."""
        seconds, cpu_seconds, norm_seconds, calibration, failed, failures = {}, {}, {}, {}, 0, []
        cpu, steal = time.process_time(), steal_ticks()
        cal = self.calibrator
        for key in self.keys:
            expected = self.reference[key]
            cal.samples = []
            cal.burst()
            try:
                seconds[key], cpu_seconds[key], summary = self.run_step(key)
            except Exception:
                traceback.print_exc()
                seconds[key], cpu_seconds[key], summary = 0.0, 0.0, None
            cal.burst()
            norm_seconds[key] = cpu_seconds[key] * cal.relative_speed()
            calibration[key] = cal.samples
            if summary != expected["summary"]:
                failed += expected["ops"]
                failures.append(key)
        # CPU time and the machine's steal ticks show, afterwards, which passes
        # ran while other guests held the host's processors
        return {"seconds": seconds, "cpu_seconds": cpu_seconds, "norm_seconds": norm_seconds,
                "calibration_s": calibration, "failed": failed, "failures": failures,
                "cpu_s": time.process_time() - cpu, "steal_ticks": steal_ticks() - steal}


# Calibration.  The speed of a shared host drifts with its other guests' load,
# by up to a factor of two on the baseline machine, over seconds to minutes,
# and without steal time: the CPU time of the same call drifts with it.  A
# fixed pure-Python loop, the benchmark's own code, measures that speed: a few
# samples before and after each call, and one every ``PERIOD_S`` seconds
# inside it (SIGALRM; a CPU-time timer would make the kernel read the process
# CPU clock only once per tick while it is armed).  A call's CPU time times the
# mean of ``(REFERENCE_SAMPLE_S / sample) ** SLOWDOWN_EXPONENT`` over its
# samples is its cost at the baseline machine's speed.  A change to unichain
# cannot move the loop's time.
_CAL_N = 7
_CAL_RNG = random.Random(20261017)
_CAL_T = tuple(tuple(_CAL_RNG.randrange(_CAL_N) for _ in range(_CAL_N)) for _ in range(_CAL_N))
_CAL_S = tuple(tuple(_CAL_RNG.randrange(_CAL_N) for _ in range(_CAL_N)) for _ in range(_CAL_N))


def _calibration_round() -> int:
    """Distributivity of one fixed 7x7 table over another, by dict and tuple lookups."""
    T, S, n = _CAL_T, _CAL_S, _CAL_N
    seen = {}
    for x in range(n):
        Tx = T[x]
        for y in range(n):
            Sy, Txy = S[y], Tx[y]
            for z in range(n):
                seen[x, y, z] = Tx[Sy[z]] == S[Txy][Tx[z]]
    return sum(v for _, v in sorted(seen.items(), key=lambda kv: kv[0][::-1]))


class Calibrator:
    """Samples the host's speed with the calibration loop."""

    ROUNDS = 16                    # calibration rounds in one sample
    REFERENCE_SAMPLE_S = 0.0037    # median CPU seconds of one sample on the baseline machine
    PERIOD_S = 0.2                 # seconds between samples inside a call
    BURST = 3                      # samples before and after each call
    # unichain's calls slow down more steeply than the tight loop when the host
    # is slow.  With an exponent of 1.0, runs made while the baseline machine
    # was slow read 9% (certify-l5), 8% (scan-l5) and 1-3% (enumerate-l7)
    # above runs made while it was fast; 1.1 takes most of that out of the
    # first two
    SLOWDOWN_EXPONENT = 1.1

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0  # sampling inside timed calls

    def sample(self) -> None:
        start = time.process_time()
        for _ in range(self.ROUNDS):
            _calibration_round()
        self.samples.append(time.process_time() - start)

    def burst(self) -> None:
        for _ in range(self.BURST):
            self.sample()

    def relative_speed(self) -> float:
        return statistics.fmean((self.REFERENCE_SAMPLE_S / s) ** self.SLOWDOWN_EXPONENT
                                for s in self.samples)

    def _on_timer(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.sample()
        self.spent_wall += time.perf_counter() - wall
        self.spent_cpu += time.process_time() - cpu

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def steal_ticks() -> int:
    """Ticks the hypervisor gave to other guests, all processors (0 if unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def call_time(passes: list[dict], field: str) -> float:
    """Sum over the calls of each call's median time across passes.

    ``field`` is ``seconds`` (wall), ``cpu_seconds`` or ``norm_seconds`` (CPU
    seconds at the baseline machine's speed, see ``Calibrator``).  Taking the
    median per call keeps one slow burst on a shared machine from moving the
    whole figure; with one pass it is the pass time.
    """
    return sum(statistics.median(p[field][k] for p in passes) for k in passes[0][field])


def import_cli() -> float:
    """Import ``unichain.cli`` from this checkout's ``src``; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import unichain.cli  # noqa: F401  (numpy comes with it)
    import_s = time.perf_counter() - start
    import unichain

    if Path(unichain.__file__).resolve().parent != SRC / "unichain":
        raise SystemExit(f"imported unichain from {unichain.__file__}, not from {SRC}")
    return import_s


def measure(args) -> dict:
    # the host's speed at start-up calibrates setup_s; run.py subtracts the
    # first burst, which falls inside the set-up it times
    calibrator = Calibrator()
    start = time.monotonic()
    calibrator.burst()
    setup_calibration_s = time.monotonic() - start
    import_s = import_cli()
    reference = json.loads(REFERENCE.read_text())[args.workload]
    ready = time.monotonic()
    calibrator.burst()
    setup = {"ready": ready, "setup_calibration_s": setup_calibration_s,
             "setup_speed": calibrator.relative_speed()}
    if args.mode == "setup":
        return setup

    import numpy

    workload = Workload(args.workload, reference, args.seed)
    passes = []
    while True:
        passes.append(workload.run_pass())
        if time.monotonic() - ready >= args.seconds:
            break
    result = {
        **setup,
        "import_s": import_s,
        "numpy": numpy.__version__,
        "keys": workload.keys,
        "ops_per_pass": workload.ops_per_pass,
        "passes": passes,
        "wall_s": call_time(passes, "seconds"),
        "cpu_s": call_time(passes, "cpu_seconds"),
        "norm_cpu_s": call_time(passes, "norm_seconds"),
    }
    if args.trace:
        from tracing import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        workload.tracer = tracer
        traced = workload.run_pass()
        traced["traced"] = True
        passes.append(traced)
        traced_wall = sum(traced["seconds"].values())
        metrics = layer_metrics(tracer)
        metrics["cli.import_s"] = import_s
        # calibrated by the samples around each traced call only
        metrics["trace.overhead_s"] = sum(traced["norm_seconds"].values()) - result["norm_cpu_s"]
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace-{args.workload}.npz"
        tracer.save(trace_file, workload=args.workload, seed=args.seed)
        result.update(trace_id=tracer.trace_id, trace_file=str(trace_file.relative_to(ROOT)),
                      traced_wall_s=traced_wall, layer_metrics=metrics)
    result["attempted"] = workload.ops_per_pass * len(passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def make_reference(names: list[str]) -> dict:
    """Run each named workload once and record what it produced.

    Used once, when the benchmark was added, to write ``reference.json``; the
    ops of a scan call are the pairs it examines, counted from independent
    enumerations.
    """
    import_cli()
    from unichain.core import ChainScale
    from unichain.search import EnumerationTask, enumerate_uninorms

    out = {}
    for name in names:
        workload = Workload(name, {}, 0)
        kind, n = workload.kind, workload.n
        if kind == "scan":
            counts = [sum(1 for _ in enumerate_uninorms(EnumerationTask(ChainScale(n), e), max_n=n))
                      for e in range(n + 1)]
        entries = {}
        for key in step_keys(kind, n):
            _, _, summary = workload.run_step(key)
            if kind == "certify":
                ops = summary["pairs-checked"]
            elif kind == "enumerate":
                ops = summary["count"]
            else:
                e1, e2 = map(int, key.split(","))
                ops = counts[e1] * counts[e2]
            entries[key] = {"ops": ops, "summary": summary}
        out[name] = entries
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "reference"), required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "reference":
        print(json.dumps(make_reference(args.workload), indent=1, sort_keys=True))
        return 0
    (args.workload,) = args.workload
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
