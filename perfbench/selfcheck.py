"""Fast check of the benchmark harness itself (a few seconds).

    python3 perfbench/selfcheck.py

Runs each workload's code path at a tiny scale: certify L_3 against the
golden report ``tests/fixtures/certify_l3.json``, enumerate L_4 (92 tables)
and scan L_4, untraced and traced.  Then it corrupts the program's output in
memory (one table cell, one count) and checks that the gate fails the call.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import workload as wl

FAILURES = []


def check(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def failed_frac(name: str, reference: dict) -> float:
    workload = wl.Workload(name, reference, seed=0)
    return workload.run_pass()["failed"] / workload.ops_per_pass


def with_output_mutation(formats, mutate, name: str, reference: dict) -> float:
    """``failed_frac`` of a pass whose structured output ``mutate`` corrupts."""
    original = formats.to_json

    def to_json(doc):
        mutate(doc)
        return original(doc)

    formats.to_json = to_json
    try:
        return failed_frac(name, reference)
    finally:
        formats.to_json = original


def main() -> int:
    wl.import_cli()
    from unichain import formats

    references = json.loads(wl.REFERENCE.read_text())
    golden = json.loads((wl.ROOT / "tests" / "fixtures" / "certify_l3.json").read_text())
    references["certify-l3"] = {"all": {"ops": golden["pairs-checked"],
                                        "summary": wl.summarize("certify", golden)}}

    for name in ("certify-l3", "enumerate-l4", "scan-l4"):
        check(f"{name}: every output matches the reference", failed_frac(name, references[name]) == 0)
    check("enumerate-l4: 92 tables in the reference",
          sum(entry["ops"] for entry in references["enumerate-l4"].values()) == 92)

    def cell(doc):
        if doc.get("kind") == "enumeration" and doc["neutral"] == 2:
            doc["tables"][0][1][1] += 1

    def agreements(doc):
        doc["agreements"] -= 1

    def hit_count(doc):
        doc["count"] += 1

    frac = with_output_mutation(formats, cell, "enumerate-l4", references["enumerate-l4"])
    check(f"enumerate-l4: one mutated table cell fails its call (failed_frac {frac:.3f})",
          frac == references["enumerate-l4"]["2"]["ops"] / 92)
    frac = with_output_mutation(formats, agreements, "certify-l3", references["certify-l3"])
    check(f"certify-l3: a changed count fails the run (failed_frac {frac:.3f})", frac == 1.0)
    frac = with_output_mutation(formats, hit_count, "scan-l4", references["scan-l4"])
    check(f"scan-l4: a changed hit count fails every call (failed_frac {frac:.3f})", frac == 1.0)

    # traced passes last: install() rewires the program for the rest of the process
    from tracing import Tracer, install, layer_metrics

    declared = {m["name"] for m in json.loads((wl.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = Tracer()
    install(tracer)
    metrics = {}
    for name in ("certify-l3", "scan-l4"):
        tracer.clear()
        workload = wl.Workload(name, references[name], seed=0)
        workload.tracer = tracer
        check(f"{name}: traced pass matches the reference", workload.run_pass()["failed"] == 0)
        metrics[name] = layer_metrics(tracer)
    certify, scan = metrics["certify-l3"], metrics["scan-l4"]
    check("traced run yields every declared per-layer metric but the two set by workload.py",
          declared - set(certify) == {"cli.import_s", "trace.overhead_s"})
    check("certify-l3: nodes expanded equal the golden report's",
          certify["search.nodes_expanded"] == golden["nodes-expanded"])
    check("certify-l3: one conditions call per pair",
          sum(certify[f"distributivity.conditions_{c}_calls"] for c in ("equal", "greater", "less")) == 484)
    check("certify-l3: distributive_frac is 90/484",
          certify["distributivity.distributive_frac"] == 90 / 484)
    scan_ref = references["scan-l4"].values()
    check("scan-l4: identical round trips counted",
          scan["distributivity.roundtrip_identical"] == sum(e["summary"]["roundtrip_identical"] for e in scan_ref))
    check("scan-l4: one compose per decomposition",
          scan["distributivity.compose_calls"] == sum(e["summary"]["decompositions"] for e in scan_ref))
    print("selfcheck:", "FAILED " + "; ".join(FAILURES) if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
