"""Regenerate reference.json: the sha256 of every output and the exact
counts of every workload variant, taken from the checkout's code.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

Run it only when a change alters the simulated behaviour on purpose, and
say so where the change is described; a speed-up must leave the
references as they are.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import workloads
from layers import Tracer
from run import REFERENCE, WORK, output_bytes


def reference_for(workload: str, variant: int) -> dict:
    work = WORK / f"reference-{workload}-{variant}"
    try:
        paths = workloads.write_scenarios(workload, variant, work / "scenarios")
        from iriscc.scenario import load_scenario

        scenarios = {name: load_scenario(path) for name, path in paths.items()}
        tracer = Tracer(count_heap=True)
        outputs = tracer.run(
            lambda: workloads.run_workload(workload, workloads.make_api(), paths,
                                           scenarios, work / "out"))
        digests = {name: hashlib.sha256(output_bytes(value)).hexdigest()
                   for name, value in sorted(outputs.items())}
        return {"digests": digests, "counts": tracer.exact_counts()}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    workloads.use_checkout_source()
    reference = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for variant in range(workloads.VARIANTS):
            entry = reference_for(workload, variant)
            reference[workload][str(variant)] = entry
            print(workload, variant, json.dumps(entry["counts"], sort_keys=True), flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    try:
        WORK.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
