"""Set-up time and peak memory of a fresh process running the program.

Reads a JSON spec on stdin: the formats a workload uses, each with a
sample of its input.  Times importing ``repro``, compiling each
description on both engines, and the first-call warm-ups a ``padsc`` run
pays (one record through every task on every engine), each phase apart.
With ``--rss`` it then runs every task once over the sample.  Prints one
JSON line: ``{"phases": {name: seconds}, "rss_mb": ...}``.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

import base64
import json
import sys
import time


def main() -> int:
    spec = json.load(sys.stdin)
    samples = [base64.b64decode(f["sample_b64"]) for f in spec["formats"]]
    first = [base64.b64decode(f["first_b64"]) for f in spec["formats"]]
    phases = {}
    t0 = time.perf_counter()
    from repro import compile_description
    from repro.core.io import discipline_from_spec
    from repro.core.masks import Mask, P_Set
    from repro.tools.accum import Accumulator
    from repro.tools.fmt import format_value

    def run_all(engine, rtype, data):
        acc = Accumulator(engine.node(rtype))
        for rep, pd in engine.records_batch(data, rtype):
            acc.add(rep, pd)
            format_value(engine.node(rtype), rep)
        acc.full_report()
        for _pair in engine.records_batch(data, rtype, Mask(P_Set)):
            pass
        engine.count_records(data)

    t0 = _phase(phases, "import", t0)
    engines = []
    for f in spec["formats"]:
        disc = discipline_from_spec(f["records"])
        for backend in (None, "auto"):
            engines.append((compile_description(
                f["source"], ambient=f["ambient"], discipline=disc,
                backend=backend), f["record_type"]))
            t0 = _phase(phases, f"compile.{f['name']}.{backend or 'interp'}",
                        t0)
    for i, (engine, rtype) in enumerate(engines):
        run_all(engine, rtype, first[i // 2])
        t0 = _phase(phases, f"warm.{i}", t0)
    rss_mb = None
    if "--rss" in sys.argv[1:]:
        for i, (engine, rtype) in enumerate(engines):
            run_all(engine, rtype, samples[i // 2])
        rss_mb = _peak_rss_mb()
    print(json.dumps({"phases": phases, "rss_mb": rss_mb}))
    return 0


def _peak_rss_mb() -> float:
    """This process's peak resident memory.  Not ``ru_maxrss``: across
    ``exec`` that keeps the peak of the parent that spawned the probe."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _phase(phases: dict, name: str, t0: float) -> float:
    """Record the phase that began at ``t0``; return when it ended."""
    t1 = time.perf_counter()
    phases[name] = t1 - t0
    return t1


if __name__ == "__main__":
    sys.exit(main())
