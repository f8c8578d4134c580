"""The repo's benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload serve-mixed --seed 1 \\
        --seconds 38 --trace 0

Builds the workload's inputs from ``--seed``.  For ``--seconds`` it
then alternates rounds of every task on both engines in-process with
steps of an open-loop request stream against ``padsc serve`` (its own
process), and between them times set-up in fresh processes.  Every
output is
checked against an independent reference.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``.  Lines before it give each
metric's median, tail and sample count and the machine record.  A full
record (spans too, when traced) is written under ``.perfbench/``.

Exits 1 when an output is wrong, 2 when the checkout has no program to
measure or a timed region is too short for the clock to resolve.
"""

from __future__ import annotations

import argparse
import base64
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: Set-up is measured this many times per run, spread evenly over it.
SETUP_SAMPLES = 12
#: The first this many set-up samples also give peak memory.
RSS_SAMPLES = 3
#: Bytes of each format's input the set-up probe runs every task over.
PROBE_SAMPLE = 64_000
#: Of the service's share of --seconds: the base rate runs in this many
#: windows over this share, each ladder probe over PROBE_SHARE.
BASE_SHARE, BASE_WINDOWS, PROBE_SHARE = 0.45, 5, 0.05


def machine() -> dict:
    return {"cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "loadavg": os.getloadavg()}


def _probe_spec(workload) -> bytes:
    formats = []
    for fmt in workload.formats:
        blocks = [b for b in workload.blocks if b.fmt is fmt]
        data = b"".join(b.data for b in blocks)[:PROBE_SAMPLE]
        first = blocks[0].data
        if fmt.name == "call":
            data, first = data[:len(data) - len(data) % 24], first[:24]
        else:
            data = data[:data.rfind(b"\n") + 1]
            first = first[:first.index(b"\n") + 1]
        formats.append({"name": fmt.name, "source": fmt.source,
                        "ambient": fmt.ambient,
                        "records": fmt.records,
                        "record_type": fmt.record_type,
                        "sample_b64": base64.b64encode(data).decode(),
                        "first_b64": base64.b64encode(first).decode()})
    return json.dumps({"formats": formats}).encode()


class SetupSampler:
    """Set-up timed in fresh processes, one sample at a time.

    A sample is the set-up probe (import, compile on both engines,
    first-call warm-ups) plus a ``padsc serve`` started, answering
    ``/healthz`` and registered, then stopped, each timed by phase.  The
    first probes also give the peak memory of a process that ran every
    task."""

    def __init__(self, workload, log: Path):
        self.workload = workload
        self.log = log
        self.spec = _probe_spec(workload)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.samples: list = []  # one {phase: seconds} per sample
        self.rss_mb: list = []

    def take(self) -> None:
        from serveload import Server
        rss = ["--rss"] if len(self.samples) < RSS_SAMPLES else []
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *rss],
            input=self.spec, capture_output=True, cwd=ROOT, env=self.env,
            timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + proc.stderr.decode()[-2000:])
        probe = json.loads(proc.stdout.decode().splitlines()[-1])
        server = Server(ROOT, self.workload.formats, self.log)
        try:
            server.start()
        finally:
            server.stop()
        self.samples.append({**probe["phases"], **server.phases})
        if rss:
            self.rss_mb.append(probe["rss_mb"])

    def summary(self) -> dict:
        """Best-of-N, as for the MB/s metrics: the sum of each phase's
        fastest time over samples spread across the run.  The median of
        three set-ups taken back to back moved 25% between two sets of
        ten runs of the same code, as the machine's speed swung for
        minutes at a time.  The median and the slowest whole set-up are
        reported beside it."""
        from measure import summary
        totals = [sum(sample.values()) for sample in self.samples]
        best = sum(min(sample[name] for sample in self.samples)
                   for name in self.samples[0])
        return dict(summary(totals, "lower"), value=best)


def library_results(workload, engines):
    """The in-process library run per (payload, mode): what the service
    must answer, and how long the library alone takes."""
    from repro.tools.accum import Accumulator
    from repro.tools.fmt import format_value
    from inproc import REPORTED, TRACKED

    expected, lib_s = {}, {}
    for idx, block in enumerate(workload.payloads):
        gen = engines[block.fmt.name]["gen"]
        rtype = block.fmt.record_type
        node = gen.node(rtype)

        def records():
            return [format_value(node, rep, delims=["|"])
                    for rep, _pd in gen.records(block.data, rtype)]

        def accum():
            acc = Accumulator(node, "<top>", TRACKED)
            for rep, pd in gen.records(block.data, rtype):
                acc.add(rep, pd)
            return acc.full_report(REPORTED)

        def count():
            return gen.count_records(block.data)

        for mode, fn in (("records", records), ("accum", accum),
                         ("count", count)):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - t0)
            expected[idx, mode] = result
            lib_s[idx, mode] = statistics.median(times)
    return expected, lib_s


def check_reply(block, mode: str, expected, reply) -> str:
    """An empty string when a served answer matches the library run and
    the reference."""
    if reply.status != 200:
        return f"serve {mode}: HTTP {reply.status} {reply.body[:200]!r}"
    doc = json.loads(reply.body)
    ref = block.ref
    if doc.get("count") != ref.n:
        return f"serve {mode}: count {doc.get('count')} != {ref.n}"
    if mode == "count":
        return ""
    if doc["stats"]["bad"] != len(ref.errors):
        return f"serve {mode}: {doc['stats']['bad']} bad != {len(ref.errors)}"
    got = doc["records"] if mode == "records" else doc["report"]
    if got != expected:
        return f"serve {mode}: answer differs from the library run"
    return ""


class ServeStage:
    """``padsc serve`` under load, and the checks of every reply."""

    def __init__(self, workload, engines, spans, ledger, log: Path):
        from serveload import Load, Server, request_body
        self.workload = workload
        self.ledger = ledger
        self.expected, self.lib_s = library_results(workload, engines)
        self.server = None
        try:
            self.server = Server(ROOT, workload.formats, log).start()
            payloads = workload.payloads
            requests = [(request_body(self.server.ids[payloads[i].fmt.name],
                                      payloads[i].fmt, payloads[i].data,
                                      mode), tenant)
                        for i, mode, tenant in workload.mix]
            conns = min(2, len(os.sched_getaffinity(0)))
            self.load = Load(self.server.port, requests, conns, spans)
            self.load.warm()
        except BaseException:
            self.stop()
            raise

    def finish(self, result) -> dict:
        """Stop the server and check every reply."""
        try:
            self.load.close()
            metrics = self.server.scrape()
            rss = self.server.peak_rss_mb()
        finally:
            self.stop()
        workload = self.workload
        overhead = {mode: [] for mode in ("records", "accum", "count")}
        for step in result["steps"]:
            for reply in step.pop("replies"):
                idx, mode, _ = workload.mix[reply.index % len(workload.mix)]
                self.ledger.record(check_reply(
                    workload.payloads[idx], mode, self.expected[idx, mode],
                    reply))
                if step is result["base"] and reply.status == 200:
                    overhead[mode].append((reply.done - reply.start
                                           - self.lib_s[idx, mode]) * 1e3)
        compiles = metrics.get("pads_serve_compile_total", 0)
        self.ledger.record("" if compiles == len(workload.formats) else
                           f"serve: {compiles} compiles for "
                           f"{len(workload.formats)} descriptions")
        return {"ladder": result,
                "overhead": overhead, "compiles": compiles, "rss_mb": rss}

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def measure(workload, seed: int, engines, seconds: float, spans, ledger):
    """Alternate in-process rounds with service steps, so that both spread
    over the whole run and a slow spell of a shared machine hits both.
    Set-up samples are taken between them, one every ``seconds /
    SETUP_SAMPLES`` of that work, while the service is idle."""
    import inproc
    from serveload import ladder

    OUT.mkdir(exist_ok=True)
    log = OUT / f"serve-{workload.name}-s{seed}.log"
    log.write_bytes(b"")
    setup = SetupSampler(workload, log)
    tasks = inproc.Tasks(workload.blocks, engines, spans, ledger)
    inproc_s = seconds * workload.inproc_share
    serve_s = seconds - inproc_s
    stage = ServeStage(workload, engines, spans, ledger, log)
    try:
        steps = ladder(stage.load, workload.base_rate, BASE_SHARE * serve_s,
                       BASE_WINDOWS, PROBE_SHARE * serve_s)
        result = None
        start, sampling = time.perf_counter(), 0.0
        while True:
            work = time.perf_counter() - start - sampling
            if len(setup.samples) < SETUP_SAMPLES and \
                    work >= len(setup.samples) * seconds / SETUP_SAMPLES:
                t0 = time.perf_counter()
                setup.take()
                sampling += time.perf_counter() - t0
            busy = False
            if tasks.rounds < 3 or tasks.spent < inproc_s:
                tasks.round()
                busy = True
            if result is None:
                try:
                    next(steps)
                except StopIteration as stop:
                    result = stop.value
                busy = True
            if not busy:
                break
        while len(setup.samples) < SETUP_SAMPLES:
            setup.take()
        served = stage.finish(result)
    finally:
        stage.stop()
    return tasks, served, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "benchmarks" / "baselines.py").is_file():
        print(f"perfbench: no program to measure under {ROOT}",
              file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from measure import Unresolved
    # A terminated run still stops the server it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except Unresolved as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    from measure import Spans, percentile, summary
    from metrics import END_TO_END, LAYERS, PER_LAYER
    import inproc
    import workloads

    record = {"machine": machine(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    record["input"] = workload.properties()
    # The inputs and references live to the end of the run; keep them out
    # of the collector's way so they do not slow the program's own
    # collections.
    gc.freeze()
    spans = Spans(enabled=bool(args.trace))
    ledger = inproc.Ledger()

    engines = {fmt.name: inproc.compile_engines(fmt)
               for fmt in workload.formats}
    tasks, served, setup = measure(workload, args.seed, engines,
                                   args.seconds, spans, ledger)
    times = tasks.times
    layer = inproc.layer_probes(workload.blocks, engines, spans) \
        if args.trace else {}

    ladder = served["ladder"]
    base = ladder["base"]
    rows = {
        "setup_s": setup.summary(),
        "peak_rss_mb": _as_value(summary(setup.rss_mb, "lower")),
        "ok_ratio": {"value": (ledger.attempted - ledger.failed)
                     / ledger.attempted, "median": None, "tail": None,
                     "tail_pct": None, "n": ledger.attempted},
    }
    for task in ("parse", "select", "accum"):
        for engine in inproc.ENGINES:
            rows[f"{task}_mb_s.{engine}"] = inproc.throughput(
                times[f"{task}.{engine}"])
    rows["count_mb_s"] = inproc.throughput(times["count"])

    if args.trace:
        values = dict(layer)
        expected = sum(len(b.ref.errors) for b in workload.blocks)
        ledger.record("" if layer["parse.error_records"] == expected else
                      f"parse.error_records {layer['parse.error_records']}"
                      f" != reference {expected}")
        for mode, extra in served["overhead"].items():
            values[f"serve.overhead_ms.{mode}"] = (
                statistics.median(extra) if extra else 0.0)
        values["serve.p50_ms"] = base["latency"]["median"]
        values["serve.p99_ms"] = percentile(base["latency_ms"], 99.0)
        values["serve.max_rps"] = ladder["max_rps"]
        values["serve.cache_compiles"] = served["compiles"]
        values["serve.backlog"] = ladder["top"]["backlog"]
        values["serve.gen_late_ms"] = percentile(base["late_ms"], 99.0)
        values["serve.rss_mb"] = served["rss_mb"]
        values["trace.overhead_ratio"] = _trace_overhead(workload, engines)
        own = spans.self_time()
        for name in LAYERS:
            values[f"self_ms.{name}"] = 1e3 * own.get(name, 0.0)
        out = {name: {"value": values[name], "unit": unit}
               for name, (unit, _better) in PER_LAYER.items()}
        record["spans"] = spans.spans
    else:
        out = {name: {"value": rows[name]["value"], "unit": unit}
               for name, (unit, _better) in END_TO_END.items()}
    record["e2e"] = rows
    record["times"] = times
    record["setups"] = {"samples": setup.samples, "rss_mb": setup.rss_mb}
    record["ladder"] = [{k: v for k, v in s.items()
                         if k not in ("late_ms", "latency_ms", "replies")}
                        for s in ladder["windows"] + ladder["steps"]]
    record["failures"] = ledger.failures

    _print_report(record, rows, out, args.trace, END_TO_END)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": out}
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


def _as_value(row: dict) -> dict:
    return dict(row, value=row["median"])


def _trace_overhead(workload, engines) -> float:
    """Median time of a pass of count operations, the shortest the run
    wraps in spans, with spans recorded over the same pass without."""
    from measure import Spans
    import inproc

    def one_pass(spans):
        t0 = time.perf_counter()
        for block in workload.blocks:
            engine = engines[block.fmt.name]["gen"]
            a = time.perf_counter()
            inproc.task_count(engine, block.fmt, block.data)
            spans.add("count", "repro.core.io", a, time.perf_counter())
        return time.perf_counter() - t0

    on, off = [], []
    for _ in range(15):
        on.append(one_pass(Spans(True)))
        off.append(one_pass(Spans(False)))
    return statistics.median(on) / statistics.median(off)


def _print_report(record, rows, out, traced, table) -> None:
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={traced}")
    print(f"# machine: cpu_count={m['cpu_count']} nproc={m['nproc']} "
          f"{m['implementation']} {m['python']} "
          f"loadavg={' '.join(f'{x:.2f}' for x in m['loadavg'])}")
    inp = record["input"]
    print(f"# input: {inp['records']} records, {inp['bytes']} bytes, "
          f"{inp['error_share']:.2%} in error; {inp['payloads']} payloads, "
          f"{inp['payload_bytes']} bytes")
    if traced:
        for name, cell in out.items():
            print(f"{name:28s} {cell['value']:14.4f} {cell['unit']}")
    else:
        for name, (unit, _better) in table.items():
            row = rows[name]
            line = f"{name:20s} {row['value']:12.4f} {unit:6s}"
            if row["median"] is not None:
                line += f"  median={row['median']:.4f}"
            if row["tail"] is not None:
                pct = row["tail_pct"]
                label = {0.0: "min", 100.0: "max"}.get(pct, f"p{pct:g}")
                line += f"  tail({label})={row['tail']:.4f}"
            print(f"{line}  n={row['n']}")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
