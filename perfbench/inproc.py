"""In-process tasks on both engines, their checks, and the per-layer probes.

Every task goes through the ``engine=auto`` entry points a ``padsc`` run
uses (``records_batch``: the columnar kernels when the plan proves the
record layout static, the cursor engine otherwise).  One task on one
block is one operation; each is checked against the block's reference,
and the two engines' accumulator reports against each other.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List

from repro import compile_description, observe
from repro.batch import batch_verdict
from repro.codegen import compile_generated, generate_source
from repro.core.basetypes.temporal import parse_date_text
from repro.core.binding import bind_description
from repro.core.io import discipline_from_spec
from repro.core.masks import Mask, P_Set
from repro.dsl.parser import parse_description
from repro.dsl.typecheck import check_description
from repro.plan import analyze
from repro.tools.accum import Accumulator
from repro.tools.fmt import format_value

from measure import Spans, region
from workloads import CALL_MIN_DURATION, SIRIUS_STATE, Block, Format

ENGINES = ("interp", "gen")
TASKS = ("parse", "select", "accum", "count")
REPORTED = 10  # accumulator report depth, as the service renders it
TRACKED = 1000


def compile_engines(fmt: Format) -> Dict[str, object]:
    disc = discipline_from_spec(fmt.records)
    return {
        "interp": compile_description(fmt.source, ambient=fmt.ambient,
                                      discipline=disc),
        "gen": compile_description(fmt.source, ambient=fmt.ambient,
                                   discipline=disc, backend="auto"),
    }


def engine_layer(engine, fmt: Format) -> str:
    """The module that does a records pass's work: the batch engine when
    the plan makes the record type batch-eligible, the cursor engine's
    types otherwise."""
    if batch_verdict(engine, fmt.record_type).eligible:
        return "repro.batch"
    return "repro.core.types"


# -- the tasks (each returns what the check compares) ----------------------------

def _clf_pick(rep):
    return rep.length if rep.request.meth == "POST" else None


def _sirius_pick(rep):
    for event in rep.events:
        if event.state == SIRIUS_STATE:
            return rep.header.order_num
    return None


def _call_pick(rep):
    return rep.caller if rep.duration > CALL_MIN_DURATION else None


PICKS: Dict[str, Callable] = {"clf": _clf_pick, "sirius": _sirius_pick,
                              "call": _call_pick}


def task_parse(engine, fmt: Format, data: bytes):
    """The Figure 7 vetter: every check on, route records by error."""
    errors = []
    n = 0
    for n, (_rep, pd) in enumerate(
            engine.records_batch(data, fmt.record_type), 1):
        if pd.nerr:
            errors.append(n - 1)
    return n, errors


def task_select(engine, fmt: Format, data: bytes):
    """The Figure 10 selection: checks off (``Mask(P_Set)``), keep the
    picked field of matching records.  It runs over vetted records."""
    pick = PICKS[fmt.name]
    out = []
    for rep, _pd in engine.records_batch(data, fmt.record_type, Mask(P_Set)):
        value = pick(rep)
        if value is not None:
            out.append(value)
    return out


def task_accum(engine, fmt: Format, data: bytes):
    """Build the accumulator and render its report."""
    acc = Accumulator(engine.node(fmt.record_type), "<top>", TRACKED)
    for rep, pd in engine.records_batch(data, fmt.record_type):
        acc.add(rep, pd)
    return acc.self_acc.good, acc.self_acc.bad, acc.full_report(REPORTED)


def task_count(engine, fmt: Format, data: bytes):
    """The record-framing floor: count records, parse no field."""
    return engine.count_records(data)


RUNNERS = {"parse": task_parse, "select": task_select, "accum": task_accum,
           "count": task_count}


def check(task: str, block: Block, result) -> str:
    """An empty string when ``result`` matches the reference."""
    ref = block.ref
    if task == "parse":
        n, errors = result
        if n != ref.n or errors != ref.errors:
            return (f"parse: {n} records, errors {errors[:5]}; reference "
                    f"{ref.n}, {ref.errors[:5]}")
    elif task == "select":
        if result != ref.selected:
            return f"select: {len(result)} picked, reference {len(ref.selected)}"
    elif task == "accum":
        good, bad, _report = result
        if (good, bad) != (ref.n - len(ref.errors), len(ref.errors)):
            return f"accum: good {good} bad {bad} disagree with reference"
    elif result != ref.n:
        return f"count: {result}, reference {ref.n}"
    return ""


# -- the measured loop ------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(problem)


class Tasks:
    """Every task on every block on both engines, one round at a time.

    ``times``, keyed ``task.engine`` (``count`` has one key: framing is
    engine-independent), holds one list per block of ``(bytes, seconds)``
    per round."""

    def __init__(self, blocks: List[Block], engines: Dict[str, dict],
                 spans: Spans, ledger: Ledger):
        self.blocks = blocks
        self.engines = engines
        self.spans = spans
        self.ledger = ledger
        self.times: Dict[str, list] = {}
        self.rounds = 0
        self.spent = 0.0

    def round(self) -> None:
        start = time.perf_counter()
        self.rounds += 1
        self.spans.open(f"round{self.rounds}", "bench")
        for index, block in enumerate(self.blocks):
            self._block(index, block)
        self.spans.close()
        self.spent += time.perf_counter() - start

    def _block(self, index: int, block: Block) -> None:
        pair = self.engines[block.fmt.name]
        reports = {}
        for task in TASKS:
            for name in (ENGINES if task != "count" else ("gen",)):
                engine = pair[name]
                data = block.ref.clean if task == "select" else block.data
                t0 = time.perf_counter()
                try:
                    result = RUNNERS[task](engine, block.fmt, data)
                    problem = ""
                except Exception as exc:  # a failed operation, counted
                    result, problem = None, f"{task}: {exc!r}"
                t1 = time.perf_counter()
                layer = ("repro.tools.accum" if task == "accum" else
                         "repro.core.io" if task == "count" else
                         engine_layer(engine, block.fmt))
                self.spans.add(f"{task}.{name}", layer, t0, t1)
                if not problem:
                    problem = check(task, block, result)
                    key = task if task == "count" else f"{task}.{name}"
                    per_block = self.times.setdefault(
                        key, [[] for _ in self.blocks])
                    per_block[index].append((len(data), region(t1 - t0, key)))
                if task == "accum" and result is not None:
                    reports[name] = result[2]
                    if len(reports) == 2 and not problem and \
                            reports["interp"] != reports["gen"]:
                        problem = "accum: interp and gen reports differ"
                self.ledger.record(problem)


def throughput(per_block: List[list]) -> dict:
    """MB/s from one task's per-block timings.

    The value is best-of-N: every block's bytes over the sum of each
    block's fastest time.  The machine this was tuned on runs up to 1.6x
    slower for seconds at a time when its neighbours are busy; the
    fastest time of each block, spread over the whole run, moved about
    half as much between runs as the median did.  The median (every
    block's bytes over the sum of its median times) and the tail (the
    slowest round) are reported beside it."""
    total = sum(runs[0][0] for runs in per_block if runs)

    def rate(pick) -> float:
        return total / sum(pick([t for _n, t in runs])
                           for runs in per_block if runs) / 1e6

    rounds = min(len(runs) for runs in per_block if runs)
    by_round = [total / sum(runs[r][1] for runs in per_block if runs) / 1e6
                for r in range(rounds)]
    return {"value": rate(min), "median": rate(statistics.median),
            "tail": min(by_round), "tail_pct": 0.0,
            "n": sum(len(runs) for runs in per_block)}


# -- per-layer probes (traced runs) ---------------------------------------------


#: A probe region repeats a call that returns sooner than this.
PROBE_REGION_S = 2e-3


def _probe(spans: Spans, name: str, layer: str, fn, reps: int = 3) -> float:
    """Median seconds per call of ``fn`` over ``reps`` timed regions, one
    span each.  A call shorter than PROBE_REGION_S repeats inside its
    region so the clock resolves it."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= PROBE_REGION_S:
            break
        calls *= 2
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        t1 = time.perf_counter()
        spans.add(name, layer, t0, t1)
        times.append(region(t1 - t0, name) / calls)
    return statistics.median(times)


def _joined(blocks: List[Block], attr: str) -> bytes:
    return b"".join(getattr(b.ref, attr) if attr != "data" else b.data
                    for b in blocks)


def _pairs(engine, data: bytes, fmt: Format):
    return list(engine.records_batch(data, fmt.record_type))


def layer_probes(blocks: List[Block], engines: Dict[str, Dict[str, object]],
                 spans: Spans) -> Dict[str, float]:
    """One number per layer, each timed from a call into that layer's
    public function.  Figures over several formats are summed (times,
    counts) or pooled (rates); per-record costs use the generated
    engine."""
    by_fmt: Dict[str, List[Block]] = {}
    for b in blocks:
        by_fmt.setdefault(b.fmt.name, []).append(b)
    out: Dict[str, float] = defaultdict(float)  # summed over formats
    s: Dict[str, float] = defaultdict(float)    # seconds and counts
    for name, fblocks in by_fmt.items():
        fmt = fblocks[0].fmt
        gen = engines[name]["gen"]
        desc = parse_description(fmt.source)
        disc = discipline_from_spec(fmt.records)
        for key, layer, fn in (
                ("dsl.parse_ms", "repro.dsl",
                 lambda: parse_description(fmt.source)),
                ("dsl.typecheck_ms", "repro.dsl",
                 lambda: check_description(desc, fmt.ambient)),
                ("plan.analyze_ms", "repro.plan",
                 lambda: analyze(desc, fmt.ambient)),
                ("bind.ms", "repro.core.binding",
                 lambda: bind_description(desc, fmt.ambient)),
                ("codegen.compile_ms", "repro.codegen",
                 lambda: compile_generated(fmt.source, ambient=fmt.ambient,
                                           discipline=disc,
                                           backend="auto"))):
            out[key] += 1e3 * _probe(spans, key, layer, fn, 5)
        out["plan.fast_types"] += sum(
            1 for dp in analyze(desc, fmt.ambient).decls.values()
            if dp.verdict.eligible)
        t0 = time.perf_counter()
        source = generate_source(fmt.source, ambient=fmt.ambient)
        spans.add("generate_source", "repro.codegen", t0, time.perf_counter())
        out["codegen.source_kb"] += len(source) / 1024

        data = _joined(fblocks, "data")
        clean = _joined(fblocks, "clean")
        dirty = _joined(fblocks, "dirty")
        layer = engine_layer(gen, fmt)
        s["clean"] += _probe(spans, "records[clean]", layer,
                             lambda: _pairs(gen, clean, fmt))
        s["clean_n"] += sum(b.ref.n - len(b.ref.errors) for b in fblocks)
        if dirty:
            s["dirty"] += _probe(spans, "records[dirty]", layer,
                                 lambda: _pairs(gen, dirty, fmt))
            s["dirty_n"] += sum(len(b.ref.errors) for b in fblocks)
        # checks.share: the same clean input, same engine, checks on vs off
        s["vet"] += _probe(spans, "records[checked]", layer,
                           lambda: task_parse(gen, fmt, clean))
        s["select"] += _probe(spans, "records[P_Set]", "repro.core.masks",
                              lambda: task_select(gen, fmt, clean))
        stamps = [t for b in fblocks for t in b.ref.timestamps]
        s["date"] += _probe(spans, "parse_date_text", "repro.core.basetypes",
                            lambda: [parse_date_text(t) for t in stamps])
        s["date_n"] += len(stamps)

        pairs = _pairs(gen, data, fmt)
        out["parse.error_records"] += sum(1 for _rep, pd in pairs if pd.nerr)
        node = gen.node(fmt.record_type)
        built = []

        def build():
            acc = Accumulator(node, "<top>", TRACKED)
            for rep, pd in pairs:
                acc.add(rep, pd)
            built[:] = [acc]
        s["add"] += _probe(spans, "Accumulator.add", "repro.tools.accum",
                           build)
        s["report"] += _probe(spans, "Accumulator.full_report",
                              "repro.tools.accum",
                              lambda: built[0].full_report(REPORTED))
        s["fmt"] += _probe(spans, "format_value", "repro.tools.fmt",
                           lambda: [format_value(node, rep, delims=["|"])
                                    for rep, _pd in pairs])
        s["records"] += len(pairs)
        s["bytes"] += len(data)
        s["frame"] += _probe(spans, "count_records", "repro.core.io",
                             lambda: gen.count_records(data))
        s["count_batch"] += _probe(spans, "count_records_batch",
                                   "repro.batch",
                                   lambda: gen.count_records_batch(data))

        # The whole input with and without an observer, interleaved so
        # drift hits both sides alike; the observer's counters give the
        # batch engine's fallbacks.
        obs_t, plain_t = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            _pairs(gen, data, fmt)
            t1 = time.perf_counter()
            with observe.observed() as obs:
                _pairs(gen, data, fmt)
            t2 = time.perf_counter()
            spans.add("records_batch", layer, t0, t1)
            spans.add("records_batch[observed]", "repro.observe", t1, t2)
            plain_t.append(region(t1 - t0, "records_batch"))
            obs_t.append(region(t2 - t1, "records_batch[observed]"))
        s["plain"] += statistics.median(plain_t)
        s["observed"] += statistics.median(obs_t)
        s["batch_n"] += obs.metrics.value("batch.records")
        s["fallback_n"] += obs.metrics.value("batch.fallback_records")

    out["parse.clean_us_rec"] = 1e6 * s["clean"] / s["clean_n"]
    out["parse.dirty_us_rec"] = 1e6 * s["dirty"] / max(s["dirty_n"], 1)
    out["parse.miss_cost"] = (out["parse.dirty_us_rec"]
                              / out["parse.clean_us_rec"])
    out["date.us"] = 1e6 * s["date"] / max(s["date_n"], 1)
    out["checks.share"] = 1 - s["select"] / s["vet"]
    out["accum.add_us_rec"] = 1e6 * s["add"] / s["records"]
    out["accum.report_ms"] = 1e3 * s["report"]
    out["fmt.us_rec"] = 1e6 * s["fmt"] / s["records"]
    out["io.frame_mb_s"] = s["bytes"] / s["frame"] / 1e6
    out["batch.mb_s"] = s["bytes"] / s["plain"] / 1e6
    out["batch.count_mb_s"] = s["bytes"] / s["count_batch"] / 1e6
    # The share of records the cursor engine parsed: all of them when
    # the record type is not batch-eligible.
    out["batch.fallback_ratio"] = (
        s["fallback_n"] / (s["batch_n"] + s["fallback_n"])
        if s["batch_n"] + s["fallback_n"] else 1.0)
    out["observe.overhead_ratio"] = s["observed"] / s["plain"]
    return dict(out)
