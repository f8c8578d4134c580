"""``repro.run`` — one execution path for every record-level operation.

The paper's generated library has one record-reading function per type
and writes each tool (accumulator program, formatter, XML converter)
once on top of it.  This module is that split for execution: a caller
states *what* to compute in a :class:`Run` value, and :func:`execute`
decides *how* to run it::

    from repro import compile_description, execute, Run
    clf = compile_description(CLF)
    result = execute(clf, Run("accum", pathlib.Path("access.log"),
                              "entry_t", jobs=4))
    print(result.acc.full_report(), result.engine)

Stream, batch, parallel and durable execution are *layers* that
:func:`execute` composes (input kind, fan-out, checkpointing, grid vs
cursor kernel), never separate entry points.  :func:`choose` is the
only place that picks between them; its decision table is documented
in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Tuple

from . import observe
from .core.errors import ErrorTally, PadsError, Pd
from .core.io import Source
from .core.limits import ParseLimits
from .core.masks import Mask
from .tools.accum import DEFAULT_TRACKED, Accumulator

__all__ = ["Run", "RunResult", "execute", "new_accumulator", "fold",
           "count_source"]

OPS = ("records", "accum", "count")
ENGINES = ("auto", "batch", "cursor")


class Run(NamedTuple):
    """What to compute: one value per run, every field optional but
    ``op`` and ``data``.

    ``data`` is in-memory input (``bytes``/``str``, latin-1), a path
    (any ``os.PathLike``; a plain ``str`` is data), an already-open
    :class:`~repro.core.io.Source`, or a stream (a readable binary
    object, a file descriptor or a socket).

    ``engine`` is ``auto`` (batch kernels whenever the chooser proves
    them eligible), ``batch`` (required: an ineligible run is a
    :class:`PadsError`) or ``cursor`` (the serial cursor loop).
    ``jobs > 1`` fans record-aligned chunks out to worker processes.
    ``window`` is the bytes held per read: the sliding window over a
    stream, the grid span, the chunk shipped to workers from a stream.
    ``follow`` tails a growing input, stopping after that many idle
    seconds (``True`` or a negative number: never).

    ``checkpoint`` makes the run durable over a seekable file: ``True``
    (every 10 000 records at ``<data>.padsckpt``), a record interval,
    a checkpoint path, or a ``(path, interval)`` pair; ``resume``
    continues from a valid checkpoint.  ``index`` (``True`` or a sample
    interval) builds the ``.padsidx`` boundary index as a side effect of
    a complete pass over a file.  ``limits`` overrides the description's
    :class:`~repro.core.limits.ParseLimits` for this run only.
    """

    op: str
    data: object
    record_type: Optional[str] = None
    mask: Optional[Mask] = None
    header_type: Optional[str] = None
    tracked: int = DEFAULT_TRACKED
    summaries: bool = False
    engine: str = "auto"
    jobs: int = 1
    window: Optional[int] = None
    follow: object = None
    checkpoint: object = None
    resume: bool = False
    index: object = False
    limits: Optional[ParseLimits] = None


@dataclass
class RunResult:
    """What ran and what it produced.  ``engine`` is ``cursor``,
    ``batch``, ``parallel`` or ``durable``; ``records`` is set for
    ``records`` runs, ``acc``/``header_acc``/``tally`` for ``accum``
    runs (``tally.records`` is the record count), ``count`` for
    ``count`` runs."""

    engine: str
    records: Optional[Iterator[Tuple[object, Pd]]] = None
    acc: object = None
    header_acc: object = None
    tally: Optional[ErrorTally] = None
    count: Optional[int] = None


# -- the folds -----------------------------------------------------------------


def new_accumulator(description, record_type: str, tracked: int,
                    summaries: bool) -> Accumulator:
    """A fresh record accumulator, with streaming summaries attached
    when asked for."""
    acc = Accumulator(description.node(record_type), "<top>", tracked)
    if summaries:
        from .tools.summaries import attach_summaries
        attach_summaries(acc)
    return acc


def fold(pairs, acc, tally: ErrorTally) -> None:
    """The accumulate fold: every ``(rep, pd)`` into ``acc`` and
    ``tally``.  Serial runs, parallel workers and durable runs all fold
    through here."""
    add, note = acc.add, tally.add
    for rep, pd in pairs:
        add(rep, pd)
        note(pd)


def count_source(src: Source) -> int:
    """The count fold on the cursor kernel: record boundaries only, no
    field parsing (the paper's record-counting program)."""
    count = 0
    while src.begin_record():
        src.end_record()
        count += 1
    return count


# -- input kinds ---------------------------------------------------------------


def _kind(data) -> str:
    if isinstance(data, Source):
        return "source"
    if isinstance(data, (bytes, bytearray, memoryview, str)):
        return "memory"
    if isinstance(data, os.PathLike):
        return "path"
    return "stream"


def _idle(follow) -> Optional[float]:
    """Idle seconds that end a followed input, or None (follow forever)."""
    if follow is True or follow < 0:
        return None
    return float(follow)


def _cursor_source(description, run: Run, kind: str) -> Source:
    """The cursor kernel's input: in-memory bytes, a file, or a sliding
    window over a stream (or over a file, given ``window`` or
    ``follow``)."""
    data = run.data
    if kind in ("source", "memory"):
        return description.open(data)
    if kind == "path" and run.follow is None and not run.window:
        return description.open_file(os.fspath(data))
    from .stream import open_stream
    following = run.follow is not None
    return open_stream(data, description.discipline, window=run.window,
                       follow=following,
                       idle_timeout=_idle(run.follow) if following else None,
                       limits=description.limits)


def _spans(description, run: Run):
    """Record-aligned ``(bytes, offset)`` spans for the grid kernels."""
    from .batch import BATCH_BYTES, feed_spans
    chunk = min(run.window, BATCH_BYTES) if run.window else BATCH_BYTES
    return feed_spans(run.data, description.discipline, chunk)


# -- the chooser ---------------------------------------------------------------


def _check(run: Run, kind: str) -> None:
    """Flag combinations no engine can honour: each is a one-line
    diagnostic, never a silently different run."""
    if run.op not in OPS:
        raise PadsError(f"unknown op {run.op!r} (use one of {OPS})")
    if run.engine not in ENGINES:
        raise PadsError(f"unknown engine {run.engine!r} "
                        f"(use one of {ENGINES})")
    if run.op != "count" and not run.record_type:
        raise PadsError(f"a {run.op} run needs a record type")
    if run.header_type is not None and run.op != "accum":
        raise PadsError("a header type applies to accum runs only")
    if run.checkpoint is not None or run.resume:
        if kind != "path":
            raise PadsError("--checkpoint/--resume need a seekable file "
                            "(a path), not stdin or in-memory data")
        if run.follow is not None:
            raise PadsError("--follow tails an unbounded stream and cannot "
                            "be checkpointed; drop one of the two")
        if run.engine == "batch":
            raise PadsError("--engine batch has no mid-grid cursor to "
                            "checkpoint; use --engine auto or cursor")
        if run.header_type is not None:
            raise PadsError("--header needs a serial prefix parse and cannot "
                            "be combined with --checkpoint/--resume")
    if run.jobs > 1:
        if run.engine == "cursor":
            raise PadsError("--engine cursor pins the serial cursor loop "
                            "and cannot be combined with --jobs")
        if run.engine == "batch":
            raise PadsError("--engine batch runs the in-process columnar "
                            "kernels and cannot be combined with --jobs; "
                            "drop one of the two")
        if run.follow is not None:
            raise PadsError("--follow tails an unbounded stream and cannot "
                            "be combined with --jobs; drop one of the two")
        if run.header_type is not None and kind == "stream":
            raise PadsError("--header needs a serial prefix parse and "
                            "cannot be combined with --jobs on stdin")


def _grid_reason(description, run: Run, kind: str) -> Optional[str]:
    """Why this run cannot use the grid kernels, or None."""
    from .batch import _runtime_gate, batch_verdict, count_gate
    if run.follow is not None:
        return "--follow tails an unbounded stream (cursor only)"
    if kind == "source":
        return "cannot feed an open Source to the grid driver"
    if run.op == "count":
        return count_gate(description)
    if run.header_type is not None:
        return "--header needs a serial prefix parse; use --engine cursor"
    verdict = batch_verdict(description, run.record_type)
    if not verdict.eligible:
        return verdict.reason
    return _runtime_gate(description, run.mask)


def _tracing() -> bool:
    obs = observe.CURRENT
    return obs is not None and obs.tracer is not None


def choose(description, run: Run, kind: str,
           start: int = 0) -> Tuple[str, Optional[list]]:
    """The one engine chooser: ``(engine, windows)``.

    In order: a checkpointed or indexing run over a file is
    ``durable``; ``jobs > 1`` is ``parallel`` when the input splits at
    record boundaries (a stream always does, or raises) and the serial
    ``cursor`` loop when it does not; otherwise ``batch`` when the grid
    kernels are eligible and ``engine`` allows them, else ``cursor``.
    An active tracer pins the serial cursor loop.
    ``windows`` is the planned chunk list of a seekable parallel run
    (from offset ``start``), None otherwise.
    """
    if run.checkpoint is not None or run.resume or (
            run.index and kind == "path" and run.follow is None):
        return "durable", None
    if run.jobs > 1:
        if kind == "stream" and not _tracing():
            return "parallel", None
        if kind != "source":
            from .parallel import _plan_windows
            plan = _plan_windows(description, run.data, run.jobs, start)
            if plan is not None:
                return "parallel", plan[0]
        return "cursor", None
    if run.engine == "cursor":
        return "cursor", None
    reason = _grid_reason(description, run, kind)
    if reason is None:
        return "batch", None
    if run.engine == "batch":
        raise PadsError(f"--engine batch: the batch engine cannot run "
                        f"{run.record_type or 'this count'}: {reason}")
    return "cursor", None


# -- execution -----------------------------------------------------------------


def execute(description, run: Run) -> RunResult:
    """Run ``run`` against a compiled description (either engine)."""
    if run.limits is not None and run.limits is not description.limits:
        # A shallow twin carrying this run's budget: the compiled
        # description itself stays shareable across budgets.
        description = copy.copy(description)
        description.limits = run.limits
    kind = _kind(run.data)
    _check(run, kind)
    header_acc = src = None
    start = base = 0
    if run.header_type is not None:
        src = _cursor_source(description, run, kind)
        header_acc = Accumulator(description.node(run.header_type),
                                 "<header>", run.tracked)
        rep, pd = description.parse(src, run.header_type, run.mask)
        header_acc.add(rep, pd)
        start, base = src.pos, src.record_idx + 1
    engine, windows = choose(description, run, kind, start)
    if engine == "durable":
        from .durable import run_durable
        return RunResult(engine, **run_durable(description, run))
    if engine == "parallel":
        return RunResult(engine, header_acc=header_acc,
                         **_run_parallel(description, run, windows, base))
    if run.op == "count":
        if engine == "batch":
            from .batch import count_spans
            n = count_spans(_spans(description, run), description.discipline)
        else:
            n = count_source(_cursor_source(description, run, kind))
        return RunResult(engine, count=n)
    if engine == "batch":
        from .batch import grid_records
        pairs = grid_records(description, _spans(description, run),
                             run.record_type, run.mask)
    else:
        pairs = description.records(
            src or _cursor_source(description, run, kind), run.record_type,
            run.mask)
    if run.op == "records":
        return RunResult(engine, records=pairs)
    acc = new_accumulator(description, run.record_type, run.tracked,
                          run.summaries)
    tally = ErrorTally()
    fold(pairs, acc, tally)
    return RunResult(engine, acc=acc, header_acc=header_acc, tally=tally)


def _run_parallel(description, run: Run, windows, base: int) -> dict:
    from . import parallel
    if windows is None:
        batches = parallel.stream_batches(description, run.data, run.jobs,
                                          run.window)
    else:
        batches = [windows]
    parts = parallel.map_chunks(description, batches, run.jobs, job_of(run))
    if run.op == "records":
        return {"records": parallel.rebased_records(parts)}
    if run.op == "count":
        return {"count": sum(parts)}
    acc = new_accumulator(description, run.record_type, run.tracked,
                          run.summaries)
    tally = ErrorTally()
    for part in parts:
        base += parallel.merge_accum(acc, tally, part, base)
    return {"acc": acc, "tally": tally}


def job_of(run: Run) -> tuple:
    """The picklable per-chunk work order a worker process receives."""
    return (run.op, run.record_type, run.mask, run.tracked, run.summaries)
