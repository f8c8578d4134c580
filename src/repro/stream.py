"""``repro.stream`` — bounded-memory incremental parsing.

The paper's generated libraries expose *record-at-a-time* entry points
precisely so that multi-gigabyte feeds (the 2.2 GB Sirius stream, web
logs) never have to fit in memory.  This module is that regime's front
door: it parses from **pipes, sockets and growing files** through a
sliding window (:class:`repro.core.io.StreamSource`), keeping O(window)
bytes resident regardless of input size, and — for chunkable record
disciplines — can pipeline a live stream into the parallel engine
without waiting for EOF (:func:`repro.parallel.stream_batches`).

Streaming is the input layer of :func:`repro.run.execute`: any
stream, or a file with ``follow``, is read through the window::

    import sys
    from repro import Run, compile_description, execute

    clf = compile_description(CLF)
    run = Run("records", sys.stdin.buffer, "entry_t")
    for rep, pd in execute(clf, run).records:
        ...                       # one record resident at a time

    # tail -f a growing log, giving up after 5 idle seconds
    run = Run("records", pathlib.Path("/var/log/access.log"), "entry_t",
              follow=5.0)

Memory model, window sizing and the follow discipline are documented in
``docs/STREAMING.md``; the ``stream.*`` observability counters in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import os
from typing import Optional

from .core.errors import PadsError
from .core.io import DEFAULT_STREAM_WINDOW, RecordDiscipline, StreamSource
from .core.limits import ParseLimits

__all__ = ["DEFAULT_STREAM_WINDOW", "StreamSource", "open_stream"]


def open_stream(data, discipline: Optional[RecordDiscipline] = None, *,
                window: Optional[int] = None,
                follow: bool = False,
                idle_timeout: Optional[float] = None,
                limits: Optional[ParseLimits] = None) -> StreamSource:
    """Build a :class:`StreamSource` from whatever the caller has.

    ``data`` may be a path (opened and owned), an integer file
    descriptor, a socket (read through ``makefile("rb")``), any object
    with a ``read`` method (pipes, ``sys.stdin.buffer``), or an
    already-open :class:`StreamSource` (passed through unchanged —
    the per-call options are ignored in that case).
    """
    if isinstance(data, StreamSource):
        return data
    kwargs = dict(window=window if window is not None else DEFAULT_STREAM_WINDOW,
                  follow=follow, idle_timeout=idle_timeout, limits=limits)
    if isinstance(data, (str, os.PathLike)):
        return StreamSource(open(os.fspath(data), "rb"), discipline,
                            owns_stream=True, **kwargs)
    if isinstance(data, int) and not isinstance(data, bool):
        return StreamSource(os.fdopen(data, "rb"), discipline,
                            owns_stream=True, **kwargs)
    if hasattr(data, "makefile"):  # socket.socket
        return StreamSource(data.makefile("rb"), discipline,
                            owns_stream=True, **kwargs)
    if hasattr(data, "read"):
        return StreamSource(data, discipline, **kwargs)
    raise PadsError(f"cannot stream from {type(data).__name__!r}: need a "
                    "path, fd, socket, or a readable binary object")
