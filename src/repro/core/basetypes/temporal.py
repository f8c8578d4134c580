"""Date and time base types.

``Pdate(:']':)`` in the paper's Figure 4 consumes the CLF timestamp
``15/Oct/1997:18:46:51 -0700`` up to the closing bracket.  The runtime
date parser tries a list of common ad hoc formats (CLF, ISO, US slashed
dates, ctime) and records both the UTC epoch and the raw text, so data
writes back byte-for-byte and formatting can re-render in any output
format (Figure 8 uses ``%D:%T``).

The list's meaning is ``datetime.strptime`` tried format by format, the
first success winning.  Running it costs up to 14 ``strptime`` calls
per stamp, so each format is also compiled once into a *scanner*: an
anchored regex over the zero-padded canonical shape of that format
(``15/Oct/1997:18:46:51 -0700``, never ``5/oct/1997:18:46:51  -07``)
plus integer arithmetic for the epoch.  A scanner answers only for
strings it accepts whole with every field in range; anything else falls
through to the ``strptime`` loop unchanged, so the answer is always the
loop's answer.

Why scanner *i* may answer without trying formats 0..i-1: no earlier
format's ``strptime`` regex accepts a string of its shape.  The reasons
use only separators and field widths (``%d``, ``%m`` and ``%H`` take at
most two characters, ``%Y`` exactly four):

* 1-4 (``dddd-``) vs 0: ``%d`` is followed by ``/`` within three chars.
* 2 vs 1: nothing after the ``T`` can start a ``%z``; 3 vs 1-2: no
  ``T``; 4 vs 1-3: no ``:``.
* 5-9 (``dd/dd/``) vs 0: no space followed by an offset; vs 1-4: ``/``
  where ``%Y`` needs its third digit.
* 6 vs 5: a space after ``%Y`` where 5 needs ``:``; 7 vs 5-6: nothing
  after ``%Y``; 8 and 9 vs 5-7: too few digits after the second ``/``
  for ``%Y``; 9 vs 8: nothing after ``%y``.
* 10 vs 0-9: starts with a letter, where they start with a digit (or a
  space and a digit).
* 11-12 (``dd ``) vs 0-9: a space where those need ``/``, ``-`` or a
  third digit; vs 10: starts with a digit; 12 vs 11: no ``:``.
* 13 (``dd:dd:dd``) vs 0-12: no ``/``, ``-``, space or letter.

``tests/test_dates.py`` checks every pair on generated strings of each
shape against the frozen loop.  Month and weekday names come from the
tables ``_strptime`` itself uses, and the scanners that read names step
aside unless ``LC_TIME`` is the C locale, whose tables they are; the
others do not depend on the locale.
"""

from __future__ import annotations

import _locale
import datetime as _dt
import random
import re

from ..errors import ErrCode
from ..io import Source
from ..values import DateVal
from .base import (
    AMBIENT_ASCII,
    AMBIENT_BINARY,
    AMBIENT_EBCDIC,
    BaseType,
    register_ambient_alias,
    register_base_type,
)
from .strings import _term_byte

# Formats tried in order.  %z handles the CLF timezone offset.
DATE_FORMATS = (
    "%d/%b/%Y:%H:%M:%S %z",   # CLF: 15/Oct/1997:18:46:51 -0700
    "%Y-%m-%dT%H:%M:%S%z",    # ISO with offset
    "%Y-%m-%dT%H:%M:%S",      # ISO basic
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d",
    "%m/%d/%Y:%H:%M:%S",
    "%m/%d/%Y %H:%M:%S",
    "%m/%d/%Y",
    "%m/%d/%y:%H:%M:%S",
    "%m/%d/%y",
    "%a %b %d %H:%M:%S %Y",   # ctime
    "%d %b %Y %H:%M:%S",
    "%d %b %Y",
    "%H:%M:%S",
)


def _strptime_date(text: str):
    """The format list run through ``strptime`` on stripped ``text``:
    the reference every scanner agrees with, and the path for any string
    no scanner accepts."""
    if not text:
        return None
    for fmt in DATE_FORMATS:
        try:
            dt = _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        if fmt == "%H:%M:%S":
            dt = dt.replace(year=1970, month=1, day=1)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=_dt.timezone.utc)
        return dt
    return None


# -- scanners -----------------------------------------------------------------

# The canonical shape of each directive and the width it takes.  Ranges
# are checked after the match (a failed check falls through), so the
# shapes only fix widths; %z ends its formats, so it is read to the end.
_SHAPES = {
    "d": ("[0-9]{2}", 2), "m": ("[0-9]{2}", 2), "y": ("[0-9]{2}", 2),
    "Y": ("[0-9]{4}", 4), "H": ("[0-9]{2}", 2), "M": ("[0-9]{2}", 2),
    "S": ("[0-9]{2}", 2), "b": ("[A-Za-z]{3}", 3), "a": ("[A-Za-z]{3}", 3),
    "z": ("(?:[+-][0-9]{2}:?[0-9]{2}|Z)", None),
}
_DATE_FIELDS = frozenset("aYymbd")
_C_LOCALES = frozenset(("C", "POSIX", "C.UTF-8", "C.utf8"))
_HOURS = {f"{i:02d}": i for i in range(24)}
_SIXTY = {f"{i:02d}": i for i in range(60)}   # minutes and seconds
_EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()
#: Calendar entries each scanner keeps, keyed by the text of its date
#: fields (a log's stamps share few dates); the table empties when full.
_CACHE_SIZE = 4096
_OFFSETS = {"Z": 0}              # %z text -> offset seconds (5,761 valid texts)
_TZ = {0: _dt.timezone.utc}      # offset seconds -> the timezone strptime builds
_names = None                    # ({month abbr: 1..12}, {weekday abbr}) once read


def _name_tables():
    """``_strptime``'s month and weekday abbreviations.  Read once, on
    the first use, which comes after a C-locale check."""
    global _names
    if _names is None:
        import _strptime
        lt = _strptime.LocaleTime()
        _names = ({m: i for i, m in enumerate(lt.a_month) if m},
                  frozenset(lt.a_weekday))
    return _names


def _calendar(year: int, month: int, day: int):
    """``(days since 1970-01-01, year, month, day)``, or None for a date
    that does not exist (which ``strptime`` refuses too)."""
    try:
        return (_dt.date(year, month, day).toordinal() - _EPOCH_ORDINAL,
                year, month, day)
    except ValueError:
        return None


def _offset(z: str):
    """Seconds east of UTC for a canonical %z text, None when strptime
    refuses it (24 hours or more)."""
    hh, mm = int(z[1:3]), int(z[-2:])
    if hh > 23 or mm > 59:
        return None
    return -(hh * 3600 + mm * 60) if z[0] == "-" else hh * 3600 + mm * 60


def _compile_scanner(fmt: str):
    """(regex source, field reader) for one format.  The reader takes a
    string the regex accepted and returns ``(calendar entry, hour,
    minute, second, utc offset)`` when ``strptime`` would accept it with
    those fields, else None."""
    parts = re.split("%(.)", fmt)
    source, spans, runs, pos, after_date = [], {}, [], 0, False
    for k, part in enumerate(parts):
        if k % 2 == 0:
            source.append(re.escape(part))
            pos += len(part)
            continue
        shape, width = _SHAPES[part]
        source.append(shape)
        end = pos + width if width else None
        spans[part] = slice(pos, end)
        # Adjacent date fields (literals between them are fixed) share
        # one slice of the cache key.
        if part in _DATE_FIELDS:
            if after_date:
                runs[-1] = slice(runs[-1].start, end)
            else:
                runs.append(slice(pos, end))
        after_date = part in _DATE_FIELDS
        pos = end or 0
    sY, sy, sm, sb, sd, sH, sM, sS, sz, sa = (spans.get(r)
                                              for r in "YymbdHMSza")
    k0, k1 = (runs + [None, None])[:2]
    named = sb is not None or sa is not None
    dates, offsets = {}, _OFFSETS
    epoch_day = _calendar(1970, 1, 1)     # the date %H:%M:%S is pinned to

    def calendar(text):
        if named:
            months, weekdays = _name_tables()
        if sY is not None:
            year = int(text[sY])
        else:
            year = int(text[sy])
            year += 2000 if year <= 68 else 1900
        if sm is not None:
            month = int(text[sm])
        else:
            month = months.get(text[sb].lower())
            if month is None:
                return None
        if sa is not None and text[sa].lower() not in weekdays:
            return None
        return _calendar(year, month, int(text[sd]))

    def read(text):
        if named and (_locale.setlocale(_locale.LC_TIME, None)
                      not in _C_LOCALES):
            return None
        if k0 is None:
            entry = epoch_day
        else:
            key = text[k0] if k1 is None else text[k0] + text[k1]
            entry = dates.get(key)
            if entry is None:
                if len(dates) >= _CACHE_SIZE:
                    dates.clear()
                entry = dates[key] = calendar(text) or False
            if not entry:
                return None
        if sH is None:
            hour = minute = second = 0
        else:
            try:
                hour = _HOURS[text[sH]]
                minute, second = _SIXTY[text[sM]], _SIXTY[text[sS]]
            except KeyError:          # hour 24, minute 60, second 60 or 61
                return None
        off = 0
        if sz is not None:
            z = text[sz]
            off = offsets.get(z)
            if off is None:
                off = _offset(z)
                if off is None:
                    return None
                offsets[z] = off
        return entry, hour, minute, second, off

    return "".join(source), read


def _compile_scanners():
    """One alternation over every format's shape, in list order, and the
    reader of each alternative, indexed by the alternative's group (the
    match's ``lastindex``)."""
    sources, readers = [], [None]
    for fmt in DATE_FORMATS:
        source, read = _compile_scanner(fmt)
        sources.append(f"({source})")
        readers.append(read)
    return re.compile("|".join(sources), re.ASCII).fullmatch, readers


_match_shape, _READERS = _compile_scanners()


def _scan(text: str):
    """What a scanner reads from stripped ``text``, or None when none
    answers."""
    m = _match_shape(text)
    return None if m is None else _READERS[m.lastindex](text)


def _tz(off: int) -> _dt.timezone:
    tz = _TZ.get(off)
    if tz is None:
        tz = _TZ[off] = _dt.timezone(_dt.timedelta(seconds=off))
    return tz


def parse_date_text(text: str):
    """Parse ``text`` with the ad hoc format list into an aware
    ``datetime``; None when nothing fits."""
    text = text.strip()
    f = _scan(text)
    if f is None:
        return _strptime_date(text)
    (_days, year, month, day), hour, minute, second, off = f
    return _dt.datetime(year, month, day, hour, minute, second, 0, _tz(off))


def date_value(text: str):
    """``text`` as a :class:`DateVal` (UTC epoch, ``text`` kept as the
    raw form), or None when no format fits — the one date conversion
    behind every engine."""
    stripped = text.strip()
    f = _scan(stripped)
    if f is None:
        dt = _strptime_date(stripped)
        return None if dt is None else DateVal(int(dt.timestamp()), text)
    (days, _y, _m, _d), hour, minute, second, off = f
    return DateVal(days * 86400 + hour * 3600 + minute * 60 + second - off,
                   text)


class AsciiDate(BaseType):
    """``Pdate(:term:)`` — a date string up to the terminator (or EOR)."""

    kind = "date"

    def __init__(self, term=None, encoding: str = "latin-1"):
        self.encoding = encoding
        self.term = _term_byte(term, encoding) if term is not None else None

    def parse(self, src: Source, sem_check: bool):
        start = src.pos
        if self.term is not None:
            body = src.take_until(self.term)
            if body is None:
                body = src.take_rest()
        else:
            body = src.take_rest()
        value = date_value(body.decode(self.encoding))
        if value is None:
            src.pos = start
            return self.default(), ErrCode.INVALID_DATE
        return value, ErrCode.NO_ERR

    def write(self, value) -> bytes:
        if isinstance(value, DateVal):
            return value.raw.encode(self.encoding)
        return str(value).encode(self.encoding)

    def default(self):
        return DateVal(0, "")

    def generate(self, rng: random.Random):
        epoch = rng.randint(0, 2_000_000_000)
        dt = _dt.datetime.fromtimestamp(epoch, _dt.timezone.utc)
        raw = dt.strftime("%d/%b/%Y:%H:%M:%S +0000")
        return DateVal(epoch, raw)


class EpochSeconds(BaseType):
    """``Ptimestamp`` — seconds since the epoch as an ASCII integer,
    exposed as a comparable :class:`DateVal`."""

    kind = "date"

    def parse(self, src: Source, sem_check: bool):
        digits = src.take_span(frozenset(b"0123456789"))
        if not digits:
            return self.default(), ErrCode.INVALID_DATE
        epoch = int(digits)
        return DateVal(epoch, digits.decode("ascii")), ErrCode.NO_ERR

    def write(self, value) -> bytes:
        if isinstance(value, DateVal):
            return str(value.epoch).encode("ascii")
        return str(int(value)).encode("ascii")

    def default(self):
        return DateVal(0, "0")

    def generate(self, rng: random.Random):
        epoch = rng.randint(0, 2_000_000_000)
        return DateVal(epoch, str(epoch))


def _register() -> None:
    register_base_type("Pa_date", lambda *a: AsciiDate(*a), min_args=0, max_args=1)
    register_base_type("Pe_date", lambda *a: AsciiDate(*a, encoding="cp037"),
                       min_args=0, max_args=1)
    register_ambient_alias("Pdate", AMBIENT_ASCII, "Pa_date")
    register_ambient_alias("Pdate", AMBIENT_BINARY, "Pa_date")
    register_ambient_alias("Pdate", AMBIENT_EBCDIC, "Pe_date")
    register_base_type("Ptimestamp", EpochSeconds)


_register()
