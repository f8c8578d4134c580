"""Oracle for the compiled date scanners behind ``Pdate``.

``reference`` is a frozen, test-only copy of the ``strptime`` loop the
scanners replaced: the 14 formats tried in list order, first success
wins.  Every check compares ``parse_date_text`` (an aware ``datetime``)
and ``date_value`` (a ``DateVal``) against it: the same wall-clock
fields, the same ``utcoffset()`` and ``tzname()``, the same epoch and the
same raw text, or ``None`` on both sides.

The sweep renders random epochs under random UTC offsets in every
format, mutates them into the non-canonical spellings ``strptime`` also
accepts (or rejects), and checks the pairwise claim the scanners rest
on: a string of scanner *i*'s shape is refused by every earlier format,
so answering it without trying them keeps first-match semantics.
"""

import datetime as _dt
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_description
from repro.codegen import compile_generated
from repro.core.basetypes import resolve_base_type
from repro.core.basetypes import temporal
from repro.core.basetypes.temporal import (
    DATE_FORMATS,
    date_value,
    parse_date_text,
)
from repro.core.io import Source
from repro.core.values import DateVal

# -- the reference: the strptime loop, as it was ------------------------------

REF_FORMATS = (
    "%d/%b/%Y:%H:%M:%S %z",
    "%Y-%m-%dT%H:%M:%S%z",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d",
    "%m/%d/%Y:%H:%M:%S",
    "%m/%d/%Y %H:%M:%S",
    "%m/%d/%Y",
    "%m/%d/%y:%H:%M:%S",
    "%m/%d/%y",
    "%a %b %d %H:%M:%S %Y",
    "%d %b %Y %H:%M:%S",
    "%d %b %Y",
    "%H:%M:%S",
)


def reference(text: str):
    text = text.strip()
    if not text:
        return None
    for fmt in REF_FORMATS:
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


def assert_same(text: str):
    want = reference(text)
    got = parse_date_text(text)
    if want is None:
        assert got is None, text
        assert date_value(text) is None, text
        return
    assert got is not None, text
    assert got.replace(tzinfo=None) == want.replace(tzinfo=None), text
    assert got.utcoffset() == want.utcoffset(), text
    assert got.tzinfo == want.tzinfo and got.tzname() == want.tzname(), text
    ref_value = DateVal.from_datetime(want, text)
    value = date_value(text)
    assert (value.epoch, value.raw) == (ref_value.epoch, ref_value.raw), text


def scanned(text: str) -> bool:
    """Did a scanner answer (rather than the strptime fall-through)?"""
    return temporal._scan(text.strip()) is not None


def test_format_list_unchanged():
    assert DATE_FORMATS == REF_FORMATS


# -- rendered stamps: epochs x offsets x formats -------------------------------

_MIN = _dt.datetime(1, 1, 2, tzinfo=_dt.timezone.utc)
_MAX = _dt.datetime(9999, 12, 30, tzinfo=_dt.timezone.utc)
_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)
epochs = st.one_of(
    st.integers(0, 4_102_444_800),                      # 1970-2100
    st.integers(int((_MIN - _EPOCH).total_seconds()),
                int((_MAX - _EPOCH).total_seconds())))
offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1)      # minutes


def render(epoch: int, offset: int, fmt: str, zform: str) -> str:
    tz = _dt.timezone(_dt.timedelta(minutes=offset))
    text = (_EPOCH + _dt.timedelta(seconds=epoch)).astimezone(tz).strftime(fmt)
    if "%z" in fmt:
        z = re.search(r"[+-]\d{4}$", text)
        if zform == "colon":
            text = text[:z.start() + 3] + ":" + text[z.start() + 3:]
        elif zform == "Z" and offset == 0:
            text = text[:z.start()] + "Z"
    return text


@settings(max_examples=300, deadline=None)
@given(epoch=epochs, offset=offsets, fmt=st.sampled_from(REF_FORMATS),
       zform=st.sampled_from(["plain", "colon", "Z"]))
def test_rendered_stamps_match_reference(epoch, offset, fmt, zform):
    assert_same(render(epoch, offset, fmt, zform))


@pytest.mark.parametrize("fmt", REF_FORMATS)
def test_every_format_has_a_scanner(fmt):
    # A canonical stamp of each format is answered without strptime, so
    # the comparisons above exercise the scanners, not the fall-through.
    text = render(876_962_811, -420, fmt, "plain")
    assert scanned(text), text
    assert_same(text)


# -- mutations: the spellings only strptime handles ----------------------------

_MUTATIONS = ("lower", "upper", "drop", "double", "space", "unpad", "digit",
              "super", "arabic", "nbsp", "nel", "tab")


def mutate(text: str, how: str, at: int) -> str:
    at %= len(text)
    if how == "lower":
        return text.lower()
    if how == "upper":
        return text.upper()
    if how == "drop":
        return text[:at] + text[at + 1:]
    if how == "double":
        return text[:at] + text[at] + text[at:]
    if how == "space":
        return text.replace(" ", "  ", 1) if " " in text else " " + text
    if how == "unpad":
        return re.sub(r"(?<![0-9])0([0-9])", r"\1", text, count=1 + at % 3)
    if how == "digit":
        digits = [k for k, c in enumerate(text) if c in "0123456789"]
        if not digits:
            return text
        k = digits[at % len(digits)]
        return text[:k] + str((int(text[k]) + 7) % 10) + text[k + 1:]
    if how == "super":
        return text.replace("2", "²", 1)
    if how == "arabic":
        return text.replace("3", "٣", 1)
    if how == "nbsp":
        return "\xa0" + text.replace(" ", "\xa0", at % 2) + "\xa0"
    if how == "nel":
        return "\x85" + text + "\x85"
    return "\t" + text + " \n"


@settings(max_examples=400, deadline=None)
@given(epoch=epochs, offset=offsets, fmt=st.sampled_from(REF_FORMATS),
       zform=st.sampled_from(["plain", "colon", "Z"]),
       how=st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2),
       at=st.integers(0, 40))
def test_mutated_stamps_match_reference(epoch, offset, fmt, zform, how, at):
    text = render(epoch, offset, fmt, zform)
    for step in how:
        text = mutate(text, step, at) or text
    assert_same(text)


EDGES = [
    # ambiguous slashed dates: month first, as the list orders them
    "01/02/2003", "01/02/03", "12/31/1999", "13/01/2003", "01/02/2003:04:05:06",
    # lowercase / mixed-case names
    "15/oct/1997:18:46:51 -0700", "15/OCT/1997:18:46:51 -0700",
    "wed oct 15 18:46:51 1997", "Wed Oct 15 18:46:51 1997",
    "Xyz Oct 15 18:46:51 1997", "15 oct 1997", "15 Okt 1997",
    # one-digit fields
    "5/Oct/1997:8:46:51 -0700", "1/2/2003", "2003-1-2", "1:2:3",
    "Wed Oct 5 18:46:51 1997",
    # doubled spaces and other whitespace inside
    "15/Oct/1997:18:46:51  -0700", "Wed Oct  5 18:46:51 1997",
    "15  Oct 1997", "2003-01-02  03:04:05", "15/Oct/1997:18:46:51\t-0700",
    # offsets
    "15/Oct/1997:18:46:51 -07:00", "2003-01-02T03:04:05-07:00",
    "2003-01-02T03:04:05+0530", "2003-01-02T03:04:05-07:0",
    "15/Oct/1997:18:46:51 +07:00:30", "2003-01-02T03:04:05+07:00:30.5",
    "15/Oct/1997:18:46:51 -0000", "15/Oct/1997:18:46:51 +0060",
    "2003-01-02T03:04:05Z", "15/Oct/1997:18:46:51 Z",
    "2003-01-02T03:04:05z", "2003-01-02t03:04:05",
    "15/Oct/1997:18:46:51 +2400", "15/Oct/1997:18:46:51 +2359",
    "15/Oct/1997:18:46:51 -2359", "15/Oct/1997:18:46:51 +9900",
    # second 60 / 61, hour 24
    "15/Oct/1997:18:46:60 -0700", "23:59:60", "23:59:61",
    "2016-12-31T23:59:60Z", "24:00:00", "2003-01-02 24:00:00",
    # impossible calendar days
    "29/Feb/1900:00:00:00 +0000", "29/Feb/2000:00:00:00 +0000",
    "29/Feb/2004:00:00:00 +0000", "29 Feb 1900", "02/29/1900",
    "31/Apr/2000:00:00:00 +0000", "04/31/2000", "2000-04-31", "00/01/2000",
    "2000-00-10", "32/Jan/2000:00:00:00 +0000",
    # year range edges
    "01/Jan/0001:00:00:00 +0100", "01/Jan/0001:00:00:00 -0100",
    "31/Dec/9999:23:59:59 -0100", "31/Dec/9999:23:59:59 +0100",
    "0000-01-01", "0001-01-01", "9999-12-31T23:59:59", "01/01/69", "01/01/68",
    # padding the format list strips (or does not)
    "\xa015/Oct/1997:18:46:51 -0700\xa0", "\x8515/Oct/1997:18:46:51 -0700\x85",
    "15/Oct/1997:18:46:51\xa0-0700", " 2003-01-02 ", " 18:46:51",
    "\x1c2003-01-02\x1f",
    # digits outside ASCII
    "15/Oct/199²:18:46:51 -0700", "١٥/Oct/1997:18:46:51 -0700",
    "٠١/٠٢/٢٠٠٣",
    "１５ Oct 1997",
    # letters that fold to ASCII under re.IGNORECASE
    "01 ſep 2003", "15/Oct/1997:18:46:51 +0700K",
    # not dates
    "", "   ", "-", "not a date", "15/Oct/1997:18:46:51 -0700 trailing",
    "2003-01-02T", "18:46", "99:99:99",
]


@pytest.mark.parametrize("text", EDGES, ids=repr)
def test_edge_strings(text):
    assert_same(text)


def test_canonical_edges_are_scanned():
    for text in ("01/02/2003", "15/oct/1997:18:46:51 -0700",
                 "wed oct 15 18:46:51 1997", "2003-01-02T03:04:05-07:00",
                 "2003-01-02T03:04:05Z", "29/Feb/2000:00:00:00 +0000"):
        assert scanned(text), text
    for text in ("29/Feb/1900:00:00:00 +0000", "23:59:60",
                 "15/Oct/1997:18:46:51 +2400", "1/2/2003", "Xyz Oct 15 18:46:51 1997"):
        assert not scanned(text), text


# -- the pairwise claim: earlier formats refuse every string of a shape --------

_LETTERS = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
                   min_size=3, max_size=3)
_NAMES = st.sampled_from(["jan", "Feb", "MAR", "apr", "May", "jun", "Jul",
                          "aug", "Sep", "oct", "Nov", "DEC", "Mon", "tue",
                          "WED", "Thu", "fri", "Sat", "sun"])


def _digits(n):
    return st.text("0123456789", min_size=n, max_size=n)


_FIELDS = {
    "d": _digits(2), "m": _digits(2), "y": _digits(2), "Y": _digits(4),
    "H": _digits(2), "M": _digits(2), "S": _digits(2),
    "b": st.one_of(_NAMES, _LETTERS), "a": st.one_of(_NAMES, _LETTERS),
    "z": st.one_of(st.just("Z"),
                   st.builds("{}{}{}{}".format, st.sampled_from("+-"),
                             _digits(2), st.sampled_from(["", ":"]),
                             _digits(2))),
}


def shaped(fmt: str):
    """Strings of the canonical shape a format's scanner matches, with
    any digits and letters in the fields (in range or not)."""
    parts = re.split("%(.)", fmt)
    return st.tuples(*[_FIELDS[p] if k % 2 else st.just(p)
                       for k, p in enumerate(parts)]).map("".join)


@pytest.mark.parametrize("index", range(len(REF_FORMATS)))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_earlier_formats_refuse_each_shape(index, data):
    text = data.draw(shaped(REF_FORMATS[index]))
    assert temporal._match_shape(text) is not None, text
    for earlier in REF_FORMATS[:index]:
        with pytest.raises(ValueError):
            _dt.datetime.strptime(text, earlier)
    assert_same(text)


# -- locale: name-reading scanners step aside outside the C locale -------------

class _ForeignLocale:
    LC_TIME = temporal._locale.LC_TIME

    @staticmethod
    def setlocale(category, value=None):
        return "de_DE.UTF-8"


def test_named_scanners_step_aside_outside_c_locale(monkeypatch):
    monkeypatch.setattr(temporal, "_locale", _ForeignLocale)
    for text in ("15/Oct/1997:18:46:51 -0700", "Wed Oct 15 18:46:51 1997",
                 "15 Oct 1997 18:46:51", "15 Oct 1997"):
        assert not scanned(text), text
        assert_same(text)     # the real locale is C: strptime still reads it
    for text in ("2003-01-02T03:04:05+0100", "01/02/2003", "18:46:51"):
        assert scanned(text), text


# -- the engines: cursor, interpreter fast path, generated module --------------

DESC = "Precord Pstruct r { Pdate(:'|':) d; '|'; Puint8 n; };"
STAMPS = ["15/Oct/1997:18:46:51 -0700", "15/oct/1997:18:46:51 -07:00",
          "2003-01-02T03:04:05Z", "01/02/2003", "23:59:60",
          "29/Feb/1900:00:00:00 +0000", "\xa015 Oct 1997\xa0", "garbage"]


@pytest.mark.parametrize("text", STAMPS, ids=repr)
@pytest.mark.parametrize("n", ["7", "700"])   # fast-path hit, then miss
def test_engines_agree(text, n):
    data = text.encode("latin-1") + b"|" + n.encode() + b"\n"
    interp = compile_description(DESC)
    want = reference(text)
    for engine in (interp, compile_generated(DESC),
                   compile_generated(DESC, backend="ast")):
        rep, pd = engine.parse(data, "r")
        ref_rep, ref_pd = interp.parse(data, "r")
        assert (rep.d.epoch, rep.d.raw) == (ref_rep.d.epoch, ref_rep.d.raw)
        assert pd.nerr == ref_pd.nerr
        if want is None:
            assert (rep.d.epoch, rep.d.raw) == (0, DateVal(0).raw)
        else:
            assert rep.d.epoch == DateVal.from_datetime(want).epoch
            assert rep.d.raw == text


@pytest.mark.parametrize("text", STAMPS, ids=repr)
def test_cp037_bytes(text):
    t = resolve_base_type("Pdate", ("]",), ambient="ebcdic")
    for raw in (text.encode("cp037", "replace"),
                b"\x15" + text.encode("cp037", "replace") + b"\x15"):
        value, code = t.parse(Source.from_bytes(raw + "]".encode("cp037")),
                              True)
        decoded = raw.decode("cp037")
        want = reference(decoded)
        if want is None:
            assert (value.epoch, value.raw) == (0, DateVal(0).raw)
        else:
            ref_value = DateVal.from_datetime(want, decoded)
            assert (value.epoch, value.raw) == (ref_value.epoch, ref_value.raw)
