"""Accumulators: statistical profiling of ad hoc data (paper Section 5.2).

For each type in a description, an accumulator tracks the number of good
values, the number of bad values, and the distribution of legal values.
By default the first 1000 distinct values are tracked and the top 10
reported, exactly as the paper describes; both knobs are settable.

The rendered report matches the paper's layout::

    <top>.length : uint32
    +++++++++++++++++++++++++++++++++++++++++++
    good: 53544 bad: 3824 pcnt-bad: 6.666
    min: 35 max: 248591 avg: 4090.234
    top 10 values out of 1000 distinct values:
    tracked 99.552% of values

    val: 3082 count: 1254 %-of-good: 2.342
    ...
    . . . . . . . . . . . . . . . . . . . . . .
    SUMMING count: 9655 %-of-good: 18.032

Accumulators mirror the type tree: struct accumulators hold one child per
field, union accumulators track the tag distribution, array accumulators
aggregate over all elements and track lengths.

Like the paper's generated ``T_acc_add``, the add path is specialised
once per tree rather than re-derived per value: building an
:class:`Accumulator` resolves each node's shape to a small picklable tag
and binds a plain closure for it, so feeding a record does no type
dispatch.
"""

from __future__ import annotations

import heapq
import itertools
from operator import neg
from typing import Callable, Dict, List, Optional

from ..core.errors import Pd
from ..core.types import (
    AppNode,
    ArrayNode,
    BaseNode,
    EnumNode,
    OptNode,
    PType,
    RecordNode,
    StructNode,
    SwitchUnionNode,
    TypedefNode,
    UnionNode,
)
from ..core.values import DateVal

DEFAULT_TRACKED = 1000
DEFAULT_REPORTED = 10

#: ``add(rep, pd=None)``: one position's add path.
Adder = Callable[..., None]


def _kind_of(node: PType) -> str:
    while isinstance(node, (RecordNode, TypedefNode, AppNode)):
        node = getattr(node, "inner", None) or getattr(node, "base", None) \
            or getattr(node, "decl_node", None)
    if isinstance(node, BaseNode):
        if node._static is not None:
            return node._static.kind
        return "string"
    if isinstance(node, EnumNode):
        return "enum"
    return node.kind


def _type_label(node: PType) -> str:
    while isinstance(node, RecordNode):
        node = node.inner
    if isinstance(node, BaseNode):
        label = node.name.split("(")[0]
        return {"Puint32": "uint32", "Puint8": "uint8", "Puint16": "uint16",
                "Puint64": "uint64", "Pint32": "int32", "Pint64": "int64",
                }.get(label, label)
    return node.name


def _rank(item):
    return -item[1], str(item[0])


class ScalarAccum:
    """Tracks one scalar position: good/bad counts, numeric stats, top-K."""

    def __init__(self, kind: str = "string", tracked: int = DEFAULT_TRACKED):
        self.kind = kind
        self.good = 0
        self.bad = 0
        self.tracked_limit = tracked
        self.values: Dict[object, int] = {}
        self.min = None
        self.max = None
        self.total = 0.0
        self.err_codes: Dict[str, int] = {}
        #: Optional :class:`~repro.tools.summaries.NumericSummaries`, fed
        #: every good numeric value (see ``attach_summaries``).
        self.summaries = None

    def add(self, value, pd: Optional[Pd] = None) -> None:
        """Feed one value.  Accumulator trees bind the adder once instead
        of going through this per call."""
        _scalar_adder(self)(value, pd)

    @property
    def tracked_count(self) -> int:
        """Adds that landed in the value table."""
        return sum(self.values.values())

    def merge(self, other: "ScalarAccum") -> "ScalarAccum":
        """Combine another scalar accumulator into this one.

        Counts, numeric stats (min/max/sum) and the error-code histogram
        merge exactly: merging accumulators built over any split of a
        record stream gives the same values as accumulating the whole
        stream.  The value-distribution table is exact as long as the
        number of distinct values stays within ``tracked_limit``.  Under
        overflow the merge mirrors the serial first-seen admission policy
        — keep this side's keys, admit the other side's new keys in their
        first-seen order until full — so the tracked key set matches the
        serial run except when a part's own table overflowed before
        seeing a key the serial run would have admitted; every reported
        count is then a lower bound on the true count (the documented
        tolerance).

        The tables are updated in place: adders built over this
        accumulator keep feeding it.
        """
        self.good += other.good
        self.bad += other.bad
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for name, count in other.err_codes.items():
            self.err_codes[name] = self.err_codes.get(name, 0) + count
        for key, count in other.values.items():
            if key in self.values:
                self.values[key] += count
            elif len(self.values) < self.tracked_limit:
                # dict order is first-seen order, matching serial admission
                self.values[key] = count
        if self.summaries is not None and other.summaries is not None:
            self.summaries.merge(other.summaries)
        return self

    @property
    def total_count(self) -> int:
        return self.good + self.bad

    def pcnt_bad(self) -> float:
        n = self.total_count
        return 100.0 * self.bad / n if n else 0.0

    def top(self, k: int = DEFAULT_REPORTED) -> List:
        """The ``k`` most frequent values as ``(value, count)`` pairs, by
        count descending, then ``str(value)``, then first-seen order —
        always exactly ``sorted(...)[:k]`` of the whole table.  A proper
        prefix is picked with a heap over tuples built in C; the third
        element (the first-seen index) is unique, so values themselves
        are never compared."""
        values = self.values
        if 0 < k < len(values):
            picked = heapq.nsmallest(k, zip(map(neg, values.values()),
                                            map(str, values),
                                            itertools.count()))
            items = list(values.items())
            return [items[i] for _, _, i in picked]
        return sorted(values.items(), key=_rank)[:k]

    def report(self, path: str, type_name: str,
               reported: int = DEFAULT_REPORTED) -> str:
        lines = [f"{path} : {type_name}",
                 "+" * 43,
                 f"good: {self.good} bad: {self.bad} "
                 f"pcnt-bad: {self.pcnt_bad():.3f}"]
        if self.kind in ("int", "float", "date") and self.good:
            avg = self.total / self.good
            lines.append(f"min: {_fmt(self.min)} max: {_fmt(self.max)} "
                         f"avg: {avg:.3f}")
        if self.values:
            top = self.top(reported)
            lines.append(f"top {len(top)} values out of "
                         f"{len(self.values)} distinct values:")
            if self.good:
                lines.append(f"tracked {100.0 * self.tracked_count / self.good:.3f}% of values")
            lines.append("")
            summed = 0
            for value, count in top:
                pct = 100.0 * count / self.good if self.good else 0.0
                lines.append(f"val: {_fmt(value)} count: {count} "
                             f"%-of-good: {pct:.3f}")
                summed += count
            lines.append(". " * 21)
            pct = 100.0 * summed / self.good if self.good else 0.0
            lines.append(f"SUMMING count: {summed} %-of-good: {pct:.3f}")
        if self.err_codes:
            lines.append("errors by code: " + ", ".join(
                f"{name}: {count}" for name, count
                in sorted(self.err_codes.items(), key=lambda kv: -kv[1])))
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


# -- specialised adders ---------------------------------------------------------
#
# A compound position whose descriptor is clean (``nerr == 0``) has a clean
# subtree — parsers fold every child's errors into the parent — so the
# adders below pass ``None`` down instead of reading (and, through the
# ``Pd.fields``/``Pd.elts`` properties, allocating) child descriptors.


def _scalar_adder(acc: ScalarAccum) -> Adder:
    """``acc``'s add path with its tables, tracking limit and summaries
    hook bound once."""
    values = acc.values
    err_codes = acc.err_codes
    limit = acc.tracked_limit
    note = acc.summaries.add if acc.summaries is not None else None

    def add(value, pd=None):
        if pd is not None and pd.nerr > 0:
            acc.bad += 1
            name = pd.err_code.name
            err_codes[name] = err_codes.get(name, 0) + 1
            return
        acc.good += 1
        cls = value.__class__
        if cls is int or cls is float:
            numeric = True
        elif cls is str or value is None:
            numeric = False
        else:
            if isinstance(value, DateVal):
                value = value.epoch
            numeric = (isinstance(value, (int, float))
                       and not isinstance(value, bool))
        if numeric:
            acc.total += value
            low = acc.min
            if low is None:
                acc.min = acc.max = value
            elif value < low:
                acc.min = value
            elif value > acc.max:
                acc.max = value
            if note is not None:
                note(value)
        try:
            seen = values.get(value)
        except TypeError:
            return  # unhashable; skip distribution tracking
        if seen is not None:
            values[value] = seen + 1
        elif len(values) < limit:
            values[value] = 1

    return add


def _struct_adder(acc: "Accumulator") -> Adder:
    own = _scalar_adder(acc.self_acc)
    fields = tuple((name, child.add) for name, child in acc.children.items())

    def add(rep, pd=None):
        own(None, pd)
        pds = (pd._fields or {}) if pd is not None and pd.nerr else None
        for name, child in fields:
            try:
                value = getattr(rep, name)
            except AttributeError:
                continue
            child(value, pds.get(name) if pds is not None else None)

    return add


def _union_adder(acc: "Accumulator") -> Adder:
    own = _scalar_adder(acc.self_acc)
    branches = {name: child.add for name, child in acc.children.items()}

    def add(rep, pd=None):
        tag = getattr(rep, "tag", None)
        own(tag, pd)
        child = branches.get(tag)
        if child is not None:
            child(rep.value, pd.branch if pd is not None and pd.nerr else None)

    return add


def _opt_adder(acc: "Accumulator") -> Adder:
    own = _scalar_adder(acc.self_acc)
    some = acc.children["some"].add

    def add(rep, pd=None):
        if pd is not None and pd.nerr > 0:
            own(None, pd)
        elif rep is None:
            own("NONE", None)
        else:
            own("SOME", None)
            some(rep, None)

    return add


def _array_adder(acc: "Accumulator") -> Adder:
    own = _scalar_adder(acc.self_acc)
    length = _scalar_adder(acc.lengths)
    elt = acc.elts.add

    def add(rep, pd=None):
        own(None, pd)
        if rep is None:
            return
        length(len(rep), None)
        if pd is not None and pd.nerr:
            elt_pds = pd._elts or ()
            n = len(elt_pds)
            for i, value in enumerate(rep):
                elt(value, elt_pds[i] if i < n else None)
        else:
            for value in rep:
                elt(value, None)

    return add


_ADDERS = {
    "struct": _struct_adder,
    "union": _union_adder,
    "opt": _opt_adder,
    "array": _array_adder,
    "scalar": lambda acc: _scalar_adder(acc.self_acc),
}


class Accumulator:
    """A type-shaped accumulator tree (``<type>_acc`` in the paper's
    Figure 6: ``acc_init`` / ``acc_add`` / ``acc_report``).

    ``add(rep, pd=None)`` is an instance attribute: the closure that
    construction specialised for this node's ``shape`` (``"struct"``,
    ``"union"``, ``"opt"``, ``"array"`` or ``"scalar"``) over its
    children's adders.  Changing the tree's configuration (as
    ``attach_summaries`` does) calls :meth:`rebuild_adders`.  Pickling
    drops the type node and the closures; unpickling rebuilds the
    closures from the shape tags, so a transferred accumulator can be
    fed, merged and reported.
    """

    def __init__(self, node: PType, name: str = "<top>",
                 tracked: int = DEFAULT_TRACKED):
        self.node = node
        self.name = name
        self.tracked = tracked
        self.label = _type_label(node)
        self.self_acc = ScalarAccum(_kind_of(node), tracked)
        self.children: Dict[str, Accumulator] = {}
        self.elts: Optional[Accumulator] = None
        self.lengths: Optional[ScalarAccum] = None
        self.shape = self._build()
        self._link()

    def _build(self) -> str:
        """Create the child accumulators; return this node's shape tag."""
        node = self.node
        while isinstance(node, RecordNode):
            node = node.inner
        if isinstance(node, AppNode):
            node = node.decl_node
        if isinstance(node, StructNode):
            # Pcompute fields are derived values, not data positions, so
            # they are not profiled.
            for f in node.fields:
                if f.kind == "data":
                    self._child(f.name, f.node)
            return "struct"
        if isinstance(node, UnionNode):
            for br in node.branches:
                self._child(br.name, br.node)
            return "union"
        if isinstance(node, SwitchUnionNode):
            for case in node.cases:
                self._child(case.name, case.node)
            return "union"
        if isinstance(node, OptNode):
            self._child("some", node.inner)
            return "opt"
        if isinstance(node, ArrayNode):
            self.elts = Accumulator(node.elt, f"{self.name}[]", self.tracked)
            self.lengths = ScalarAccum("int", self.tracked)
            return "array"
        return "scalar"

    def _child(self, name: str, node: PType) -> None:
        self.children[name] = Accumulator(node, f"{self.name}.{name}",
                                          self.tracked)

    def _link(self) -> None:
        self.add = _ADDERS[self.shape](self)

    def rebuild_adders(self) -> None:
        """Re-specialise every adder in this tree (after configuration
        changes such as attached summaries)."""
        if self.elts is not None:
            self.elts.rebuild_adders()
        for child in self.children.values():
            child.rebuild_adders()
        self._link()

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Combine another accumulator of the same shape into this one.

        This is the reduce step of parallel accumulation: each worker
        accumulates its chunk independently, then the per-chunk trees are
        merged in chunk order.  See :meth:`ScalarAccum.merge` for the
        exactness guarantees.
        """
        self.self_acc.merge(other.self_acc)
        if self.lengths is not None and other.lengths is not None:
            self.lengths.merge(other.lengths)
        if self.elts is not None and other.elts is not None:
            self.elts.merge(other.elts)
        for name, child in self.children.items():
            theirs = other.children.get(name)
            if theirs is not None:
                child.merge(theirs)
        return self

    def __getstate__(self):
        # Type nodes may close over interpreter environments and closures
        # do not pickle; the shape tags are enough to rebuild the adders.
        state = dict(self.__dict__)
        state["node"] = None
        del state["add"]
        return state

    def __setstate__(self, state) -> None:
        # Unpickling finishes the children first, so their adders exist.
        self.__dict__.update(state)
        self._link()

    # -- reporting ----------------------------------------------------------------

    def field(self, path: str) -> "Accumulator":
        """Descend to a nested accumulator by dotted path (``[]`` for array
        elements), e.g. ``"es[].header.order_num"``."""
        acc = self
        for part in path.split("."):
            depth = 0
            while part.endswith("[]"):
                part = part[:-2]
                depth += 1
            if part:
                acc = acc.children[part]
            for _ in range(depth):
                acc = acc.elts
        return acc

    def report(self, reported: int = DEFAULT_REPORTED) -> str:
        return self.self_acc.report(self.name, self.label, reported)

    def full_report(self, reported: int = DEFAULT_REPORTED) -> str:
        """Reports for this node and every nested position, paper-style."""
        chunks = [self.report(reported)]
        if self.lengths is not None and self.lengths.total_count:
            chunks.append(self.lengths.report(f"{self.name}.length",
                                              "array length", reported))
        if self.elts is not None:
            chunks.append(self.elts.full_report(reported))
        for child in self.children.values():
            chunks.append(child.full_report(reported))
        return "\n\n".join(chunks)


def accumulate_records(description, data, record_type: str,
                       mask=None, tracked: int = DEFAULT_TRACKED,
                       header_type: Optional[str] = None):
    """The paper's generated accumulator program (Section 5.2): "given
    only the names of the optional header type and the record type" —
    ``(record_accumulator, header_accumulator_or_None, n_records)``."""
    from ..run import Run, execute
    r = execute(description, Run("accum", data, record_type, mask,
                                 header_type=header_type, tracked=tracked))
    return r.acc, r.header_acc, r.tally.records
