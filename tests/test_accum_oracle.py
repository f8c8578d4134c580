"""Oracle for the specialised accumulator add path.

:class:`RefScalar` and :class:`RefAccumulator` are a frozen, test-only
copy of the tree-walking accumulator the specialised adders replaced:
``add`` re-dispatches on the type node for every value and ``top`` sorts
the whole value table.  Rendering is shared with the production classes
(it did not change); what is checked is that everything the adders,
``top`` and ``merge`` compute renders byte-identically.

The sweep covers every gallery description with injected errors, the
interpreter and the generated engine, the serial, batch, stream and
parallel record loops, tracked-value limits that overflow, summaries on
and off, and report depths from 0 up past the number of distinct
values.  The reference is always fed the record stream of the loop
under test, so the check isolates accumulation from the engines.
"""

import io
import pickle
import random

import pytest

from repro import Run, execute, parallel
from repro.codegen import compile_generated
from repro.core.api import compile_description
from repro.core.errors import ErrCode, Loc, Pd
from repro.core.io import NewlineRecords, plan_chunks
from repro.core.types import (
    AppNode,
    ArrayNode,
    OptNode,
    RecordNode,
    StructNode,
    SwitchUnionNode,
    UnionNode,
)
from repro.core.values import DateVal
from repro.faults import GALLERY_TARGETS
from repro.tools.accum import (
    DEFAULT_TRACKED,
    Accumulator,
    ScalarAccum,
    _kind_of,
    _type_label,
)
from repro.tools.datagen import (
    clf_workload,
    generate_source,
    plan_injector,
    sirius_workload,
)
from repro.tools.summaries import NumericSummaries, attach_summaries

TRACKED = (1, 3, 1000)
JOBS = 2


# -- the reference: the tree walker, as it was ---------------------------------


class RefScalar:
    def __init__(self, kind="string", tracked=DEFAULT_TRACKED):
        self.kind = kind
        self.good = 0
        self.bad = 0
        self.tracked_limit = tracked
        self.values = {}
        self.tracked_count = 0
        self.min = None
        self.max = None
        self.total = 0.0
        self.err_codes = {}
        self.summaries = None

    def add(self, value, pd):
        self._add(value, pd)
        # The summaries hook, as ``attach_summaries`` used to wrap ``add``.
        if self.summaries is not None and (pd is None or pd.nerr == 0):
            key = value.epoch if isinstance(value, DateVal) else value
            if isinstance(key, (int, float)) and not isinstance(key, bool):
                self.summaries.add(key)

    def _add(self, value, pd):
        if pd is not None and pd.nerr > 0:
            self.bad += 1
            name = pd.err_code.name
            self.err_codes[name] = self.err_codes.get(name, 0) + 1
            return
        self.good += 1
        key = value.epoch if isinstance(value, DateVal) else value
        if isinstance(key, (int, float)) and not isinstance(key, bool):
            self.total += key
            self.min = key if self.min is None else min(self.min, key)
            self.max = key if self.max is None else max(self.max, key)
        try:
            in_table = key in self.values
        except TypeError:
            return
        if in_table:
            self.values[key] += 1
            self.tracked_count += 1
        elif len(self.values) < self.tracked_limit:
            self.values[key] = 1
            self.tracked_count += 1

    def merge(self, other):
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
                self.values[key] = count
        self.tracked_count = sum(self.values.values())
        if self.summaries is not None and other.summaries is not None:
            self.summaries.merge(other.summaries)
        return self

    def top(self, k=10):
        return sorted(self.values.items(),
                      key=lambda kv: (-kv[1], str(kv[0])))[:k]

    total_count = ScalarAccum.total_count
    pcnt_bad = ScalarAccum.pcnt_bad
    report = ScalarAccum.report


class RefAccumulator:
    def __init__(self, node, name="<top>", tracked=DEFAULT_TRACKED):
        self.node = node
        self.name = name
        self.tracked = tracked
        self.label = _type_label(node)
        self.self_acc = RefScalar(_kind_of(node), tracked)
        self.children = {}
        self.elts = None
        self.lengths = None
        node = _resolve(node)
        if isinstance(node, StructNode):
            for f in node.fields:
                if f.kind == "data":
                    self._child(f.name, f.node)
        elif isinstance(node, UnionNode):
            for br in node.branches:
                self._child(br.name, br.node)
        elif isinstance(node, SwitchUnionNode):
            for case in node.cases:
                self._child(case.name, case.node)
        elif isinstance(node, OptNode):
            self._child("some", node.inner)
        elif isinstance(node, ArrayNode):
            self.elts = RefAccumulator(node.elt, f"{self.name}[]", tracked)
            self.lengths = RefScalar("int", tracked)

    def _child(self, name, node):
        self.children[name] = RefAccumulator(node, f"{self.name}.{name}",
                                             self.tracked)

    def add(self, rep, pd=None):
        node = _resolve(self.node)
        if isinstance(node, StructNode):
            self.self_acc.add(None, pd)
            for name, child in self.children.items():
                try:
                    value = getattr(rep, name)
                except AttributeError:
                    continue
                child.add(value, pd.fields.get(name) if pd else None)
        elif isinstance(node, (UnionNode, SwitchUnionNode)):
            self.self_acc.add(getattr(rep, "tag", None), pd)
            tag = getattr(rep, "tag", None)
            if tag in self.children:
                self.children[tag].add(rep.value, pd.branch if pd else None)
        elif isinstance(node, OptNode):
            if pd is not None and pd.nerr > 0:
                self.self_acc.add(None, pd)
            elif rep is None:
                self.self_acc.add("NONE", None)
            else:
                self.self_acc.add("SOME", None)
                self.children["some"].add(rep, pd.branch if pd else None)
        elif isinstance(node, ArrayNode):
            self.self_acc.add(None, pd)
            if rep is not None:
                self.lengths.add(len(rep), None)
                elt_pds = pd.elts if pd else []
                for i, value in enumerate(rep):
                    elt_pd = elt_pds[i] if i < len(elt_pds) else None
                    self.elts.add(value, elt_pd)
        else:
            self.self_acc.add(rep, pd)

    def merge(self, other):
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

    report = Accumulator.report
    full_report = Accumulator.full_report


def _resolve(node):
    while isinstance(node, RecordNode):
        node = node.inner
    if isinstance(node, AppNode):
        node = node.decl_node
    return node


def ref_attach_summaries(acc, bins=32, eps=0.01):
    scalars = [acc.lengths] if acc.lengths is not None else []
    if acc.self_acc.kind in ("int", "float", "date"):
        scalars.append(acc.self_acc)
    for scalar in scalars:
        if scalar.summaries is None:
            scalar.summaries = NumericSummaries(bins, eps)
    for child in ([acc.elts] if acc.elts is not None else []) + \
            list(acc.children.values()):
        ref_attach_summaries(child, bins, eps)


# -- comparison helpers ---------------------------------------------------------


def summaries_dump(acc):
    """Every summaries bundle in the tree, rendered, in tree order."""
    out = []
    for scalar in (acc.self_acc, acc.lengths):
        s = getattr(scalar, "summaries", None)
        if s is not None:
            out.append((s.report(), s.histogram.counts(), s.sample.sample,
                        s.sample.n))
    if acc.elts is not None:
        out.extend(summaries_dump(acc.elts))
    for child in acc.children.values():
        out.extend(summaries_dump(child))
    return out


def assert_same(acc, ref, distinct):
    for top in (0, 1, 10, distinct + 1):
        assert acc.full_report(top) == ref.full_report(top), top
    assert summaries_dump(acc) == summaries_dump(ref)


def max_distinct(acc):
    """Largest value table in the tree (reports use a depth past it)."""
    sizes = [len(acc.self_acc.values)]
    if acc.lengths is not None:
        sizes.append(len(acc.lengths.values))
    if acc.elts is not None:
        sizes.append(max_distinct(acc.elts))
    sizes.extend(max_distinct(c) for c in acc.children.values())
    return max(sizes)


def fresh(node, tracked, summaries, cls=Accumulator):
    acc = cls(node, "<top>", tracked)
    if summaries:
        (attach_summaries if cls is Accumulator
         else ref_attach_summaries)(acc)
    return acc


def fed(node, pairs, tracked, summaries, cls=Accumulator):
    acc = fresh(node, tracked, summaries, cls)
    for rep, pd in pairs:
        acc.add(rep, pd)
    return acc


# -- the corpus -----------------------------------------------------------------

#: Beyond the gallery: errors inside a switched union's case, an optional
#: that fails its constraint, and bad elements in an array of structs.
MIXED = """
Ptypedef Puint16 small_t : small_t x => { x < 500 };
Punion payload_t(:Puint8 which:) {
  Pswitch (which) {
    Pcase 0: small_t num;
    Pcase 1: Pstring(:';':) text;
    Pdefault: Pchar other;
  }
};
Pstruct pair_t { small_t a; ','; Pstring(:'|':) b; };
Parray pairs_t { pair_t[] : Psep('|') && Pterm(Peor); };
Precord Pstruct rec_t {
  Puint8 tag; ':';
  payload_t(:tag:) body; ';';
  Popt small_t maybe; ';';
  pairs_t pairs;
};
"""


def _mixed_lines(rng, n):
    lines = []
    for _ in range(n):
        tag = rng.choice((0, 0, 1, 2))
        body = str(rng.choice((7, 12, 499, 700))) if tag == 0 \
            else rng.choice(("ab", "x", ""))
        maybe = rng.choice(("", "5", "42", "900", "zz"))
        pairs = "|".join(f"{rng.choice((1, 2, 3, 600))},{rng.choice('abc')}"
                         for _ in range(rng.randrange(4)))
        lines.append(f"{tag}:{body};{maybe};{pairs}\n")
    return "".join(lines).encode("ascii")


def _corpus():
    """``name -> (interp, gen, data, record_type)`` for every gallery
    description (plus :data:`MIXED`), conforming data with errors
    injected."""
    out = {}
    targets = GALLERY_TARGETS + [("mixed", MIXED, "rec_t", "ascii",
                                  NewlineRecords())]
    for name, text, rtype, ambient, disc in targets:
        interp = compile_description(text, ambient=ambient, discipline=disc)
        gen = compile_generated(text, ambient=ambient, discipline=disc)
        rng = random.Random(f"oracle-{name}")
        data = generate_source(interp, rtype, 160, rng,
                               plan_injector(interp, rtype, 0.15))
        if name == "clf":
            data += clf_workload(160, rng)
        elif name == "sirius":
            data += sirius_workload(60, rng).split(b"\n", 1)[1]
        elif name == "mixed":
            data += _mixed_lines(rng, 160)
        out[name] = (interp, gen, data, rtype)
    return out


CORPUS = [t[0] for t in GALLERY_TARGETS] + ["mixed"]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the minimum chunk so the corpus inputs split."""
    monkeypatch.setattr(parallel, "plan_chunks",
                        lambda h, size, d, n, start=0:
                        plan_chunks(h, size, d, n, min_chunk=1 << 10,
                                    start=start))


def _parallel_reference(desc, data, rtype, tracked, summaries):
    """The parallel reduce, replayed with the reference: one reference
    tree per planned window, merged in window order."""
    plan = parallel._plan_windows(desc, data, JOBS)
    if plan is None:
        return fed(desc.node(rtype), desc.records(data, rtype), tracked,
                   summaries, RefAccumulator), False
    ref = fresh(desc.node(rtype), tracked, summaries, RefAccumulator)
    for window in plan[0]:
        part = fed(desc.node(rtype),
                   parallel._window_records(desc, window, rtype, None, None),
                   tracked, summaries, RefAccumulator)
        ref.merge(part)
    return ref, True


# -- the sweep ------------------------------------------------------------------


@pytest.mark.parametrize("summaries", [False, True],
                         ids=["plain", "summaries"])
@pytest.mark.parametrize("name", CORPUS)
class TestMatchesTreeWalker:
    def test_serial_both_engines(self, corpus, name, summaries):
        interp, gen, data, rtype = corpus[name]
        for tracked in TRACKED:
            reports = []
            for desc in (interp, gen):
                pairs = list(desc.records(data, rtype))
                acc = fed(desc.node(rtype), pairs, tracked, summaries)
                ref = fed(desc.node(rtype), pairs, tracked, summaries,
                          RefAccumulator)
                assert_same(acc, ref, max_distinct(ref))
                reports.append(acc.full_report(10))
            assert reports[0] == reports[1]
        assert "bad: 0 " not in reports[0].splitlines()[2]  # errors injected

    def test_batch_and_stream(self, corpus, name, summaries):
        interp, gen, data, rtype = corpus[name]
        for desc in (interp, gen):
            for tracked in TRACKED:
                acc = execute(desc, Run("accum", data, rtype, tracked=tracked,
                                        summaries=summaries)).acc
                ref = fed(desc.node(rtype), desc.records_batch(data, rtype),
                          tracked, summaries, RefAccumulator)
                assert_same(acc, ref, max_distinct(ref))
                acc = execute(desc, Run("accum", io.BytesIO(data), rtype,
                                        tracked=tracked, summaries=summaries,
                                        window=1 << 12)).acc
                ref = fed(desc.node(rtype),
                          execute(desc, Run("records", io.BytesIO(data), rtype,
                                            window=1 << 12)).records,
                          tracked, summaries, RefAccumulator)
                assert_same(acc, ref, max_distinct(ref))

    def test_parallel(self, corpus, name, summaries, small_chunks):
        interp, gen, data, rtype = corpus[name]
        for desc in (interp, gen):
            for tracked in TRACKED:
                acc = execute(desc, Run("accum", data, rtype, jobs=JOBS,
                                        tracked=tracked,
                                        summaries=summaries)).acc
                ref, split = _parallel_reference(desc, data, rtype, tracked,
                                                 summaries)
                assert_same(acc, ref, max_distinct(ref))
        # Every record-delimited corpus really runs chunked.
        assert split or not interp.discipline.chunkable

    def test_pickle_feed_merge(self, corpus, name, summaries):
        """Pickle round-trip, further adds, then merge — as checkpoints
        and workers use it."""
        interp, gen, data, rtype = corpus[name]
        for desc in (interp, gen):
            pairs = list(desc.records(data, rtype))
            thirds = len(pairs) // 3
            parts = pairs[:thirds], pairs[thirds:2 * thirds], \
                pairs[2 * thirds:]
            node = desc.node(rtype)
            for tracked in TRACKED:
                acc = fed(node, parts[0], tracked, summaries)
                acc = pickle.loads(pickle.dumps(acc))
                assert acc.node is None
                for rep, pd in parts[1]:
                    acc.add(rep, pd)
                other = pickle.loads(pickle.dumps(
                    fed(node, parts[2], tracked, summaries)))
                acc.merge(other)
                acc = pickle.loads(pickle.dumps(acc))

                ref = fed(node, parts[0] + parts[1], tracked, summaries,
                          RefAccumulator)
                ref.merge(fed(node, parts[2], tracked, summaries,
                              RefAccumulator))
                assert_same(acc, ref, max_distinct(ref))


# -- top(k) ---------------------------------------------------------------------


class TestTop:
    def test_ties_between_equal_strings_keep_first_seen_order(self):
        acc, ref = ScalarAccum(), RefScalar()
        for value in ("1", 1, "1", 1, 2, "2", 2, "2", 3, "x", "x"):
            acc.add(value, None)
            ref.add(value, None)
        assert list(acc.values) == ["1", 1, 2, "2", 3, "x"]
        for k in range(-3, len(acc.values) + 3):
            assert acc.top(k) == ref.top(k), k
        assert acc.top(2) == [("1", 2), (1, 2)]
        assert [type(v) for v, _ in acc.top(4)] == [str, int, int, str]

    def test_random_tables(self):
        rng = random.Random(5)
        for trial in range(200):
            acc, ref = ScalarAccum(), RefScalar()
            pool = [rng.randrange(30) for _ in range(8)] + \
                [str(rng.randrange(30)) for _ in range(8)] + [1.5, -0.0, 0]
            for _ in range(rng.randrange(1, 60)):
                value = rng.choice(pool)
                acc.add(value, None)
                ref.add(value, None)
            for k in range(-2, len(acc.values) + 2):
                assert acc.top(k) == ref.top(k), (trial, k)


# -- the pickling / summaries contract -----------------------------------------


class TestAdderContract:
    def test_unpickled_accumulator_keeps_feeding_summaries(self, clf):
        data = clf_workload(200, random.Random(3))
        pairs = list(clf.records(data, "entry_t"))
        acc = fresh(clf.node("entry_t"), 1000, True)
        for rep, pd in pairs[:100]:
            acc.add(rep, pd)
        acc = pickle.loads(pickle.dumps(acc))
        for rep, pd in pairs[100:]:
            acc.add(rep, pd)
        length = acc.field("length").self_acc
        assert length.summaries.quantiles.n == length.good > 100

    def test_scalar_add_classifies_values(self):
        acc = ScalarAccum("int", tracked=2)
        bad = Pd()
        bad.record_error(ErrCode.INVALID_INT, Loc())
        for value, pd in ((4, None), (DateVal(9), None), (True, None),
                          (None, bad), ([1], None), (4, Pd())):
            acc.add(value, pd)
        assert (acc.good, acc.bad, acc.min, acc.max, acc.total) == \
            (5, 1, 4, 9, 17.0)
        assert acc.values == {4: 2, 9: 1}
        assert acc.tracked_count == 3

    def test_no_closures_in_pickled_state(self, clf):
        acc = Accumulator(clf.node("entry_t"))
        attach_summaries(acc)
        state = acc.__getstate__()
        assert "add" not in state and state["node"] is None
        assert state["shape"] == "struct"
        assert "add" not in vars(acc.field("length").self_acc)
