"""Round-trip property tests over every shipped description.

The invariants (DESIGN.md §6):

* error-free data:  write(parse(x)) == x,
* in-memory values: parse(write(r)) == r with a clean descriptor,
* record-at-a-time parsing ≡ whole-source parsing,
* the generated module writes byte-identical output to the interpreter.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_description, gallery
from repro.codegen import compile_generated

from .test_codegen import pd_summary

GALLERY = {
    "clf": ("entry_t", gallery.load_clf),
    "sirius": ("entry_t", gallery.load_sirius),
    "calldetail": ("call_t", gallery.load_call_detail),
    "regulus": ("util_t", gallery.load_regulus),
}


@pytest.fixture(scope="module")
def descriptions():
    return {name: (record, loader())
            for name, (record, loader) in GALLERY.items()}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(GALLERY)), seed=st.integers(0, 10**6))
def test_rep_write_parse_roundtrip(descriptions, name, seed):
    record, desc = descriptions[name]
    rng = random.Random(seed)
    rep = desc.generate(record, rng)
    data = desc.write(rep, record)
    back, pd = desc.parse(data, record)
    assert pd.nerr == 0, (name, data)
    assert back == rep, (name, data)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(GALLERY)), seed=st.integers(0, 10**6))
def test_data_parse_write_roundtrip(descriptions, name, seed):
    record, desc = descriptions[name]
    rng = random.Random(seed)
    data = b"".join(desc.write(desc.generate(record, rng), record)
                    for _ in range(3))
    reps = [rep for rep, pd in desc.records(data, record)]
    rebuilt = b"".join(desc.write(rep, record) for rep in reps)
    assert rebuilt == data, name


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["clf", "sirius", "regulus"]),
       seed=st.integers(0, 10**6))
def test_record_at_a_time_equals_whole_source(descriptions, name, seed):
    record, desc = descriptions[name]
    rng = random.Random(seed)
    data = b"".join(desc.write(desc.generate(record, rng), record)
                    for _ in range(4))
    one_at_a_time = [rep for rep, _ in desc.records(data, record)]
    # The whole-source type is an array (or struct) over the records.
    whole, pd = desc.parse(data) if name != "sirius" else (None, None)
    if name == "clf":
        assert whole == one_at_a_time
    elif name == "regulus":
        assert whole == one_at_a_time


@pytest.fixture(scope="module")
def generated():
    return {
        "clf": compile_generated(gallery.CLF),
        "sirius": compile_generated(gallery.SIRIUS),
        "regulus": compile_generated(gallery.REGULUS),
    }


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["clf", "sirius", "regulus"]),
       seed=st.integers(0, 10**6))
def test_generated_write_matches_interpreter(descriptions, generated, name, seed):
    record, desc = descriptions[name]
    gen = generated[name]
    rng = random.Random(seed)
    rep = desc.generate(record, rng)
    assert gen.write(rep, record) == desc.write(rep, record)
    rg, pg = gen.parse(desc.write(rep, record), record)
    assert pg.nerr == 0 and rg == rep


class TestLatin1ByteTransparency:
    """Bytes >127 must survive every path unchanged: the runtime is
    byte-transparent (latin-1: bytes 0-255 <-> code points 0-255), so no
    stage may re-encode text as UTF-8.  Regression for the generated
    ``*_fmt2io`` / ``*_write_xml_2io`` wrappers, which used to."""

    DESC = """
Precord Pstruct entry_t {
  Pstring(:'|':) name;
  '|';
  Puint32 n;
};
Psource Parray src_t { entry_t[]; };
"""
    DATA = b"caf\xe9|7\nna\xefve|9\n"  # 'café', 'naïve' in latin-1

    @pytest.fixture(scope="class")
    def interp(self):
        return compile_description(self.DESC)

    @pytest.fixture(scope="class")
    def gen(self):
        return compile_generated(self.DESC)

    def test_from_string_is_byte_transparent(self, interp):
        from repro.core.io import Source
        text = self.DATA.decode("latin-1")
        src = Source.from_string(text, interp.discipline)
        out = []
        for rep, pd in interp.records(src, "entry_t"):
            assert pd.nerr == 0
            out.append(interp.write(rep, "entry_t"))
        # Precord writes include the record terminator.
        assert b"".join(out) == self.DATA

    @pytest.mark.parametrize("engine", ["interp", "gen"])
    def test_parse_write_roundtrip_high_bytes(self, engine, request):
        d = request.getfixturevalue(engine)
        reps = [rep for rep, pd in d.records(self.DATA, "entry_t")]
        assert [r.name for r in reps] == ["caf\xe9", "na\xefve"]
        written = b"".join(d.write(r, "entry_t") for r in reps)
        assert written == self.DATA

    def test_fmt_output_stays_latin1(self, interp, gen):
        from repro.tools.fmt import format_records
        lines = list(format_records(interp,
                                    interp.records(self.DATA, "entry_t"),
                                    "entry_t", delims=["|"]))
        assert lines[0].split("|")[0] == "caf\xe9"
        # The generated module's fmt2io twin must emit the same bytes.
        import io as _io
        rep, _ = gen.parse(self.DATA.split(b"\n", 1)[0], "entry_t")
        buf = _io.BytesIO()
        gen.module.entry_t_fmt2io(buf, rep, delims=("|",))
        assert buf.getvalue() == lines[0].encode("latin-1")
        assert b"caf\xe9" in buf.getvalue()         # one byte, not UTF-8
        assert b"caf\xc3\xa9" not in buf.getvalue()  # the old double-encode

    def test_xml_output_stays_latin1(self, interp, gen):
        from repro.tools.xml_out import to_xml
        rep, pd = interp.parse(self.DATA.split(b"\n", 1)[0], "entry_t")
        text = to_xml(interp.node("entry_t"), rep, pd, "entry", 0)
        assert "caf\xe9" in text
        import io as _io
        grep, _ = gen.parse(self.DATA.split(b"\n", 1)[0], "entry_t")
        buf = _io.BytesIO()
        gen.module.entry_t_write_xml_2io(buf, grep, tag="entry")
        assert buf.getvalue() == text.encode("latin-1")
        assert b"caf\xc3\xa9" not in buf.getvalue()

    def test_transparent_encode_mixes_byte_and_unicode_strings(self):
        """Pu_string fields decode real UTF-8, so their code points >255
        must re-encode as UTF-8 while byte-string text stays latin-1 —
        in the same output stream."""
        from repro.core.io import transparent_encode
        assert transparent_encode("caf\xe9") == b"caf\xe9"
        assert transparent_encode("日本") == b"\xe6\x97\xa5\xe6\x9c\xac"
        assert (transparent_encode("caf\xe9|日本")
                == b"caf\xe9|\xe6\x97\xa5\xe6\x9c\xac")

    def test_u_string_2io_writers_roundtrip_utf8(self):
        gen = compile_generated("""
Precord Pstruct entry_t {
  Pu_string(:'|':) name;
  '|';
  Puint32 n;
};
""")
        data = "日本|7\n".encode("utf-8")
        rep, pd = gen.parse(data.rstrip(b"\n"), "entry_t")
        assert pd.nerr == 0 and rep.name == "日本"
        import io as _io
        buf = _io.BytesIO()
        gen.module.entry_t_fmt2io(buf, rep, delims=("|",))
        assert buf.getvalue() == "日本|7".encode("utf-8")
        buf = _io.BytesIO()
        gen.module.entry_t_write_xml_2io(buf, rep, pd, tag="entry")
        assert "日本".encode("utf-8") in buf.getvalue()
