"""Tests for delimited formatting (paper Section 5.3.1 / Figure 8)."""

import pytest

from repro import Mask, P_CheckAndSet, P_Ignore, compile_description, gallery
from repro.tools.fmt import format_records, format_value


class TestFigure8:
    def test_clf_formatting_matches_paper(self, clf):
        """Delimiter "|" + date format "%D:%T" over Figure 2's data must
        yield exactly Figure 8's output."""
        lines = list(format_records(clf, clf.records(gallery.CLF_SAMPLE,
                                                     "entry_t"), "entry_t",
                                    delims=["|"], date_format="%D:%T"))
        assert "\n".join(lines) + "\n" == gallery.CLF_FORMATTED


class TestFormatValue:
    DESC = """
      Punion who_t { Pip ip; Pstring(:' ':) name; };
      Pstruct inner_t { Puint8 x; ','; Puint8 y; };
      Pstruct rec_t {
        who_t who; ' ';
        inner_t pos; ' ';
        Popt Puint32 size;
      };
    """

    @pytest.fixture(scope="class")
    def d(self):
        return compile_description(self.DESC)

    def test_flattening(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        assert format_value(d.node("rec_t"), rep) == "1.2.3.4|7|9|42"

    def test_nested_delimiters_advance(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        text = format_value(d.node("rec_t"), rep, delims=["|", ";"])
        # Nested struct fields use the second delimiter.
        assert text == "1.2.3.4|7;9|42"

    def test_last_delimiter_reused_when_exhausted(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        assert format_value(d.node("rec_t"), rep, delims=["|"]) == "1.2.3.4|7|9|42"

    def test_opt_none_renders_empty(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 ", "rec_t")
        assert format_value(d.node("rec_t"), rep) == "1.2.3.4|7|9|"

    def test_none_text_customisable(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 ", "rec_t")
        assert format_value(d.node("rec_t"), rep,
                            none_text="NONE").endswith("|NONE")

    def test_mask_suppresses_fields(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        mask = Mask(P_CheckAndSet).with_field("pos", Mask(P_Ignore))
        assert format_value(d.node("rec_t"), rep, mask=mask) == "1.2.3.4|42"

    def test_custom_formatter(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        custom = {"inner_t": lambda v: f"({v.x},{v.y})"}
        assert format_value(d.node("rec_t"), rep,
                            custom=custom) == "1.2.3.4|(7,9)|42"

    def test_union_formats_active_branch(self, d):
        rep, _ = d.parse(b"wally 7,9 1", "rec_t")
        assert format_value(d.node("rec_t"), rep).startswith("wally|")


class TestFormatRecords:
    def test_skip_errors(self, clf):
        bad = gallery.CLF_SAMPLE.replace(" 200 30", " 200 -")
        lines = list(format_records(clf, clf.records(bad, "entry_t"),
                                    "entry_t", skip_errors=True))
        assert len(lines) == 1

    def test_arrays_flatten(self, sirius):
        body = gallery.SIRIUS_SAMPLE.split("\n", 1)[1]
        lines = list(format_records(sirius, sirius.records(body, "entry_t"),
                                    "entry_t"))
        assert lines[1].endswith("LOC_CRTE|1001476800|LOC_OS_10|1001649601")
        # Formatted output with '|' equals the raw pipe-separated data here.
        assert lines[1].startswith("9153|9153|1|0|0|0|0|")
