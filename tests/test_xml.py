"""Tests for XML conversion and XML Schema generation (paper Section 5.3.2)."""

import xml.dom.minidom as minidom
import xml.etree.ElementTree as ET

import pytest

from repro import compile_description, gallery
from repro.tools.xml_out import to_xml, xml_records
from repro.tools.xsd import schema_for_description, schema_for_type


def parse_xml(text: str) -> ET.Element:
    return ET.fromstring(text)


class TestXmlOutput:
    def test_well_formed(self, sirius):
        rep, pd = sirius.parse(gallery.SIRIUS_SAMPLE)
        xml = to_xml(sirius.node("out_sum"), rep, pd, "sirius")
        minidom.parseString(xml)  # raises on malformed output

    def test_struct_fields_become_elements(self, sirius):
        rep, pd = sirius.parse(gallery.SIRIUS_SAMPLE)
        root = parse_xml(to_xml(sirius.node("out_sum"), rep, pd, "sirius"))
        assert root.find("h/tstamp").text == "1005022800"
        first = root.find("es/elt/header")
        assert first.find("order_num").text == "9152"
        assert first.find("zip_code").text == "07988"

    def test_union_wraps_branch(self, sirius):
        rep, pd = sirius.parse(gallery.SIRIUS_SAMPLE)
        root = parse_xml(to_xml(sirius.node("out_sum"), rep, pd, "sirius"))
        ramp = root.find("es/elt/header/ramp")
        assert ramp.find("genRamp/id").text == "152272"

    def test_opt_none_is_empty_element(self, sirius):
        rep, pd = sirius.parse(gallery.SIRIUS_SAMPLE)
        root = parse_xml(to_xml(sirius.node("out_sum"), rep, pd, "sirius"))
        none = root.find("es/elt/header/nlp_service_tn")
        assert none.text is None and len(none) == 0

    def test_array_has_elts_and_length(self, sirius):
        rep, pd = sirius.parse(gallery.SIRIUS_SAMPLE)
        root = parse_xml(to_xml(sirius.node("out_sum"), rep, pd, "sirius"))
        events = root.findall("es/elt")[1].find("events")
        assert len(events.findall("elt")) == 2
        assert events.find("length").text == "2"

    def test_pd_embedded_only_for_buggy_data(self, sirius):
        clean_xml = to_xml(sirius.node("out_sum"),
                           *reversed(list(sirius.parse(gallery.SIRIUS_SAMPLE))[::-1]))
        rep, pd = sirius.parse(gallery.SIRIUS_SAMPLE)
        clean_xml = to_xml(sirius.node("out_sum"), rep, pd, "sirius")
        assert "<pd>" not in clean_xml

        bad = gallery.SIRIUS_SAMPLE.replace("|10|1000295291", "|10|te1000295291")
        rep, pd = sirius.parse(bad)
        buggy_xml = to_xml(sirius.node("out_sum"), rep, pd, "sirius")
        assert "<pd>" in buggy_xml
        root = parse_xml(buggy_xml)
        pds = root.findall(".//pd")
        assert pds, "expected embedded parse descriptors"
        assert any(p.find("errCode") is not None and
                   p.find("errCode").text != "NO_ERR" for p in pds)

    def test_escaping(self):
        d = compile_description("Precord Pstruct r { Pstring_any s; };")
        rep, pd = d.parse(b"a<b>&c\n", "r")
        xml = to_xml(d.node("r"), rep, pd)
        assert "a&lt;b&gt;&amp;c" in xml

    def test_xml_records_stream(self, clf):
        chunks = list(xml_records(clf, clf.records(gallery.CLF_SAMPLE,
                                                   "entry_t"), "entry_t"))
        doc = "\n".join(chunks)
        root = parse_xml(doc)
        assert len(root.findall("entry_t")) == 2
        assert root.findall("entry_t")[0].find("response").text == "200"


class TestSchema:
    def test_event_seq_fragment_matches_paper(self, sirius):
        """The paper prints the eventSeq complexTypes; check the structure
        element-for-element."""
        frag = schema_for_type("eventSeq", sirius.node("eventSeq"))
        # Wrap to parse (xs: prefix needs a namespace declaration).
        wrapped = ('<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
                   + frag + "</xs:schema>")
        root = parse_xml(wrapped)
        ns = {"xs": "http://www.w3.org/2001/XMLSchema"}
        pd_type = root.find('xs:complexType[@name="eventSeq_pd"]', ns)
        names = [e.get("name") for e in pd_type.findall(".//xs:element", ns)]
        assert names == ["pstate", "nerr", "errCode", "loc",
                         "neerr", "firstError", "elt"]
        val_type = root.find('xs:complexType[@name="eventSeq"]', ns)
        names = [e.get("name") for e in val_type.findall(".//xs:element", ns)]
        assert names == ["elt", "length", "pd"]
        elt = val_type.find('.//xs:element[@name="elt"]', ns)
        assert elt.get("maxOccurs") == "unbounded"

    def test_struct_schema(self, clf):
        frag = schema_for_type("entry_t", clf.node("entry_t"))
        assert '<xs:element name="client" type="client_t"/>' in frag
        assert '"entry_t_pd"' in frag

    def test_union_schema_is_choice(self, clf):
        frag = schema_for_type("client_t", clf.node("client_t"))
        assert "<xs:choice>" in frag
        assert '<xs:element name="ip"' in frag

    def test_enum_schema_is_restriction(self, clf):
        frag = schema_for_type("method_t", clf.node("method_t"))
        assert '<xs:enumeration value="GET"/>' in frag
        assert '<xs:enumeration value="UNLINK"/>' in frag

    def test_whole_description_schema(self, sirius):
        schema = schema_for_description(sirius)
        for tname in sirius.type_names:
            assert f'name="{tname}"' in schema
