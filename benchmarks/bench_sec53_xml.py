"""Section 5.3.2: XML conversion and XML Schema generation.

Prints the eventSeq schema fragment the paper shows, checks that buggy
records embed their parse descriptors in the XML, and benchmarks the
conversion program's throughput.
"""

import random
import xml.etree.ElementTree as ET

import pytest

from repro import gallery
from repro.tools.datagen import sirius_workload
from repro.tools.xml_out import xml_records
from repro.tools.xsd import schema_for_type

N = 5000


def test_print_eventseq_schema(sirius_interp, capsys):
    fragment = schema_for_type("eventSeq", sirius_interp.node("eventSeq"))
    # The element list must match the paper's printed fragment.
    for element in ("pstate", "nerr", "errCode", "loc", "neerr",
                    "firstError", "elt", "length", "pd"):
        assert f'name="{element}"' in fragment
    with capsys.disabled():
        print()
        print(fragment)


def test_buggy_data_embeds_pd(sirius_interp):
    data = sirius_workload(500, random.Random(11)).split(b"\n", 1)[1]
    doc = "\n".join(xml_records(sirius_interp,
                                sirius_interp.records(data, "entry_t"),
                                "entry_t"))
    root = ET.fromstring(doc)
    assert len(root.findall("entry_t")) == 500
    pds = root.findall(".//pd")
    assert pds, "error records must carry parse descriptors"


@pytest.mark.benchmark(group="sec53-xml")
def test_xml_conversion_throughput(benchmark, sirius_gen):
    data = sirius_workload(N, random.Random(12),
                           syntax_errors=0, sort_violations=0).split(b"\n", 1)[1]

    def run():
        return sum(len(chunk) for chunk in
                   xml_records(sirius_gen, sirius_gen.records(data, "entry_t"),
                               "entry_t"))

    assert benchmark(run) > 0
