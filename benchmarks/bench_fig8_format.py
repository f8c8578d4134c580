"""Figure 8: formatted CLF records.

Given the delimiter string "|" and the output date format "%D:%T", the
generated formatting program applied to Figure 2's data must produce
exactly Figure 8's two lines.  The benchmark measures formatting
throughput over a larger workload.
"""

import random

import pytest

from repro import gallery
from repro.tools.datagen import clf_workload
from repro.tools.fmt import format_records

N = 10000


def test_figure8_output_is_exact(clf_interp, capsys):
    pairs = clf_interp.records(gallery.CLF_SAMPLE, "entry_t")
    lines = list(format_records(clf_interp, pairs, "entry_t",
                                delims=["|"], date_format="%D:%T"))
    output = "\n".join(lines) + "\n"
    assert output == gallery.CLF_FORMATTED
    with capsys.disabled():
        print()
        print(output, end="")


@pytest.mark.benchmark(group="fig8-format")
def test_formatting_throughput(benchmark, clf_gen):
    data = clf_workload(N, random.Random(8), dash_rate=0.0)

    def run():
        count = 0
        for _ in format_records(clf_gen, clf_gen.records(data, "entry_t"),
                                "entry_t", delims=["|"],
                                date_format="%D:%T"):
            count += 1
        return count

    assert benchmark(run) == N
