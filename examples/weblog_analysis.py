#!/usr/bin/env python
"""Web-log analysis: the paper's Section 5.2 accumulator story, end to end.

1. Generate a synthetic Common Log Format workload (the real AT&T logs are
   proprietary) in which ~6.666% of records store '-' instead of the byte
   count — the undocumented server behaviour the paper's accumulator run
   discovered.
2. Profile it with an accumulator program built from just the record type
   name, and print the paper-layout report for the ``length`` field.
3. Show the error log (the records the profile flagged).
4. Reproduce Figure 8: the formatted records with delimiter "|" and date
   format "%D:%T".

Run:  python examples/weblog_analysis.py
"""

import random

from repro import gallery
from repro.tools.accum import accumulate_records
from repro.tools.datagen import clf_workload
from repro.tools.fmt import format_records

N_RECORDS = 5000


def main() -> None:
    clf = gallery.load_clf()
    data = clf_workload(N_RECORDS, random.Random(1997), dash_rate=0.06666)

    print(f"== profiling {N_RECORDS} CLF records ==\n")
    acc, _, count = accumulate_records(clf, data, "entry_t")

    length = acc.field("length")
    print(length.report())

    print("\n== what the 'bad' values are ==")
    print("A glance at the error log reveals servers storing '-' instead of")
    print("the number of bytes returned (paper, Section 5.2):\n")
    shown = 0
    for line, (rep, pd) in zip(data.decode().splitlines(),
                               clf.records(data, "entry_t")):
        if pd.nerr and shown < 3:
            print("   ", line)
            shown += 1

    print("\n== client kinds (union tag distribution) ==")
    client = acc.field("client").self_acc
    for tag, n in sorted(client.values.items(), key=lambda kv: -kv[1]):
        print(f"    {tag}: {n}")

    print("\n== methods ==")
    for meth, n in acc.field("request.meth").self_acc.top(5):
        print(f"    {meth}: {n}")

    print("\n== Figure 8: formatted records ==")
    for line in format_records(clf, clf.records(gallery.CLF_SAMPLE,
                                                "entry_t"), "entry_t",
                               delims=["|"], date_format="%D:%T"):
        print("   ", line)


if __name__ == "__main__":
    main()
