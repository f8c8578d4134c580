"""Small-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Proves that every metric named in BENCHMARK.json prints, with its unit,
on every workload in both modes; that a reference corrupted on purpose
is counted as a failure; and that the timer-resolution guard refuses a
region too short to resolve.  Exits 0 when all of that holds.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "3"


def check_table() -> None:
    from metrics import END_TO_END, PER_LAYER
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        assert listed == table, f"BENCHMARK.json {key} differs from metrics.py"


def check_run(workload: str, trace: int) -> None:
    from metrics import END_TO_END, PER_LAYER
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, (workload, trace, proc.stdout[-2000:],
                                  proc.stderr[-2000:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    table = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(table), workload
    for name, (unit, _better) in table.items():
        cell = result["metrics"][name]
        assert cell["unit"] == unit and math.isfinite(cell["value"]), name
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines[:-1]), f"{name} not printed with {unit}"
    print(f"ok  {workload} trace={trace}: {len(table)} metrics")


def check_corrupted_reference() -> None:
    """Drop one error from every CLF reference: the program is right, so
    the run must count the disagreement as failed operations."""
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    import run
    import workloads

    honest = workloads.REFERENCES["clf"]

    def corrupted(records):
        ref = honest(records)
        ref.errors = ref.errors[1:]
        return ref

    workloads.REFERENCES["clf"] = corrupted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "serve-mixed", "--seed", "7",
                             "--seconds", "2", "--trace", "0"])
    finally:
        workloads.REFERENCES["clf"] = honest
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] > 0, \
        result
    print(f"ok  corrupted reference: {result['failed']} of "
          f"{result['attempted']} operations failed")


def check_guard() -> None:
    from measure import Unresolved, region
    try:
        region(2e-6, "a 2 us count")
    except Unresolved:
        print("ok  a 2 us region is refused")
        return
    raise AssertionError("the timer-resolution guard let 2 us through")


def main() -> int:
    check_table()
    check_guard()
    from workloads import NAMES
    for workload in NAMES:
        for trace in (0, 1):
            check_run(workload, trace)
    check_corrupted_reference()
    return 0


if __name__ == "__main__":
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    sys.exit(main())
