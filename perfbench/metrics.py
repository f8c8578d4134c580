"""The metric table: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names and units; ``selftest.py`` checks
that the two agree.
"""

#: name -> (unit, better).  Printed by every untraced run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "parse_mb_s.interp": ("MB/s", "higher"),
    "parse_mb_s.gen": ("MB/s", "higher"),
    "select_mb_s.interp": ("MB/s", "higher"),
    "select_mb_s.gen": ("MB/s", "higher"),
    "accum_mb_s.interp": ("MB/s", "higher"),
    "accum_mb_s.gen": ("MB/s", "higher"),
    "count_mb_s": ("MB/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

#: Layers the traced run attributes self time to, in pipeline order.
LAYERS = (
    "repro.dsl", "repro.plan", "repro.core.binding", "repro.codegen",
    "repro.core.io", "repro.core.types", "repro.core.masks",
    "repro.core.basetypes", "repro.batch", "repro.tools.accum",
    "repro.tools.fmt", "repro.observe", "repro.serve", "bench",
)

#: name -> (unit, better).  Printed by every traced run.
PER_LAYER = {
    "dsl.parse_ms": ("ms", "lower"),
    "dsl.typecheck_ms": ("ms", "lower"),
    "plan.analyze_ms": ("ms", "lower"),
    "plan.fast_types": ("count", "higher"),
    "bind.ms": ("ms", "lower"),
    "codegen.compile_ms": ("ms", "lower"),
    "codegen.source_kb": ("KiB", "lower"),
    "io.frame_mb_s": ("MB/s", "higher"),
    "parse.clean_us_rec": ("us", "lower"),
    "parse.dirty_us_rec": ("us", "lower"),
    "parse.miss_cost": ("ratio", "lower"),
    "parse.error_records": ("count", "higher"),
    "date.us": ("us", "lower"),
    "checks.share": ("ratio", "lower"),
    "accum.add_us_rec": ("us", "lower"),
    "accum.report_ms": ("ms", "lower"),
    "fmt.us_rec": ("us", "lower"),
    "batch.mb_s": ("MB/s", "higher"),
    "batch.count_mb_s": ("MB/s", "higher"),
    "batch.fallback_ratio": ("ratio", "lower"),
    # The service's latency at the base rate and the top rung of the rate
    # ladder.  Not end-to-end metrics: on the 2-CPU machine this was tuned
    # on, ten seeds spread them by up to 0.32 (p50), 1.3 (p99) and 0.22
    # (max rps) of their medians, past any allowed bound.
    "serve.p50_ms": ("ms", "lower"),
    "serve.p99_ms": ("ms", "lower"),
    "serve.max_rps": ("1/s", "higher"),
    "serve.overhead_ms.records": ("ms", "lower"),
    "serve.overhead_ms.accum": ("ms", "lower"),
    "serve.overhead_ms.count": ("ms", "lower"),
    "serve.cache_compiles": ("count", "lower"),
    "serve.backlog": ("count", "lower"),
    "serve.gen_late_ms": ("ms", "lower"),
    "serve.rss_mb": ("MB", "lower"),
    "observe.overhead_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    **{f"self_ms.{layer}": ("ms", "lower") for layer in LAYERS},
}
