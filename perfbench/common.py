"""Pieces shared by the workloads: results, process figures, per-layer
metrics and the name bindings a traced run wraps."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field

# Per-layer metrics (``--trace 1``), in the order BENCHMARK.json lists
# them.  A layer that is not on a workload's traced path reads 0 there:
# the serving layer on ``cold``, and on ``serve`` every layer that runs
# inside the worker process (mining is traced on ``cold``).
PER_LAYER: dict[str, str] = {
    "db.ingest_ms": "ms",
    "db.save_ms": "ms",
    "db.open_ms": "ms",
    "db.provenance_ms": "ms",
    "db.join_ms": "ms",
    "db.join_calls": "count",
    "jg.enum_ms": "ms",
    "jg.graphs_mined": "count",
    "engine.materialize_ms": "ms",
    "engine.steps_computed": "count",
    "engine.steps_reused": "count",
    "engine.trie_peak_bytes": "bytes",
    "fs.ms": "ms",
    "fs.varclus_ms": "ms",
    "fs.forest_ms": "ms",
    "fs.nodes_grown": "count",
    "lca.ms": "ms",
    "lca.pairs_examined": "count",
    "lca.patterns_built": "count",
    "score.ms": "ms",
    "refine.ms": "ms",
    "kernel.mask_hit_ratio": "ratio",
    "diversity.ms": "ms",
    "diversity.calls": "count",
    "diversity.candidates": "count",
    "mine.self_ms": "ms",
    "api.assemble_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.reply_ms": "ms",
    "serve.batch_size": "count",
    "serve.executed": "count",
    "serve.coalesced": "count",
    "serve.cache_hits": "count",
    "serve.generator_lag_ms": "ms",
    "serve.shm_export_ms": "ms",
    "serve.pool_start_ms": "ms",
    "untraced_ms": "ms",
}


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def since_process_start() -> float:
    """Seconds since this process was started by the kernel."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22: starttime, after boot
    boot_now = time.clock_gettime(time.CLOCK_BOOTTIME)
    return boot_now - start_ticks / os.sysconf("SC_CLK_TCK")


def executor_aggregates(db, sql: str) -> dict[str, float]:
    """Season → aggregate value, as the program's executor computes it."""
    result = db.sql(sql)
    value = next(c for c in result.column_names if c != "season_name")
    return dict(zip(result.column("season_name"), result.column(value)))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest waited-for
    child when ``children``), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def install_wrappers(recorder) -> None:
    """Wrap the name bindings the pipeline calls, one span per layer call."""
    from repro.api import session as api_session
    from repro.core import attribute_filter, mining
    from repro.core.quality import QualityEvaluator
    from repro.core.refinement import RefinementGenerator
    from repro import datasets
    from repro.db import csvio
    from repro.db.database import Database
    from repro.db.join_strategy import HashJoinStrategy, SortedWindowStrategy
    from repro.db.provenance import ProvenanceTable
    from repro.engine.engine import MaterializationEngine
    from repro.ml.hist_forest import HistRandomForestClassifier
    from repro.serving import frontend, pool

    def candidates(items, *_args, **_kwargs):
        recorder.count("diversity.candidates", len(items))

    w = recorder.wrap
    w(csvio, "load_database", "db.ingest")
    w(Database, "save", "db.save")
    w(Database, "open", "db.open")
    w(ProvenanceTable, "compute", "db.provenance")
    w(SortedWindowStrategy, "join_frame", "db.join")
    w(HashJoinStrategy, "join_frame", "db.join")
    w(api_session, "enumerate_join_graphs", "jg.enum", iterate=True)
    w(MaterializationEngine, "materialize_iter", "engine.materialize",
      iterate=True)
    w(mining, "filter_attributes", "fs")
    w(attribute_filter, "cluster_attributes", "fs.varclus")
    w(HistRandomForestClassifier, "fit", "fs.forest")
    w(mining, "lca_candidates_codes", "lca")
    w(mining, "lca_candidates", "lca")
    w(QualityEvaluator, "__init__", "score")
    w(QualityEvaluator, "coverage_counts", "score")
    w(api_session, "_exact_stats", "score")
    w(RefinementGenerator, "refinements", "refine")
    w(mining, "select_diverse_top_k", "diversity", on_call=candidates)
    w(api_session, "select_diverse_top_k", "diversity", on_call=candidates)
    w(api_session, "mine_apt", "mine")
    w(api_session.CajadeSession, "__init__", "api.session")
    w(datasets, "nba_schema_graph", "api.session")
    w(api_session.CajadeSession, "_execute", "api.explain")
    w(frontend, "canonical_payload", "api.serialize")
    w(pool, "export_database", "serve.shm_export")
    w(pool.ProcessPoolBackend, "start", "serve.pool_start")


def layer_metrics(recorder, responses, op_walls_ns) -> dict[str, float]:
    """Per-layer figures of a traced run from its spans and the
    program's own counters on each response."""
    from repro.core import timing

    def counter(name):
        return sum(r.timer.counter(name) for r in responses)

    hits = counter(timing.KERNEL_MASK_HITS)
    probes = hits + counter(timing.KERNEL_MASK_MISSES)
    ms = recorder.self_ms
    peaks = [
        r.session_engine.cache.peak_bytes
        for r in responses
        if r.session_engine is not None and r.session_engine.cache is not None
    ]
    return {
        "db.ingest_ms": ms("db.ingest"),
        "db.save_ms": ms("db.save"),
        "db.open_ms": ms("db.open"),
        "db.provenance_ms": ms("db.provenance"),
        "db.join_ms": ms("db.join"),
        "db.join_calls": recorder.calls.get("db.join", 0),
        "jg.enum_ms": ms("jg.enum"),
        "jg.graphs_mined": sum(r.join_graphs_mined for r in responses),
        "engine.materialize_ms": ms("engine.materialize"),
        "engine.steps_computed": sum(r.engine.steps_computed for r in responses),
        "engine.steps_reused": sum(r.engine.steps_reused for r in responses),
        "engine.trie_peak_bytes": max(peaks, default=0),
        "fs.ms": ms("fs"),
        "fs.varclus_ms": ms("fs.varclus"),
        "fs.forest_ms": ms("fs.forest"),
        "fs.nodes_grown": counter(timing.HIST_NODES_GROWN),
        "lca.ms": ms("lca"),
        "lca.pairs_examined": counter(timing.LCA_PAIRS_EXAMINED),
        "lca.patterns_built": counter(timing.LCA_PATTERNS_BUILT),
        "score.ms": ms("score"),
        "refine.ms": ms("refine"),
        "kernel.mask_hit_ratio": hits / probes if probes else 0.0,
        "diversity.ms": ms("diversity"),
        "diversity.calls": recorder.calls.get("diversity", 0),
        "diversity.candidates": recorder.counts.get("diversity.candidates", 0),
        "mine.self_ms": ms("mine"),
        "api.assemble_ms": ms("api.session", "api.explain", "api.serialize"),
        "untraced_ms": recorder.untraced_ms(op_walls_ns),
    }
