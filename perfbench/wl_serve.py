"""``serve``: a seeded open-loop stream into ``ExplanationService``.

Set-up opens the NBA scale-0.1 column store, exports it to shared
memory and starts a ``ProcessPoolBackend`` with one worker shard (so
the front-end and the worker fit two cores), until the worker is ready.
The timed phase sends a seeded stream of Qnba1-5 season-pair questions
(λ#edges 1) at a fixed offered rate from this process into
``ExplanationService.submit()``, without waiting for replies.  Each
request is timed from its scheduled send time.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time

import inputs
import reference
from common import RunResult, executor_aggregates, peak_rss_mb, since_process_start

SCALE = 0.1
EDGES = 1
RATE = 1.0  # offered requests per second
REPEAT_SHARE = 0.25  # share of the stream repeating an earlier request
QUERIES = ("Qnba1", "Qnba2", "Qnba3", "Qnba4", "Qnba5")


def run(seed: int, seconds: float, recorder) -> RunResult:
    from repro.api import CajadeSession, ExplanationRequest
    from repro.core.config import CajadeConfig
    from repro.core.question import ComparisonQuestion
    from repro.datasets import nba_queries, nba_schema_graph
    from repro.db.database import Database
    from repro.serving import frontend
    from repro.serving.pool import ProcessPoolBackend

    store, built = inputs.nba_colstore(SCALE)
    csv_dir, _ = inputs.nba_csv(SCALE)

    # Inputs first, so that nothing can fail between starting the worker
    # and the timed phase (whose end stops it); their time is not set-up.
    prepared = time.perf_counter()
    ref = reference.ReferenceDB(csv_dir)
    seasons = {q: sorted(ref.group_summary(q)) for q in QUERIES}
    per_query = max(1, round(RATE * seconds * (1 - REPEAT_SHARE) / len(QUERIES)))
    stream = inputs.serving_stream(seed, seasons, per_query, REPEAT_SHARE, seconds)
    sql = {q.name: q.sql for q in nba_queries() if q.name in QUERIES}
    requests = [
        ExplanationRequest(
            sql[r.query],
            ComparisonQuestion({"season_name": r.t1}, {"season_name": r.t2}),
        )
        for r in stream
    ]
    prepared = time.perf_counter() - prepared

    config = CajadeConfig(max_join_edges=EDGES, workers=1)
    db = Database.open(store)
    backend = ProcessPoolBackend(db, nba_schema_graph(db), config, num_shards=1)
    batches: list[tuple[int, int, list[int]]] = []
    if recorder is not None:
        execute = backend.execute

        def traced_execute(shard, work):
            frame = recorder.begin("serve.execute")
            try:
                return execute(shard, work)
            finally:
                start, end = recorder.end(frame)
                batches.append((start, end, [id(r) for r, _ in work]))

        backend.execute = traced_execute
    service = frontend.ExplanationService(backend)
    try:
        service.start()
    except BaseException:
        backend.stop()
        raise
    setup_s = since_process_start() - built - prepared

    outcomes: list[dict] = [{} for _ in stream]

    async def one(i: int, t0: int) -> None:
        delay = t0 / 1e9 + stream[i].at - time.perf_counter_ns() / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        out = outcomes[i]
        out["sent"] = time.perf_counter_ns()
        try:
            response = await service.submit(requests[i])
            out["payload"] = response.payload
            out["source"] = response.source
        except Exception as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["done"] = time.perf_counter_ns()

    async def main() -> int:
        t0 = time.perf_counter_ns()
        try:
            await asyncio.gather(*(one(i, t0) for i in range(len(stream))))
        finally:
            await service.close()
        return t0

    t0 = asyncio.run(main())
    if recorder is not None:
        recorder.unwrap_all()
    end = max(o["done"] for o in outcomes)
    latencies = [
        (o["done"] - t0) / 1e6 - r.at * 1e3 for o, r in zip(outcomes, stream)
    ]

    direct = CajadeSession(db, nba_schema_graph(db), config)
    failed, tie_order = check(
        stream, outcomes, ref, db, sql, seed,
        lambda i: frontend.canonical_payload(direct.explain(requests[i])),
    )
    result = RunResult(attempted=len(stream), failed=len(failed))
    result.errors = [f"request {i}: {msg}" for i, msg in sorted(failed.items())]
    result.notes = [
        f"request {i}: {reference.TIE_ORDER} than in an in-process session"
        for i in tie_order
    ]
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "total_s": ((end - t0) / 1e9, "s"),
        "p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb(children=True), "MB"),
    }
    if recorder is not None:
        result.layers = serve_layers(recorder, stream, requests, outcomes,
                                     batches, t0)
    return result


def serve_layers(recorder, stream, requests, outcomes, batches, t0):
    """Per-layer figures of the serving path, seen from the front-end."""
    batch_of: dict[int, tuple[int, int]] = {}
    for start, end, ids in batches:
        for rid in ids:
            batch_of[rid] = (start, end)
    waits, executes, replies, walls = [], [], [], {}
    for i, (req, out) in enumerate(zip(requests, outcomes)):
        scheduled = t0 + int(stream[i].at * 1e9)
        walls[i] = out["done"] - scheduled
        recorder.record("serve.request", out["sent"], out["done"], op=i,
                        covers_op=True)
        if out.get("source") == "executed" and id(req) in batch_of:
            start, end = batch_of[id(req)]
            waits.append((start - out["sent"]) / 1e6)
            executes.append((end - start) / 1e6)
            replies.append((out["done"] - end) / 1e6)
    sources = [o.get("source") for o in outcomes]
    lags = [
        (o["sent"] - t0) / 1e6 - r.at * 1e3 for o, r in zip(outcomes, stream)
    ]
    return {
        "serve.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "serve.execute_ms": statistics.median(executes) if executes else 0.0,
        "serve.reply_ms": statistics.median(replies) if replies else 0.0,
        "serve.batch_size": (
            statistics.mean(len(ids) for _, _, ids in batches) if batches else 0.0
        ),
        "serve.executed": sources.count("executed"),
        "serve.coalesced": sources.count("coalesced"),
        "serve.cache_hits": sources.count("cache"),
        "serve.generator_lag_ms": max(lags),
        "serve.shm_export_ms": recorder.self_ms("serve.shm_export"),
        "serve.pool_start_ms": recorder.self_ms("serve.pool_start"),
        "db.open_ms": recorder.self_ms("db.open"),
        "untraced_ms": recorder.untraced_ms(walls),
    }


def check(stream, outcomes, ref, db, sql, seed, answer_directly):
    """Checks (a), (c) and (d).  Returns ``(failed, tie_order)``: request
    index → why it failed, and the requests whose payload differed from
    the in-process one only in the order of equal-F explanations.

    ``answer_directly(i)`` is the canonical payload a direct in-process
    session gives for request ``i``.
    """
    failed: dict[int, str] = {}
    executed = {name: executor_aggregates(db, sql[name]) for name in QUERIES}
    for i, (r, out) in enumerate(zip(stream, outcomes)):
        if "error" in out:
            failed[i] = out["error"]
            continue
        payload = json.loads(out["payload"])
        errors = reference.property_errors(payload)
        errors += reference.count_errors(
            ref.group_summary(r.query), executed[r.query], payload, r.t1, r.t2
        )
        if r.repeat_of is not None and (
            outcomes[r.repeat_of].get("payload") != out["payload"]
        ):
            errors.append(f"repeat differs from request {r.repeat_of}")
        if errors:
            failed[i] = "; ".join(errors)

    # (d): one seeded fresh request per query against a direct session.
    rng = random.Random(seed)
    tie_order: list[int] = []
    for name in QUERIES:
        fresh = [i for i, r in enumerate(stream)
                 if r.query == name and r.repeat_of is None and i not in failed]
        if not fresh:
            continue
        i = rng.choice(fresh)
        verdict = reference.payload_difference(
            outcomes[i]["payload"], answer_directly(i)
        )
        if verdict == reference.TIE_ORDER:
            tie_order.append(i)
        elif verdict is not None:
            failed[i] = verdict
    return failed, tie_order
