"""``cold``: the six NBA paper questions, each on a freshly opened store.

Set-up ingests the NBA scale-1.0 CSV files into a column store
(``load_database`` + ``Database.save``).  The timed phase asks Qnba1-5
and UQ1 (``Q1prime``) in a seeded order; each question opens the store
anew and asks in a fresh ``CajadeSession`` with λ#edges 2 and one
worker, so every layer is paid on every question.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time

import inputs
import reference
from common import (
    RunResult,
    executor_aggregates,
    layer_metrics,
    peak_rss_mb,
    since_process_start,
)

SCALE = 1.0
EDGES = 2


def run(seed: int, seconds: float, recorder) -> RunResult:
    from repro.api import CajadeSession, ExplanationRequest
    from repro.core.config import CajadeConfig
    from repro.datasets import nba_queries, nba_schema_graph, user_study_query
    from repro.db import csvio
    from repro.db.database import Database
    from repro.serving.frontend import canonical_payload

    csv_dir, generated = inputs.nba_csv(SCALE)
    store = inputs.WORK / f"cold-store-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    try:
        db = csvio.load_database(csv_dir)
        db.save(store)
        del db
        setup_s = since_process_start() - generated

        questions = nba_queries() + [user_study_query()]
        random.Random(seed).shuffle(questions)
        config = CajadeConfig(max_join_edges=EDGES, workers=1)
        answers = []
        walls: dict[str, int] = {}
        started = time.perf_counter_ns()
        for q in questions:
            if recorder is not None:
                recorder.op = q.name
            t0 = time.perf_counter_ns()
            db = Database.open(store)
            session = CajadeSession(db, nba_schema_graph(db), config)
            response = session.explain(ExplanationRequest(q.sql, q.question))
            payload = canonical_payload(response)
            walls[q.name] = time.perf_counter_ns() - t0
            answers.append((q, response, payload))
        total_ns = time.perf_counter_ns() - started
        if recorder is not None:
            recorder.op = None
            recorder.unwrap_all()

        failed_ops = check(answers, csv_dir, Database.open(store))
    finally:
        shutil.rmtree(store, ignore_errors=True)

    result = RunResult(attempted=len(questions), failed=len(failed_ops))
    result.errors = [f"{name}: {msg}" for name, msg in failed_ops]
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "total_s": (total_ns / 1e9, "s"),
        "p50_ms": (statistics.median(walls.values()) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if recorder is not None:
        result.layers = layer_metrics(recorder, [a[1] for a in answers], walls)
    return result


def check(answers, csv_dir, db) -> list[tuple[str, str]]:
    """Checks (a), (b) and (c) on every question; one entry per failed
    question."""
    ref = reference.ReferenceDB(csv_dir)
    failures: list[tuple[str, str]] = []
    for q, response, payload_text in answers:
        payload = json.loads(payload_text)
        t1 = q.question.primary["season_name"]
        t2 = q.question.secondary["season_name"]
        try:
            errors = reference.count_errors(
                ref.group_summary(q.name), executor_aggregates(db, q.sql),
                payload, t1, t2,
            )
            errors += reference.property_errors(payload)
            if not errors:
                errors += check_top(ref, q.name, t1, t2, response, payload)
        except Exception as exc:  # a check that cannot run fails its question
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            failures.append((q.name, "; ".join(errors)))
    return failures


def check_top(ref, name, t1, t2, response, payload) -> list[str]:
    """(b): c1, c2 and F of the top explanation by Definition 7."""
    top = payload["explanations"][0]
    c1, a1, c2, a2 = ref.coverage(
        name, t1, t2, response.explanations[0].join_graph, top["pattern"]
    )
    s = top["support"]
    errors = []
    if (c1, c2) != (s["covered1"], s["covered2"]):
        errors.append(
            f"top covers {(s['covered1'], s['covered2'])}, "
            f"reference join gives {(c1, c2)}"
        )
    f = (
        reference.f_score(c1, c2, a1)
        if top["primary"] == 1
        else reference.f_score(c2, c1, a2)
    )
    if not reference.close(f, top["f_score"]):
        errors.append(f"top F={top['f_score']} != reference {f}")
    return errors
