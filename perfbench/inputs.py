"""Benchmark inputs: the generated NBA data and the seeded request lists.

The NBA CSV files are generated once per checkout by the program's own
synthetic generator (its fixed data seed, so every run sees the same
database) and cached under ``.bench_build/perfbench``.  Everything that
varies with ``--seed`` is drawn here with :class:`random.Random`.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"


def _atomic_build(target: Path, build) -> float:
    """Run ``build(tmp_dir)`` unless ``target`` exists; return seconds spent."""
    if target.exists():
        return 0.0
    started = time.perf_counter()
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.parent.mkdir(parents=True, exist_ok=True)
    build(tmp)
    os.replace(tmp, target)
    return time.perf_counter() - started


def nba_csv(scale: float) -> tuple[Path, float]:
    """The NBA CSV directory at ``scale`` (generated on first use) and
    the seconds this call spent generating it."""
    from repro.datasets import generate_nba
    from repro.db.csvio import save_database

    target = WORK / f"nba-csv-{scale}"
    spent = _atomic_build(
        target, lambda tmp: save_database(generate_nba(scale=scale), tmp)
    )
    return target, spent


def nba_colstore(scale: float) -> tuple[Path, float]:
    """A column store ingested from :func:`nba_csv` (built on first use)."""
    from repro.db.csvio import load_database

    csv_dir, spent = nba_csv(scale)
    target = WORK / f"nba-colstore-{scale}"
    spent += _atomic_build(
        target, lambda tmp: load_database(csv_dir).save(tmp)
    )
    return target, spent


# ---------------------------------------------------------------------------
# Serving stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamRequest:
    at: float  # scheduled send time, seconds from the stream's start
    query: str  # workload query name (Qnba1..5)
    t1: str
    t2: str
    repeat_of: int | None  # index of the earlier identical request


def serving_stream(
    seed: int,
    seasons: dict[str, list[str]],
    per_query: int,
    repeat_share: float,
    seconds: float,
) -> list[StreamRequest]:
    """A seeded open-loop stream over ``seconds``.

    Fresh requests: ``per_query`` distinct season-pair comparisons for
    each query.  They are the same in every stream, so a stream's work
    does not depend on the seed and its median latency is comparable
    across seeds; the seed draws their order, the repeats and the
    arrival times.  Repeats: a fixed share of the stream, each repeating
    a uniformly chosen earlier fresh request.  Arrival times are Poisson
    arrivals conditioned on the stream's length: sorted uniform points
    over the window, the last one at ``seconds``.
    """
    pairs_rng = random.Random(0)
    fresh: list[tuple[str, str, str]] = []
    for query in sorted(seasons):
        pairs = list(itertools.permutations(seasons[query], 2))
        fresh.extend(
            (query, a, b) for a, b in pairs_rng.sample(pairs, per_query)
        )
    rng = random.Random(seed)
    rng.shuffle(fresh)
    total = round(len(fresh) / (1.0 - repeat_share))
    order: list[tuple[str, str, str, int | None]] = [
        (*f, None) for f in fresh
    ]
    first_at: dict[tuple[str, str, str], int] = {}
    for _ in range(total - len(fresh)):
        # Insert after a random fresh request, pointing back at it.
        pos = rng.randrange(1, len(order) + 1)
        earlier = [i for i in range(pos) if order[i][3] is None]
        original = order[rng.choice(earlier)]
        order.insert(pos, (*original[:3], -1))
    gaps = [rng.expovariate(1.0) for _ in range(len(order))]
    span = sum(gaps)
    stream: list[StreamRequest] = []
    elapsed = 0.0
    for (query, a, b, marker), gap in zip(order, gaps):
        elapsed += gap
        key = (query, a, b)
        repeat_of = first_at.get(key) if marker is not None else None
        if marker is None:
            first_at[key] = len(stream)
        stream.append(
            StreamRequest(
                at=seconds * elapsed / span,
                query=query,
                t1=a,
                t2=b,
                repeat_of=repeat_of,
            )
        )
    return stream
