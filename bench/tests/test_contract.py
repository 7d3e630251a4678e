"""The benchmark's metric names, workloads and inputs agree with BENCHMARK.json."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_query_pairs_depend_only_on_seed():
    first = run.query_pairs(7)
    assert first == run.query_pairs(7)
    assert first != run.query_pairs(8)
    lengths = [run.chain_length(p, q, 10**4) for p, q in first]
    body = first[: run.BODY_PAIRS]
    assert all(10**3 <= p <= 10**4 for p, _ in body)
    assert max(lengths[: run.BODY_PAIRS]) <= run.BODY_K_MAX
    assert max(lengths) > run.LONG_CHAIN_BANDS[-1][0]
    assert sum(1 for p, _ in first if p <= 200) >= run.SMALL_PAIRS
