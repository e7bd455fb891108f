"""The benchmark's own tests: statistics, schedules, the SQLite checker,
and a tiny-size smoke run of every workload.

    PYTHONPATH=src python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import stats
import workloads
from repro.sqlkit.parser import parse_sql
from sqlcheck import SqliteChecker, rows_match

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


# -- percentile rule ---------------------------------------------------


def test_median_alone_below_forty_samples():
    assert set(stats.latency_summary([float(i) for i in range(39)])) == {"p50"}


def test_p90_needs_ten_samples_beyond_it():
    assert "p90" not in stats.latency_summary([float(i) for i in range(99)])
    summary = stats.latency_summary([float(i) for i in range(100)])
    assert summary["p50"] == pytest.approx(49.5)
    assert summary["p90"] == pytest.approx(89.1)
    assert sum(1 for i in range(100) if i > summary["p90"]) == 10


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([10.0] * 5) == 0.0
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- schedules ---------------------------------------------------------


def test_schedules_repeat_for_a_seed():
    assert stats.poisson_arrivals(120, 10.0, 7) == stats.poisson_arrivals(
        120, 10.0, 7
    )
    ranking = list(range(150))
    assert stats.zipf_draws(ranking, 300, 1.1, 7) == stats.zipf_draws(
        ranking, 300, 1.1, 7
    )
    assert stats.poisson_arrivals(120, 10.0, 7) != stats.poisson_arrivals(
        120, 10.0, 8
    )
    assert stats.zipf_draws(ranking, 300, 1.1, 7) != stats.zipf_draws(
        ranking, 300, 1.1, 8
    )


def test_arrivals_fill_the_window_in_order():
    offsets = stats.poisson_arrivals(120, 10.0, 3)
    assert len(offsets) == 120
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] < 10.0


def test_zipf_draws_are_skewed():
    draws = stats.zipf_draws(list(range(150)), 300, 1.1, 7)
    counts = [draws.count(index) for index in range(150)]
    assert len(set(draws)) < 150 and counts[0] > 300 / 150 * 10
    assert counts[0] > counts[10] > counts[100]


# -- SQLite checker ----------------------------------------------------


def test_rows_match_order_and_bag_semantics():
    assert rows_match([(1,), (2,)], [(2,), (1,)], ordered=False)
    assert not rows_match([(1,), (2,)], [(2,), (1,)], ordered=True)
    assert not rows_match([(1,), (1,), (2,)], [(1,), (2,), (2,)], ordered=False)
    assert rows_match([("Ann", 2.0)], [("ann", 2)], ordered=True)
    assert rows_match([(1.5,)], [(1.5000001,)], ordered=True)  # six places
    assert not rows_match([(1.5,)], [(1.50001,)], ordered=True)


def test_checker_on_hand_built_rows(world_db):
    checker = SqliteChecker()
    try:
        def match(predicted, gold):
            return checker.execution_match(
                predicted, parse_sql(gold), gold, world_db
            )

        by_pop = "SELECT name FROM country ORDER BY population DESC"
        by_pop_asc = "SELECT name FROM country ORDER BY population ASC"
        plain = "SELECT name FROM country"
        assert match(by_pop, by_pop)
        assert not match(by_pop_asc, by_pop)  # gold orders: order counts
        assert match(by_pop_asc, plain)  # gold unordered: a bag
        assert not match("SELECT continent FROM country", plain)
        assert not match("SELECT nope FROM country", plain)  # SQLite error
    finally:
        checker.close()


@pytest.fixture
def world_db():
    from repro.schema.database import Database
    from repro.schema.schema import NUMBER, Column, Schema, Table

    schema = Schema(
        db_id="world",
        tables=(
            Table(
                "country",
                (Column("name"), Column("continent"),
                 Column("population", NUMBER)),
            ),
        ),
    )
    db = Database(schema)
    db.insert_many("country", [
        {"name": "Aruba", "continent": "America", "population": 103},
        {"name": "Chad", "continent": "Africa", "population": 17},
        {"name": "Fiji", "continent": "Oceania", "population": 90},
    ])
    return db


# -- metric catalogue --------------------------------------------------


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(
        workloads.END_TO_END
    )


# -- smoke runs --------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    """A corpus and training small enough for a test."""
    monkeypatch.setattr(workloads, "TRAIN_PER_DOMAIN", 4)
    monkeypatch.setattr(workloads, "DEV_PER_DOMAIN", 1)
    monkeypatch.setattr(workloads, "RANKER_TRAIN_QUESTIONS", 10)
    monkeypatch.setattr(workloads, "CLASSIFIER_EPOCHS", 3)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(tiny, tmp_path, workload):
    result = workloads.run_untraced(workload, 5, 3.0, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    # A short run may give too few samples for p90; the rest is there.
    expected = set(workloads.END_TO_END) - {"latency_p90_ms"}
    assert expected <= set(result["metrics"]) <= set(workloads.END_TO_END)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(tiny, tmp_path, workload):
    result = workloads.run_traced(workload, 5, 3.0, tmp_path)
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    metrics = result["metrics"]
    assert workloads.attribution_problems(workload, metrics) == []
    if workload != "serve_skewed":
        assert metrics["trace.self_ms_per_q"] == pytest.approx(
            metrics["trace.latency_ms_per_q"], rel=0.01
        )
    assert metrics["generate.ms_per_q"] > 0


def test_short_run_still_prints_the_counts(tiny, capsys):
    # Three seconds of serving give too few samples for p90: the command
    # says so in its exit code, and still prints every metric and the
    # counts.
    code = run.main(
        ["--workload", "serve_skewed", "--seed", "5", "--seconds", "3"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 3
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(workloads.END_TO_END)
    assert result["metrics"]["latency_p90_ms"] == {"value": None, "unit": "ms"}
    assert result["metrics"]["latency_p50_ms"]["value"] > 0


def test_attribution_check_catches_an_unwrapped_layer():
    metrics = {
        "trace.latency_ms_per_q": 30.0,
        "trace.self_ms_per_q": 30.0,
        "trace.unattributed_pct": 40.0,
    }
    assert workloads.attribution_problems("offline_llm", metrics)
    metrics["trace.unattributed_pct"] = 0.5
    assert workloads.attribution_problems("offline_llm", metrics) == []
    metrics["trace.self_ms_per_q"] = 25.0  # a span outside the requests
    assert workloads.attribution_problems("offline_llm", metrics)
    assert workloads.attribution_problems("serve_skewed", metrics) == []
