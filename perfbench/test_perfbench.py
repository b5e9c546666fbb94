"""Self-tests of the benchmark at tiny size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pyarrow as pa
import pyarrow.dataset as pds
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import check, inputs  # noqa: E402
from perfbench.workloads import forced_gates  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


BENCHMARKED = [w["name"] for w in _spec()["workloads"]]


def _left_of(sid: int, marker: bytes) -> list[str]:
    """Processes (zombies too) in session ``sid`` or whose environment
    holds ``marker``."""
    left = []
    for d in os.listdir("/proc"):
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                stat = f.read()
            with open(f"/proc/{d}/environ", "rb") as f:
                env = f.read().split(b"\0")
        except (OSError, ValueError):
            continue
        if int(stat[stat.rindex(b")") + 2:].split()[3]) == sid or marker in env:
            left.append(stat.decode(errors="replace")[:80])
    return left


def _run(workload: str, trace: int, cwd: str = ROOT):
    """One tiny run, in a session of its own; every process it started has
    ended when it returns."""
    token = f"{os.getpid()}-{workload}-{trace}"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PERFBENCH_SELFTEST"] = token
    # output goes to files, not pipes: reading a pipe to its end would
    # wait for every process that holds it
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
             "--size", "tiny"],
            cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        proc.wait(timeout=300)
        assert _left_of(proc.pid, f"PERFBENCH_SELFTEST={token}".encode()) == []
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(proc.args, proc.returncode,
                                           out.read(), err.read())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", BENCHMARKED)
def test_every_metric_printed_with_its_unit(workload, trace):
    spec = _spec()
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_one_character_mutation_fails_the_check(tmp_path):
    corpus = str(tmp_path / "corpus")
    inputs.make_corpora([(corpus, {"n_docs": 12, "seed": 3})], 1)
    oracle = pds.dataset(f"{corpus}/oracle_docs").to_table()
    got = oracle.append_column("n_errors", pa.array([0] * oracle.num_rows, pa.int32()))
    assert check.compare_docs(got, oracle) == []

    rows = got.to_pylist()
    doc = next(r for r in rows if any(s["text"] for s in r["spans"]))
    span = next(s for s in doc["spans"] if s["text"])
    span["text"] = ("X" if span["text"][0] != "X" else "Y") + span["text"][1:]
    bad = check.compare_docs(pa.Table.from_pylist(rows, schema=got.schema), oracle)
    assert len(bad) == 1 and bad[0].startswith(doc["doc_id"])


def test_gates_restored_after_forced_queries():
    import bench

    shipped = {(m.__name__, n): getattr(m, n)
               for m, n, _ in bench._force_distributed_gates()}
    bench._restore_gates([(sys.modules[m], n, v) for (m, n), v in shipped.items()])

    def current():
        return {(m, n): getattr(sys.modules[m], n) for m, n in shipped}

    with forced_gates():
        assert all(v == 0 for v in current().values())
    assert current() == shipped
    with pytest.raises(RuntimeError):
        with forced_gates():
            raise RuntimeError("a query failed mid-pass")
    assert current() == shipped


def test_gates_restored_after_a_queries_forced_job(tmp_path, monkeypatch):
    import bench
    import ray

    from perfbench.run import _sessions, remove_new_sessions, start_ray
    from perfbench.trace import Tracer
    from perfbench.workloads import QueryWorkload

    shipped = [(m, n, getattr(m, n)) for m, n, _ in bench._force_distributed_gates()]
    bench._restore_gates(shipped)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    sessions = _sessions()
    wl = QueryWorkload("tiny", str(tmp_path), 5, 2)
    wl.prepare(1)
    def broken(sf_dir):
        raise ValueError("a query that raises mid-pass")

    wl.fns["q3_top_orders"] = broken
    start_ray(2, os.path.join(str(tmp_path), "ray"))
    try:
        job = wl.run_job(wl.next_input(), Tracer(False))
    finally:
        ray.shutdown()
        remove_new_sessions(sessions)
    assert [f.split(":")[0] for f in job.failures] == ["q3_top_orders"]
    assert all(getattr(m, n) == v for m, n, v in shipped)


@pytest.mark.xfail(strict=True, reason=(
    "the engine rounds exact binary ties half to even, the DuckDB oracle "
    "half away from zero"))
def test_engine_rounding_matches_duckdb_on_ties():
    """``ROUND(x, 2)`` on an exact binary tie: the relational queries round
    their sums with ``_round_cols`` and are checked against DuckDB's
    ``round``.  The committed tables hold no group sum that lands on such
    a tie, so the benchmark never meets it; this records the difference
    until the engine rounds like the oracle (then the marker must go)."""
    import duckdb
    import pandas as pd

    from pdf_parse_new_ray.functions.relational import _round_cols

    ties = [0.125, 2.375, 1024.625]
    got = _round_cols(pd.DataFrame({"revenue": ties}), {"revenue": 2})
    want = [duckdb.sql(f"SELECT round({x}::DOUBLE, 2)").fetchone()[0] for x in ties]
    assert got["revenue"].tolist() == want


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("extract_hash_skew", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
