"""Self-tests of the end-to-end benchmark: ``PYTHONPATH=src pytest benchmarks/e2e``.

The workloads run at the ``tiny`` scale, so the whole file takes well
under a minute; the oracle tests feed deliberately corrupted answers
through the same checks the benchmark applies.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import compare
import oracles
import run
import serve
import workloads

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def _run(tmp_path: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", "1",
         "--workdir", str(tmp_path / "work"), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_every_workload_emits_every_metric(tmp_path):
    start = time.perf_counter()
    proc = _run(tmp_path, "--trace", "1", "--json", str(tmp_path / "runs.json"))
    assert time.perf_counter() - start < 60
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    (record,) = json.loads((tmp_path / "runs.json").read_text())["runs"]
    assert set(record["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for name, result in record["workloads"].items():
        assert list(result["end_to_end"]) == E2E, name
        assert list(result["per_layer"]) == PER_LAYER, name
        assert all(v > 0 for v in result["end_to_end"].values()), name
    assert record["host"]["sgemm_flops"] > 0


def test_single_workload_last_line_has_end_to_end_metrics(tmp_path):
    proc = _run(tmp_path, "--workload", "ld-prune", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == E2E
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["unit"] == units[k] for k, v in last["metrics"].items())


def test_same_seed_same_inputs(tmp_path):
    specs = [
        workloads.prepare("ld-prune", 7, "tiny", tmp_path / name) for name in ("a", "b")
    ]
    assert specs[0]["expect"] == specs[1]["expect"]
    other = workloads.prepare("ld-prune", 8, "tiny", tmp_path / "c")
    assert other["expect"] != specs[0]["expect"]


def test_batch_check_rejects_one_changed_count(tmp_path):
    spec = workloads.prepare("ld-gram", 0, "tiny", tmp_path)
    assert run._batch_failures(spec, [dict(spec["expect"])]) == 0
    cohort = np.load(tmp_path / "cohort.npz")
    bits = np.unpackbits(cohort["matrix"], axis=1)[:, : int(cohort["n_sites"])]
    counts = oracles.ld_counts(bits.T)
    counts[3, 5] += 1
    corrupted = dict(spec["expect"], counts=oracles.digest(counts))
    assert run._batch_failures(spec, [corrupted]) == 1


def _honest_load(spec: dict, searches: int = 12) -> dict:
    """Replies a correct server would give, with no appends."""
    pool = np.load(spec["inputs"]["pool"])
    database = np.load(spec["expect"]["database"])
    initial, k = database.shape[0], spec["inputs"]["k"]
    distances = oracles.hamming(pool[:searches], database)
    return {
        "searches": [
            (q, initial, initial, 0.001,
             {"ok": True, "matches": [[list(m) for m in oracles.top_k(distances[q], initial, k)]]})
            for q in range(searches)
        ],
        "appends": [],
        "errors": [],
        "rows_per_append": spec["params"]["append_rows"],
        "initial": initial,
    }


def test_serve_check_rejects_flipped_distance_and_wrong_row(tmp_path):
    spec = workloads.prepare("identity-serve", 0, "tiny", tmp_path)
    load = _honest_load(spec)
    assert serve.check(spec, load) == 0

    flipped = _honest_load(spec)
    flipped["searches"][0][4]["matches"][0][0][0] += 1
    assert serve.check(spec, flipped) == 1

    wrong_row = _honest_load(spec)
    wrong_row["searches"][1][4]["matches"][0][-1][1] = load["initial"] + 1
    assert serve.check(spec, wrong_row) == 1


def test_prefix_oracle_accepts_any_prefix_in_the_window():
    distances = np.array([5, 3, 9, 1, 1, 0])
    assert oracles.top_k(distances, 4, 2) == [(1, 3), (3, 1)]
    seen_two_appends = [[0, 5], [1, 3]]
    assert oracles.search_matches_some_prefix(distances, seen_two_appends, 2, 6, 2, 2)
    assert not oracles.search_matches_some_prefix(distances, seen_two_appends, 2, 4, 2, 2)


def test_prune_oracle_matches_a_dense_r2_scan():
    rng = np.random.default_rng(1)
    sites = (rng.random((60, 40)) < 0.3).astype(np.uint8)
    sites[10] = sites[9]  # a perfect-LD pair: site 10 must go
    kept = oracles.ld_prune_kept(sites, window=5, r2=0.5)
    assert 9 in kept and 10 not in kept
    x = sites.astype(float)
    r2 = np.nan_to_num(np.corrcoef(x) ** 2)
    for g in range(len(sites)):
        prior = [j for j in kept if g - 5 < j < g]
        assert (g in kept) == all(r2[j, g] <= 0.5 for j in prior)


def test_compare_flags_only_real_changes():
    def runs(scale: float) -> list[dict]:
        return [
            {"workloads": {"ld-gram": {"end_to_end": {m: scale * (1 + 0.01 * i) for m in E2E}}}}
            for i in range(4)
        ]

    assert not any(r["flagged"] for r in compare.compare(runs(1.0), runs(1.0), BENCH))
    assert all(r["flagged"] for r in compare.compare(runs(1.0), runs(1.5), BENCH))
