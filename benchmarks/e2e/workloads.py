"""Workload sizes and seeded input generation (untimed).

Each ``prepare_*`` function writes one workload's inputs into a fresh
directory from the seed, computes the oracle's expectations, and
returns a JSON-ready spec: ``inputs`` is what the process under test
receives, ``expect`` stays with the benchmark for checking.  The same
seed always gives the same inputs.

Why these four workloads (each stresses different layers):

* ``ld-gram`` -- all-pairs LD plus ``r_squared`` on a block-LD cohort:
  the Gram-mode GEMM and the (unspanned) stats layer dominate; ingest,
  fold and wire play no part.
* ``identity-serve`` -- the real ``repro.cli serve`` under two
  closed-loop TCP clients with interleaved appends: per-segment
  dispatch, the Python top-k fold and the wire dominate, GEMM has
  m <= 2 real rows, and appends grow the segment list searches walk.
* ``mixture-scan`` -- ``StreamingMixture.consume`` over a ``.snpbin``
  reference file: ingest (mmap, CRC, unpack), re-packing rows that are
  already packed on disk, and a tall-skinny AND-NOT GEMM.  The control
  that bypasses fold, Gram mode and the wire.
* ``ld-prune`` -- windowed ``ld_prune`` over a site-major ``.snpbin``:
  every chunk computes a full diagonal Gram block of which only the
  window band is tested, plus many mid-size dispatches.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.io_stream.format import PackedDatasetWriter
from repro.serve.index import ProfileIndex
from repro.snp.forensic import generate_queries, make_mixture, perturb_profile
from repro.snp.generator import PopulationModel, generate_population
from repro.snp.io import save_dataset_npz
from repro.snp.panels import get_panel

import oracles

WORKLOADS = ("ld-gram", "identity-serve", "mixture-scan", "ld-prune")

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: the same structure at a size the self-tests run in seconds.
SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "ld-gram": {"sites": 4096, "samples": 2048, "block_size": 50, "r2_pairs": 256},
        "identity-serve": {
            "profiles": 50_000, "shard_rows": 4096, "seal_rows": 512,
            "members": 200, "unrelated": 200, "error_rate": 0.01, "k": 5,
            "append_rows": 64, "append_near": 8, "append_every": 10,
            "max_appends": 200,
        },
        "mixture-scan": {
            "references": 524_288, "sites": 1024, "chunk_rows": 65_536,
            "mixtures": 16, "contributors": 3,
        },
        "ld-prune": {
            "sites": 16_384, "samples": 1024, "block_size": 50,
            "window": 50, "r2": 0.2, "chunk_rows": 4096,
        },
    },
    "tiny": {
        "ld-gram": {"sites": 256, "samples": 128, "block_size": 20, "r2_pairs": 32},
        "identity-serve": {
            "profiles": 2000, "shard_rows": 512, "seal_rows": 64,
            "members": 20, "unrelated": 20, "error_rate": 0.01, "k": 5,
            "append_rows": 16, "append_near": 4, "append_every": 3,
            "max_appends": 50,
        },
        "mixture-scan": {
            "references": 8192, "sites": 256, "chunk_rows": 2048,
            "mixtures": 4, "contributors": 3,
        },
        "ld-prune": {
            "sites": 1024, "samples": 128, "block_size": 20,
            "window": 20, "r2": 0.2, "chunk_rows": 256,
        },
    },
}

#: Word width of the modeled device (Titan V): shards written in it are
#: served without repacking.
WORD_BITS = 32


def _rng(seed: int, workload: str) -> np.random.Generator:
    # One independent stream per (seed, workload), stable across runs.
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _write_snpbin(path: Path, rows: np.ndarray) -> None:
    with PackedDatasetWriter(path, word_bits=WORD_BITS) as writer:
        writer.append(rows)


def prepare_ld_gram(p: dict[str, Any], rng: np.random.Generator, out: Path) -> dict:
    model = PopulationModel(p["samples"], p["sites"], block_size=p["block_size"])
    cohort = generate_population(model, rng=rng)
    save_dataset_npz(out / "cohort.npz", cohort)
    counts = oracles.ld_counts(cohort.matrix.T)
    pairs = rng.integers(0, p["sites"], size=(p["r2_pairs"], 2)).tolist()
    return {
        "inputs": {"cohort": str(out / "cohort.npz"), "r2_pairs": pairs},
        "expect": {
            "counts": oracles.digest(counts),
            "r2": oracles.r_squared_at(counts, p["samples"], pairs),
        },
    }


def _reference_blocks(
    seeds: np.ndarray, n: int, chunk: int, thresholds: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, rows)`` blocks of the reference file, regenerated exactly
    from the per-block seeds each time this is iterated."""
    for seed, start in zip(seeds, range(0, n, chunk)):
        draws = np.random.default_rng(int(seed)).integers(
            0, 256, size=(min(chunk, n - start), thresholds.size), dtype=np.uint8
        )
        yield start, (draws < thresholds).astype(np.uint8)


def prepare_mixture_scan(
    p: dict[str, Any], rng: np.random.Generator, out: Path
) -> dict:
    n, chunk = p["references"], p["chunk_rows"]
    panel = get_panel("forensic-extended")
    freqs = np.clip(rng.beta(panel.maf_alpha, panel.maf_beta, size=p["sites"]), 0.05, 0.5)
    # uint8 thresholds (frequency resolution 1/256) keep generation of
    # the half-million-row file well under a second.
    thresholds = np.round(freqs * 256).astype(np.uint8)
    seeds = rng.integers(0, 2**63, size=-(-n // chunk))
    contributors = rng.choice(n, size=p["mixtures"] * p["contributors"], replace=False)
    picked: dict[int, np.ndarray] = {}
    path = out / "references.snpbin"
    with PackedDatasetWriter(path, word_bits=WORD_BITS) as writer:
        for start, block in _reference_blocks(seeds, n, chunk, thresholds):
            writer.append(block)
            for row in contributors[(contributors >= start) & (contributors < start + len(block))]:
                picked[int(row)] = block[row - start].copy()  # not a view: frees the block
    mixtures = np.stack([
        make_mixture(np.stack([picked[int(r)] for r in group]))
        for group in contributors.reshape(p["mixtures"], p["contributors"])
    ])
    np.save(out / "mixtures.npy", mixtures)
    # The oracle scores freshly regenerated blocks, never the file the
    # program under test reads.
    scores = oracles.chunked_digest(
        (n, p["mixtures"]),
        (
            oracles.mixture_scores(block, mixtures)
            for _, block in _reference_blocks(seeds, n, chunk, thresholds)
        ),
    )
    return {
        "inputs": {
            "references": str(path),
            "mixtures": str(out / "mixtures.npy"),
            "chunk_rows": chunk,
        },
        "expect": {"scores": scores},
    }


def prepare_ld_prune(p: dict[str, Any], rng: np.random.Generator, out: Path) -> dict:
    model = PopulationModel(p["samples"], p["sites"], block_size=p["block_size"])
    sites = generate_population(model, rng=rng).matrix.T.copy()
    _write_snpbin(out / "sites.snpbin", sites)
    kept = oracles.ld_prune_kept(sites, p["window"], p["r2"])
    return {
        "inputs": {
            "sites": str(out / "sites.snpbin"),
            "window": p["window"],
            "r2": p["r2"],
            "chunk_rows": p["chunk_rows"],
        },
        "expect": {"kept": oracles.digest(kept), "n_kept": int(kept.size)},
    }


def prepare_identity_serve(
    p: dict[str, Any], rng: np.random.Generator, out: Path
) -> dict:
    panel = get_panel("forensic-extended")
    database = panel.database(p["profiles"], rng=rng)
    ProfileIndex.build(
        out / "index", database.profiles, shard_rows=p["shard_rows"], word_bits=WORD_BITS
    ).close()
    pool, _ = generate_queries(
        database, p["members"], p["unrelated"], rng=rng, error_rate=p["error_rate"]
    )
    fresh_rows = p["append_rows"] - p["append_near"]
    appends = []
    for _ in range(p["max_appends"]):
        fresh = (rng.random((fresh_rows, panel.n_sites)) < database.frequencies).astype(
            np.uint8
        )
        near = perturb_profile(
            pool[rng.integers(0, len(pool), size=p["append_near"])], p["error_rate"], rng
        )
        appends.append(np.vstack([fresh, near]))
    np.save(out / "pool.npy", pool)
    np.save(out / "appends.npy", np.stack(appends))
    # The oracle reads the initial rows from here, never from the shards.
    np.save(out / "database.npy", database.profiles)
    return {
        "inputs": {
            "index": str(out / "index"),
            "pool": str(out / "pool.npy"),
            "appends": str(out / "appends.npy"),
            "seal_rows": p["seal_rows"],
            "k": p["k"],
            "append_every": p["append_every"],
        },
        "expect": {"database": str(out / "database.npy")},
    }


PREPARE: dict[str, Callable[[dict[str, Any], np.random.Generator, Path], dict]] = {
    "ld-gram": prepare_ld_gram,
    "identity-serve": prepare_identity_serve,
    "mixture-scan": prepare_mixture_scan,
    "ld-prune": prepare_ld_prune,
}


def prepare(workload: str, seed: int, scale: str, out: Path) -> dict[str, Any]:
    """Generate ``workload``'s inputs under ``out``; returns its spec."""
    params = SCALES[scale][workload]
    out.mkdir(parents=True, exist_ok=True)
    spec = PREPARE[workload](params, _rng(seed, workload), out)
    spec.update(workload=workload, seed=seed, scale=scale, params=params)
    (out / "spec.json").write_text(json.dumps(spec))
    return spec
