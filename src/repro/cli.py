"""Command-line interface: PLINK-style batch analysis on the framework.

The paper notes that "existing high performance libraries for
population-based analysis such as PLINK do not support the use of
GPUs"; this CLI is the GPU-framework counterpart for the three
workloads::

    repro-snp ld        --input pop.snptxt --device "Titan V" [--stat r2]
    repro-snp ld-prune  --input sites.snpbin --window 50 --r2 0.2
    repro-snp clump     --input sites.snpbin --scores assoc.npy --r2 0.5
    repro-snp identity  --queries q.npz --database db.npz --device "GTX 980"
    repro-snp mixture   --references db.npz --mixture m.snptxt
    repro-snp devices
    repro-snp tune      --device "Vega 64" --algorithm ld [--header out.h]

The three comparison commands take ``--workers N`` to shard the
functional bit-GEMM across N host threads (``--workers 0`` picks a
sensible default for the machine; see :mod:`repro.parallel`), plus
``--backend {auto,numpy,blas,blis,...}`` to pick the kernel-ABI
backend computing the bit-GEMM (``auto`` defers to ``REPRO_BACKEND``,
the tuner's per-machine winner, then the size rule; see
``docs/KERNELS.md``),
``--executor {auto,thread,process}`` to pick the shard executor tier
(``process`` runs shards in worker processes over shared-memory
operands; see ``docs/DISTRIBUTED.md``), and ``--no-gram`` to disable
the symmetric Gram fast path (see ``docs/PERF.md``).

Resilience flags (see ``docs/RESILIENCE.md``): ``--retries N`` retries
transient faults up to N times with backoff, ``--verify-sample RATE``
spot-verifies that fraction of output shards against the serial
reference, and ``--inject-faults SPEC`` injects a deterministic fault
schedule (e.g. ``"kernel:1,shard@0:2,seed=7"``) for drills.

Streaming (see ``docs/STREAMING.md``): ``--chunk-rows N`` runs the
out-of-core path -- the streamed input (LD entities, the identity
database, the mixture references) is consumed N rows at a time through
the double-buffered prefetch executor, so it never needs to fit in
memory.  Pair it with the packed ``.snpbin`` format::

    repro-snp ld       --input pop.snpbin --compare samples --chunk-rows 4096
    repro-snp identity --queries q.npz --database db.snpbin --chunk-rows 8192
    repro-snp mixture  --references db.snpbin --mixture m.snptxt --chunk-rows 8192

Inputs are the library's ``.snptxt`` / ``.npz`` / ``.snpbin`` formats
(:mod:`repro.snp.io`, :mod:`repro.io_stream`).  Results go to stdout
(summaries) and optional ``--output`` NPZ files (full tables).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.identity import identity_search
from repro.core.ld import linkage_disequilibrium
from repro.core.mixture import mixture_analysis
from repro.core.planner import derive_config
from repro.core.config import render_header
from repro.core.profiles import RunReport
from repro.core.ldops import ld_clump, ld_prune
from repro.core.streaming import (
    StreamingIdentitySearch,
    StreamingLD,
    StreamingMixture,
)
from repro.errors import ReproError
from repro.gpu.arch import ALL_GPUS, get_gpu
from repro.io_stream import PackedDatasetReader, StreamStats, open_source
from repro.kernels import backend_names
from repro.observability.report import MetricsReport
from repro.observability.trace_export import write_merged_trace
from repro.observability.tracer import Tracer, set_tracer
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import ResilienceContext, resilient
from repro.snp.io import (
    load_database_npz,
    load_dataset_npz,
    read_snptxt,
)
from repro.util.tables import render_kv, render_table
from repro.util.validation import check_workers

__all__ = ["main", "build_parser"]


def _load_matrix(path: str) -> np.ndarray:
    """Load a binary matrix from .snptxt, dataset/database .npz or .snpbin."""
    p = Path(path)
    if p.suffix == ".snptxt":
        return read_snptxt(p).matrix
    if p.suffix == ".npz":
        try:
            return load_dataset_npz(p).matrix
        except ReproError:
            return load_database_npz(p).profiles
    if p.suffix == ".snpbin":
        with PackedDatasetReader(p) as reader:
            return reader.read_bits(0, reader.n_rows)
    raise ReproError(
        f"unsupported input format: {path} (use .snptxt, .npz or .snpbin)"
    )


def _save_table(path: str | None, **arrays: np.ndarray) -> None:
    if path:
        np.savez_compressed(path, **arrays)


# -- subcommands ---------------------------------------------------------------


def _cmd_devices(args: argparse.Namespace) -> int:
    rows = [
        [g.name, g.vendor, g.microarchitecture, g.n_c,
         f"{g.global_memory_bytes / 2**30:.1f} GiB"]
        for g in ALL_GPUS
    ]
    print(render_table(
        ["device", "vendor", "microarchitecture", "cores", "memory"], rows,
        title="simulated devices",
    ))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.selfcheck import render_selfcheck, run_selfcheck

    results = run_selfcheck()
    print(render_selfcheck(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.io_stream.fsck import FsckReport, fsck_directory, fsck_file

    target = Path(args.path)
    if target.is_dir():
        report = fsck_directory(target, quarantine=args.quarantine)
    else:
        report = FsckReport(files=[fsck_file(target)])
    for file_report in report.files:
        print(file_report.describe())
    print(
        f"fsck: {len(report.files)} file(s), {report.n_ok} ok, "
        f"{report.n_corrupt} corrupt"
    )
    return 0 if report.clean else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    arch = get_gpu(args.device)
    config = derive_config(arch, Algorithm(args.algorithm))
    print(render_kv(config.as_table_row().items(),
                    title=f"{arch.name} / {args.algorithm}"))
    header = render_header(config)
    if args.header:
        Path(args.header).write_text(header, encoding="utf-8")
        print(f"\nwrote configuration header to {args.header}")
    else:
        print("\n" + header)
    return 0


def _resolve_workers(args: argparse.Namespace) -> int | None:
    """Map the --workers flag to an engine worker count.

    ``None`` (flag absent) keeps the serial path; ``0`` asks for the
    machine default; any positive value is used as given.
    """
    workers = getattr(args, "workers", None)
    if workers is None:
        return None
    try:
        workers = check_workers("--workers", workers, zero_means_default=True)
    except ValueError as exc:
        raise ReproError(str(exc)) from None
    if workers == 0:
        from repro.parallel import recommended_workers

        return recommended_workers()
    return workers


def _observability_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace", None)) or bool(
        getattr(args, "metrics", False)
    )


@contextlib.contextmanager
def _observability(args: argparse.Namespace) -> Iterator[Tracer | None]:
    """Install a fresh tracer for one command when flags ask for it.

    Yields the tracer (``None`` when neither ``--trace`` nor
    ``--metrics`` was given) and restores the previous process tracer
    on exit, so library callers of :func:`main` are unaffected.
    """
    if not _observability_requested(args):
        yield None
        return
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextlib.contextmanager
def _resilience_scope(
    args: argparse.Namespace,
) -> Iterator[ResilienceContext | None]:
    """Install a resilience context for one command when flags ask.

    ``--retries`` maps to a retry policy of ``retries + 1`` attempts;
    ``--inject-faults`` parses the fault-schedule spec;
    ``--verify-sample`` engages the spot-verification guard.  With none
    of the flags given, the inactive process default stays installed
    (zero overhead).
    """
    spec = getattr(args, "inject_faults", None)
    retries = getattr(args, "retries", 0) or 0
    verify = getattr(args, "verify_sample", 0.0) or 0.0
    if retries < 0:
        raise ReproError(f"--retries must be >= 0, got {retries}")
    if not spec and retries == 0 and verify == 0.0:
        yield None
        return
    policy = (
        RetryPolicy(max_attempts=retries + 1) if retries > 0 else None
    )
    with resilient(plan=spec, policy=policy, verify_sample=verify) as context:
        yield context


def _emit_resilience(report: RunReport) -> None:
    """Print the resilience accounting block when a context was active."""
    res = report.resilience
    if res is None:
        return
    rows: list[tuple[str, object]] = [
        ("faults injected", res.faults_injected),
        ("retries", res.retries),
        ("shards quarantined", res.quarantined),
        ("tiles verified", res.tiles_verified),
        ("verify mismatches", res.verify_mismatches),
        ("devices dropped", res.devices_dropped),
    ]
    if res.events:
        rows.append((
            "fired",
            ", ".join(
                f"{e.kind}@{e.target}#{e.attempt}" for e in res.events
            ),
        ))
    print()
    print(render_kv(rows, title="resilience"))


def _observed_framework(
    args: argparse.Namespace,
    tracer: Tracer | None,
    algorithm: Algorithm,
) -> SNPComparisonFramework | None:
    """Pre-build the framework when tracing, so the command can reach
    ``last_queue`` for the merged trace export afterwards."""
    if tracer is None:
        return None
    return SNPComparisonFramework(
        args.device,
        algorithm,
        workers=_resolve_workers(args),
        gram=not getattr(args, "no_gram", False),
        backend=getattr(args, "backend", "auto"),
        executor=getattr(args, "executor", "auto"),
    )


def _emit_observability(
    args: argparse.Namespace,
    tracer: Tracer | None,
    framework: SNPComparisonFramework | None,
    report: RunReport,
) -> None:
    """Print the metrics block and/or write the merged Chrome trace."""
    if tracer is None:
        return
    if getattr(args, "metrics", False) and report.metrics is not None:
        print()
        print(report.metrics)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        queues = []
        if framework is not None and framework.last_queue is not None:
            queues.append(framework.last_queue)
        n_events = write_merged_trace(trace_path, tracer, queues)
        print(f"\nwrote {n_events} trace events to {trace_path}")


def _emit_stream_stats(stats: StreamStats) -> None:
    """Print the streamed-ingest accounting block."""
    print()
    print(render_kv([
        ("chunks", stats.chunks),
        ("bytes read", stats.bytes_read),
        ("read time", f"{stats.read_s * 1e3:.1f} ms"),
        ("prefetch stall", f"{stats.stall_s * 1e3:.1f} ms"),
        ("stall fraction", f"{stats.stall_fraction:.1%}"),
    ], title="streaming"))


def _emit_streaming_observability(
    args: argparse.Namespace,
    tracer: Tracer | None,
    framework: SNPComparisonFramework | None,
) -> None:
    """Streaming counterpart of :func:`_emit_observability`.

    A streamed run has no single per-run metrics report, so the metrics
    block covers everything the command's tracer saw (all chunks); the
    merged trace keeps the last chunk's device lane.
    """
    if tracer is None:
        return
    if getattr(args, "metrics", False):
        print()
        print(MetricsReport.from_tracer(tracer))
    trace_path = getattr(args, "trace", None)
    if trace_path:
        queues = []
        if framework is not None and framework.last_queue is not None:
            queues.append(framework.last_queue)
        n_events = write_merged_trace(trace_path, tracer, queues)
        print(f"\nwrote {n_events} trace events to {trace_path}")


def _cmd_ld(args: argparse.Namespace) -> int:
    streaming = args.chunk_rows is not None
    if streaming and args.compare != "samples":
        raise ReproError(
            "--chunk-rows streams rows as the compared entities and "
            "requires --compare samples (site-major streaming needs a "
            "transposed input file)"
        )
    matrix = None if streaming else _load_matrix(args.input)
    with _observability(args) as tracer, _resilience_scope(args):
        framework = _observed_framework(args, tracer, Algorithm.LD)
        stats: StreamStats | None = None
        if streaming:
            streamer = StreamingLD(
                device=args.device,
                workers=_resolve_workers(args),
                gram=not args.no_gram,
                backend=args.backend,
                executor=args.executor,
                framework=framework,
            )
            with open_source(args.input) as source:
                result = streamer.run(source, args.chunk_rows)
            stats = streamer.last_stats
        else:
            result = linkage_disequilibrium(
                matrix,
                device=args.device,
                compare=args.compare,
                framework=framework,
                workers=_resolve_workers(args),
                gram=not args.no_gram,
                backend=args.backend,
                executor=args.executor,
            )
        stat = {
            "r2": result.r_squared, "d": result.d, "dprime": result.d_prime
        }[args.stat]
        off = stat[~np.eye(stat.shape[0], dtype=bool)]
        print(render_kv([
            ("entities compared", stat.shape[0]),
            ("observations", result.n_observations),
            (f"mean {args.stat}", f"{off.mean():.5f}"),
            (f"max {args.stat}", f"{off.max():.5f}"),
            (f"pairs with {args.stat} > {args.threshold}",
             int((off > args.threshold).sum() // 2)),
            ("simulated end-to-end", f"{result.report.end_to_end_s * 1e3:.1f} ms"),
        ], title=f"LD on {args.device}"))
        if stats is not None:
            _emit_stream_stats(stats)
        if streaming:
            _emit_streaming_observability(args, tracer, framework)
        else:
            _emit_observability(args, tracer, framework, result.report)
        _emit_resilience(result.report)
    _save_table(args.output, counts=result.counts, stat=stat)
    return 0


def _load_scores(path: str) -> np.ndarray:
    """Load the per-site clump scores: .npy, .npz (``scores`` key) or text."""
    p = Path(path)
    if p.suffix == ".npy":
        return np.asarray(np.load(p), dtype=np.float64)
    if p.suffix == ".npz":
        with np.load(p) as payload:
            key = "scores" if "scores" in payload else payload.files[0]
            return np.asarray(payload[key], dtype=np.float64)
    try:
        return np.asarray(np.loadtxt(p, dtype=np.float64), dtype=np.float64)
    except ValueError as exc:
        raise ReproError(f"--scores: cannot parse {path}: {exc}") from None


def _ldops_source(args: argparse.Namespace) -> np.ndarray | str:
    """The site-major input feed for ld-prune/clump.

    ``--transpose`` loads the whole matrix and flips a sample-major
    file into site rows (in-memory only); otherwise the path streams
    through :func:`repro.io_stream.open_source` as-is.
    """
    if args.transpose:
        return np.ascontiguousarray(_load_matrix(args.input).T)
    return args.input


def _emit_ldops_footer(
    args: argparse.Namespace,
    tracer: Tracer | None,
    framework: SNPComparisonFramework | None,
    stats: StreamStats | None,
) -> None:
    if stats is not None:
        _emit_stream_stats(stats)
    _emit_streaming_observability(args, tracer, framework)


def _cmd_ld_prune(args: argparse.Namespace) -> int:
    """Windowed greedy LD pruning over a streamed site-major input."""
    with _observability(args) as tracer, _resilience_scope(args):
        framework = _observed_framework(args, tracer, Algorithm.LD)
        result = ld_prune(
            _ldops_source(args),
            window=args.window,
            r2=args.r2,
            chunk_rows=args.chunk_rows or 4096,
            device=args.device,
            workers=_resolve_workers(args),
            gram=not args.no_gram,
            backend=args.backend,
            executor=args.executor,
            framework=framework,
        )
        print(render_kv([
            ("sites scanned", result.n_sites),
            ("window (sites)", result.window),
            ("r2 threshold", f"{result.r2:g}"),
            ("kept", len(result.kept)),
            ("pruned", len(result.pruned)),
            ("pairs tested", result.pairs_tested),
            ("peak window sites", result.peak_window_sites),
            ("simulated end-to-end",
             f"{result.simulated_seconds * 1e3:.1f} ms"),
        ], title=f"LD pruning on {args.device}"))
        _emit_ldops_footer(args, tracer, framework, result.stream_stats)
    _save_table(
        args.output,
        kept=result.kept, pruned=result.pruned, blocker=result.blocker,
    )
    return 0


def _cmd_clump(args: argparse.Namespace) -> int:
    """Index-variant clumping over a streamed site-major input."""
    scores = _load_scores(args.scores)
    with _observability(args) as tracer, _resilience_scope(args):
        framework = _observed_framework(args, tracer, Algorithm.LD)
        result = ld_clump(
            _ldops_source(args),
            scores,
            window=args.window,
            r2=args.r2,
            chunk_rows=args.chunk_rows or 4096,
            device=args.device,
            workers=_resolve_workers(args),
            gram=not args.no_gram,
            backend=args.backend,
            executor=args.executor,
            framework=framework,
        )
        n_absorbed = int((result.assignment != np.arange(result.n_sites)).sum())
        print(render_kv([
            ("sites scanned", result.n_sites),
            ("window (sites)", result.window),
            ("r2 threshold", f"{result.r2:g}"),
            ("clumps formed", len(result.clumps)),
            ("sites absorbed", n_absorbed),
            ("pairs tested", result.pairs_tested),
            ("peak window sites", result.peak_window_sites),
            ("simulated end-to-end",
             f"{result.simulated_seconds * 1e3:.1f} ms"),
        ], title=f"LD clumping on {args.device}"))
        top = result.clumps[:10]
        if top:
            print()
            print(render_table(
                ["index site", "score", "members"],
                [
                    [c.index_site, f"{scores[c.index_site]:g}",
                     ", ".join(map(str, c.members[:12])) or "(none)"]
                    for c in top
                ],
                title="top clumps (rank order)",
            ))
            if len(result.clumps) > 10:
                print(f"... and {len(result.clumps) - 10} more")
        _emit_ldops_footer(args, tracer, framework, result.stream_stats)
    _save_table(
        args.output,
        index_sites=result.index_sites,
        assignment=result.assignment,
        scores=scores,
    )
    return 0


def _cmd_identity_streaming(args: argparse.Namespace) -> int:
    """Out-of-core identity: stream the database, retain top-k."""
    queries = _load_matrix(args.queries)
    with _observability(args) as tracer, _resilience_scope(args):
        framework = _observed_framework(args, tracer, Algorithm.FASTID_IDENTITY)
        search = StreamingIdentitySearch(
            queries,
            k=args.top_k,
            device=args.device,
            workers=_resolve_workers(args),
            backend=args.backend,
            executor=args.executor,
            framework=framework,
        )
        with open_source(args.database) as source:
            stats = search.consume(source, args.chunk_rows)
        print(render_kv([
            ("queries", search.n_queries),
            ("database profiles", search.rows_seen),
            ("sites", queries.shape[1]),
            ("candidates retained per query", search.k),
            ("simulated end-to-end", f"{search.simulated_seconds * 1e3:.1f} ms"),
        ], title=f"streaming identity search on {args.device}"))
        hits = [
            (qi, m.database_index, m.distance)
            for qi, matches in enumerate(search.all_matches())
            for m in matches
        ]
        if hits:
            print()
            print(render_table(
                ["query", "profile", "distance"],
                [[q, p, d] for q, p, d in hits[:20]],
            ))
            if len(hits) > 20:
                print(f"... and {len(hits) - 20} more")
        _emit_stream_stats(stats)
        _emit_streaming_observability(args, tracer, framework)
    if args.output and hits:
        _save_table(
            args.output,
            query=np.array([q for q, _, _ in hits], dtype=np.int64),
            profile=np.array([p for _, p, _ in hits], dtype=np.int64),
            distance=np.array([d for _, _, d in hits], dtype=np.int64),
        )
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    if args.chunk_rows is not None:
        return _cmd_identity_streaming(args)
    queries = _load_matrix(args.queries)
    database = _load_matrix(args.database)
    with _observability(args) as tracer, _resilience_scope(args):
        framework = _observed_framework(args, tracer, Algorithm.FASTID_IDENTITY)
        result = identity_search(
            queries,
            database,
            device=args.device,
            framework=framework,
            workers=_resolve_workers(args),
            gram=not args.no_gram,
            backend=args.backend,
            executor=args.executor,
        )
        hits = result.matches(args.max_distance)
        print(render_kv([
            ("queries", queries.shape[0]),
            ("database profiles", database.shape[0]),
            ("sites", queries.shape[1]),
            (f"matches (distance <= {args.max_distance})", len(hits)),
            ("simulated end-to-end", f"{result.report.end_to_end_s * 1e3:.1f} ms"),
        ], title=f"identity search on {args.device}"))
        if hits:
            print()
            print(render_table(
                ["query", "profile", "distance"],
                [[q, p, d] for q, p, d in hits[:20]],
            ))
            if len(hits) > 20:
                print(f"... and {len(hits) - 20} more")
        _emit_observability(args, tracer, framework, result.report)
        _emit_resilience(result.report)
    _save_table(args.output, distances=result.distances)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the long-lived identity-search service (docs/SERVING.md)."""
    from repro.serve import IdentityService, ProfileIndex, run_server

    if bool(args.index) == bool(args.database):
        raise ReproError(
            "serve: give exactly one of --index (shard directory) or "
            "--database (matrix file to load into a memory index)"
        )
    with _observability(args) as tracer, _resilience_scope(args):
        if args.index:
            index = ProfileIndex(
                args.index, shard_rows=args.shard_rows,
                word_bits=get_gpu(args.device).word_bits,
            )
        else:
            profiles = _load_matrix(args.database)
            index = ProfileIndex(
                n_bits=int(profiles.shape[1]), shard_rows=args.shard_rows
            )
            index.append(profiles)
        service = IdentityService(
            index,
            k=args.top_k,
            device=args.device,
            workers=_resolve_workers(args),
            backend=args.backend,
            executor=args.executor,
            window_s=args.window_ms / 1e3,
            max_batch_rows=args.max_batch_rows,
        )
        with service, index:
            print(render_kv([
                ("database profiles", index.n_rows),
                ("sites", index.n_bits),
                ("segments", index.n_segments),
                ("device", args.device),
                ("coalescing window", f"{args.window_ms:.1f} ms"),
                ("max batch rows", args.max_batch_rows),
            ], title="identity service"))
            run_server(
                service,
                host=args.host,
                port=args.port,
                max_requests=args.max_requests,
                on_start=lambda host, port: print(
                    f"listening on {host}:{port} (JSON lines; "
                    f"ops: search, append, stats, ping)",
                    flush=True,
                ),
            )
            summaries = service.ledger.summary()
            if summaries:
                print()
                print(render_table(
                    ["tenant", "queries", "failures", "p50 ms", "p99 ms", "qps"],
                    [
                        [name, int(s["queries"]), int(s["failures"]),
                         f"{s['p50_s'] * 1e3:.1f}", f"{s['p99_s'] * 1e3:.1f}",
                         f"{s['qps']:.1f}"]
                        for name, s in summaries.items()
                    ],
                    title="tenants served",
                ))
        if tracer is not None and getattr(args, "metrics", False):
            print()
            print(MetricsReport.from_tracer(tracer))
    return 0


def _cmd_mixture(args: argparse.Namespace) -> int:
    streaming = args.chunk_rows is not None
    references = None if streaming else _load_matrix(args.references)
    mixture = _load_matrix(args.mixture)
    with _observability(args) as tracer, _resilience_scope(args):
        framework = _observed_framework(args, tracer, Algorithm.FASTID_MIXTURE)
        stats: StreamStats | None = None
        if streaming:
            streamer = StreamingMixture(
                mixture,
                device=args.device,
                workers=_resolve_workers(args),
                backend=args.backend,
                executor=args.executor,
                framework=framework,
            )
            with open_source(args.references) as source:
                stats = streamer.consume(source, args.chunk_rows)
            result = streamer.result()
            n_references = streamer.rows_seen
        else:
            result = mixture_analysis(
                references,
                mixture,
                device=args.device,
                framework=framework,
                workers=_resolve_workers(args),
                gram=not args.no_gram,
                backend=args.backend,
                executor=args.executor,
            )
            n_references = references.shape[0]
        print(render_kv([
            ("references", n_references),
            ("mixtures", mixture.shape[0]),
            ("kernel",
             "AND (pre-negated DB)" if result.prenegated else "fused AND-NOT"),
            ("simulated end-to-end", f"{result.report.end_to_end_s * 1e3:.1f} ms"),
        ], title=f"mixture analysis on {args.device}"))
        for mi in range(mixture.shape[0]):
            flagged = result.consistent_contributors(mi, args.max_score)
            ids = ", ".join(str(r) for r, _ in flagged[:15]) or "(none)"
            print(f"mixture {mi}: {len(flagged)} consistent references: {ids}")
        if stats is not None:
            _emit_stream_stats(stats)
        if streaming:
            _emit_streaming_observability(args, tracer, framework)
        else:
            _emit_observability(args, tracer, framework, result.report)
        _emit_resilience(result.report)
    _save_table(args.output, scores=result.scores)
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-snp",
        description="SNP comparisons on the simulated portable GPU framework.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list simulated devices").set_defaults(
        func=_cmd_devices
    )

    sub.add_parser(
        "verify", help="run the installation self-check battery"
    ).set_defaults(func=_cmd_verify)

    fsck = sub.add_parser(
        "fsck", help="verify .snpbin shard checksums, quarantine corruption"
    )
    fsck.add_argument("path", help="a .snpbin file or a shard directory")
    fsck.add_argument(
        "--quarantine",
        action="store_true",
        help="rename corrupt shards to *.snpbin.quarantined so a "
        "reopened index skips them (bytes are preserved)",
    )
    fsck.set_defaults(func=_cmd_fsck)

    tune = sub.add_parser("tune", help="derive a device configuration")
    tune.add_argument("--device", required=True)
    tune.add_argument(
        "--algorithm", default="ld", choices=[a.value for a in Algorithm]
    )
    tune.add_argument("--header", help="write the C header to this path")
    tune.set_defaults(func=_cmd_tune)

    workers_help = (
        "host threads for the functional compute "
        "(0 = machine default, omit = serial)"
    )
    trace_help = (
        "write a merged Chrome trace (host spans + simulated device "
        "lanes) to this JSON file"
    )
    metrics_help = "print the observability counter/span report"
    backend_help = (
        "kernel-ABI backend for the functional bit-GEMM (auto defers to "
        "REPRO_BACKEND, then the tuner's per-machine winner, then blis "
        "or blas by problem size; see docs/KERNELS.md)"
    )
    executor_help = (
        "shard executor tier: thread pool, worker processes over "
        "shared-memory operands, or auto (tuner-raced winner; see "
        "docs/DISTRIBUTED.md)"
    )
    no_gram_help = (
        "disable the symmetric Gram fast path (compute the full table "
        "even for self-comparisons)"
    )

    def add_observability_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--trace", metavar="PATH", help=trace_help)
        cmd.add_argument("--metrics", action="store_true", help=metrics_help)

    retries_help = (
        "retry transient device faults up to N times with exponential "
        "backoff (0 = no retries; see docs/RESILIENCE.md)"
    )
    inject_help = (
        "inject a deterministic fault schedule for resilience drills, "
        "e.g. 'kernel:1,shard@0:2,bitflip@0,seed=7'"
    )
    verify_help = (
        "spot-verify this fraction of output shards against the serial "
        "reference (0 disables, 1 checks every shard)"
    )
    chunk_help = (
        "stream the large input (LD entities, identity database, "
        "mixture references) N rows at a time through the "
        "double-buffered prefetch executor instead of loading it whole "
        "(out-of-core; see docs/STREAMING.md)"
    )

    def add_compute_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--workers", type=int, default=None, help=workers_help)
        cmd.add_argument(
            "--backend", default="auto",
            choices=["auto", *backend_names()], help=backend_help,
        )
        cmd.add_argument(
            "--executor", default="auto",
            choices=["auto", "thread", "process"], help=executor_help,
        )
        cmd.add_argument("--no-gram", action="store_true", help=no_gram_help)
        cmd.add_argument(
            "--retries", type=int, default=0, metavar="N", help=retries_help
        )
        cmd.add_argument(
            "--inject-faults", metavar="SPEC", help=inject_help
        )
        cmd.add_argument(
            "--verify-sample", type=float, default=0.0, metavar="RATE",
            help=verify_help,
        )
        cmd.add_argument(
            "--chunk-rows", type=int, default=None, metavar="N",
            help=chunk_help,
        )

    ld = sub.add_parser("ld", help="all-pairs linkage disequilibrium")
    ld.add_argument(
        "--input", required=True, help=".snptxt, dataset .npz or .snpbin"
    )
    ld.add_argument("--device", default="Titan V")
    ld.add_argument("--compare", default="sites", choices=["sites", "samples"])
    ld.add_argument("--stat", default="r2", choices=["r2", "d", "dprime"])
    ld.add_argument("--threshold", type=float, default=0.8)
    add_compute_flags(ld)
    ld.add_argument("--output", help="write tables to this .npz")
    add_observability_flags(ld)
    ld.set_defaults(func=_cmd_ld)

    transpose_help = (
        "load the input whole and transpose it first (turns a "
        "sample-major matrix into the site rows these commands scan; "
        "in-memory only, so best for .snptxt/.npz inputs)"
    )
    ldops_input_help = (
        "site-major .snptxt, .npz or .snpbin (rows are the sites "
        "being scanned, columns the samples; see docs/LDOPS.md)"
    )

    prune = sub.add_parser(
        "ld-prune",
        help="windowed greedy r2 pruning (PLINK --indep-pairwise style, "
        "streamed; see docs/LDOPS.md)",
    )
    prune.add_argument("--input", required=True, help=ldops_input_help)
    prune.add_argument("--device", default="Titan V")
    prune.add_argument(
        "--window", type=int, default=50, metavar="N",
        help="sliding window length in sites (pairs further apart are "
        "never tested)",
    )
    prune.add_argument(
        "--r2", type=float, default=0.2, metavar="R2",
        help="prune a site when r2 with a kept window site exceeds this",
    )
    prune.add_argument("--transpose", action="store_true", help=transpose_help)
    add_compute_flags(prune)
    prune.add_argument(
        "--output", help="write kept/pruned/blocker tables to this .npz"
    )
    add_observability_flags(prune)
    prune.set_defaults(func=_cmd_ld_prune)

    clump = sub.add_parser(
        "clump",
        help="index-variant clumping by score rank (PLINK --clump style, "
        "streamed; see docs/LDOPS.md)",
    )
    clump.add_argument("--input", required=True, help=ldops_input_help)
    clump.add_argument(
        "--scores", required=True,
        help="per-site scores, higher is better (e.g. -log10 p): "
        ".npy, .npz ('scores' key) or whitespace text",
    )
    clump.add_argument("--device", default="Titan V")
    clump.add_argument(
        "--window", type=int, default=250, metavar="N",
        help="sliding window length in sites (absorption never reaches "
        "further)",
    )
    clump.add_argument(
        "--r2", type=float, default=0.5, metavar="R2",
        help="absorb a site into an index variant when r2 is at or "
        "above this",
    )
    clump.add_argument("--transpose", action="store_true", help=transpose_help)
    add_compute_flags(clump)
    clump.add_argument(
        "--output", help="write index_sites/assignment tables to this .npz"
    )
    add_observability_flags(clump)
    clump.set_defaults(func=_cmd_clump)

    ident = sub.add_parser("identity", help="FastID identity search")
    ident.add_argument("--queries", required=True)
    ident.add_argument("--database", required=True)
    ident.add_argument("--device", default="Titan V")
    ident.add_argument("--max-distance", type=int, default=0)
    ident.add_argument(
        "--top-k", type=int, default=5, metavar="K",
        help="candidates retained per query on the streaming path "
        "(with --chunk-rows)",
    )
    add_compute_flags(ident)
    ident.add_argument("--output")
    add_observability_flags(ident)
    ident.set_defaults(func=_cmd_identity)

    serve = sub.add_parser(
        "serve",
        help="boot the long-lived identity-search service "
        "(JSON-lines TCP; see docs/SERVING.md)",
    )
    serve.add_argument(
        "--index", metavar="DIR",
        help="shard directory of .snpbin files kept mmap-resident "
        "(online appends seal new shards here)",
    )
    serve.add_argument(
        "--database", metavar="FILE",
        help=".snptxt/.npz/.snpbin matrix loaded into a memory index",
    )
    serve.add_argument("--device", default="Titan V")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7433,
        help="TCP port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--top-k", type=int, default=5, metavar="K",
        help="default candidates retained per query "
        "(requests may override per call)",
    )
    serve.add_argument(
        "--window-ms", type=float, default=5.0, metavar="MS",
        help="coalescing window: concurrent queries admitted within "
        "this span of the first arrival share one GEMM panel",
    )
    serve.add_argument(
        "--max-batch-rows", type=int, default=512, metavar="N",
        help="query-row budget per coalesced batch (cut early at N)",
    )
    serve.add_argument(
        "--shard-rows", type=int, default=4096, metavar="N",
        help="appended rows accumulated before sealing a new .snpbin "
        "shard (--index mode)",
    )
    serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="stop after serving N search requests (default: run until "
        "interrupted; used by CI and tests)",
    )
    add_compute_flags(serve)
    add_observability_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    mix = sub.add_parser("mixture", help="FastID mixture analysis")
    mix.add_argument("--references", required=True)
    mix.add_argument("--mixture", required=True)
    mix.add_argument("--device", default="Titan V")
    mix.add_argument("--max-score", type=int, default=0)
    add_compute_flags(mix)
    mix.add_argument("--output")
    add_observability_flags(mix)
    mix.set_defaults(func=_cmd_mixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
