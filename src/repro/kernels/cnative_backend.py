"""``cnative`` backend: the C popcount bit-GEMM, built with the host toolchain.

One C source (:data:`_SOURCE`) builds three panel bodies in one
translation unit: a portable body and a ``target("popcnt")`` body that
compile the plain panel loop, and a ``target("avx512f,avx512vpopcntdq")``
body that runs a register-tiled broadcast micro-kernel (the last two on
x86-64 only).  At load the library reports which bodies this CPU runs
(``__builtin_cpu_supports``) and the most capable one computes every
panel.  Plain ``-O3`` lowers ``__builtin_popcountll`` to a software
popcount, so only the x86 bodies use the machine's popcount
instruction.  ``-march=native`` and ``target_clones`` are not used: gcc
can misname a virtualised CPU (a KVM host that exposes VPOPCNTDQ reads
as ``cooperlake``), and ``target_clones`` then runs the plain
``popcnt`` clone.  The same library computes
:attr:`~repro.core.ld.LDResult.r_squared` in one pass
(:meth:`CNativeBackend.r_squared`) and decides the windowed LD band of
:mod:`repro.core.ldops` (:meth:`CNativeBackend.prune_scan`,
:meth:`CNativeBackend.band_hits`: scalar loops compiled per body, with
an exact integer r^2 test); ``-ffp-contract=off`` keeps both
bit-identical to the NumPy code.

The library is cached per user, keyed by a hash of the source, the
compiler, the flags and ``platform.machine()``; the body is picked at
run time, so no CPU-feature key is needed.  It is loaded through
:mod:`ctypes`, whose calls release the GIL, so panel calls from the
parallel engine's pool threads overlap.

There are two ways in:

* **Explicit use** -- ``backend="cnative"``, ``REPRO_BACKEND=cnative``
  or :attr:`CNativeBackend.info` -- compiles and loads synchronously.
  No compiler, a failed compile or a failed load leave the backend
  registered but unavailable, with the reason in its descriptor.
* **``"auto"``** asks :meth:`CNativeBackend.auto_ready`, which never
  compiles on the caller's thread.  A library already in the cache
  loads at the first ``"auto"`` dispatch (about 0.5 ms).  On a cold
  cache the word-ops of the GEMMs the fallback serves accumulate, and
  at :data:`COMPILE_TRIGGER_OPS` one daemon thread compiles and loads
  the library; ``"auto"`` switches over when the load completes.
  ``"auto"`` takes ``cnative`` only with a hardware-popcount body
  (:data:`HARDWARE_BODIES`): the portable body loses to ``blas`` on
  large tables.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.blis.microkernel import ComparisonOp
from repro.errors import ConfigurationError, PackingError
from repro.kernels.abi import (
    OPCODES,
    BackendInfo,
    KernelBackend,
    canonicalize_words,
    check_panel_operands,
)
from repro.util.cachedir import repro_cache_dir

__all__ = [
    "KERNEL_CACHE_ENV",
    "DEFAULT_KERNEL_CACHE",
    "COMPILE_TRIGGER_OPS",
    "HARDWARE_BODIES",
    "CNativeBackend",
]

#: Environment variable overriding where compiled kernels are cached.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Default compiled-kernel cache directory (per-user, survives
#: checkouts); honours ``XDG_CACHE_HOME`` via
#: :func:`repro.util.cachedir.repro_cache_dir` -- kept as a constant
#: name for documentation, resolved per call in :func:`_cache_dir`.
DEFAULT_KERNEL_CACHE = "~/.cache/repro/kernels"

#: Word-ops the ``"auto"`` fallback serves on a cold cache before the
#: background compile starts.  A cold compile and load takes about
#: 0.6 s.  On a 2-vCPU AVX-512 host with NumPy 2.4 the fallback runs
#: short-operand shapes on ``numpy`` at about 0.2-0.35 Gword-op/s (a
#: 4 x 4,096 x 16 served search, a 65,536 x 16 x 32 mixture chunk) and
#: larger ones on ``blas`` at about 1.2-1.5 Gword-op/s (512 x 512 x 32,
#: the 4,096^2 x 32 ld-gram Gram), so the trigger is 0.4-0.6 s of
#: reference work or about 0.1 s of BLAS work, and a process that does
#: little GEMM work never starts a compiler.  A served search (~6.4M
#: word-ops) stays far below.  LD bands count too: each adds its chunk
#: rows x band width x words (a 16,384-site x 1,024-sample prune pass
#: at window 50 adds about 25.7M, so the sixth such pass starts the
#: build).
COMPILE_TRIGGER_OPS = 1 << 27

#: Bodies that use a popcount instruction.  ``"auto"`` takes
#: ``cnative`` only with one of these loaded.
HARDWARE_BODIES = frozenset({"popcnt", "avx512-vpopcntdq"})

#: Compilers probed in order when ``$CC`` is unset.
_COMPILERS = ("cc", "gcc", "clang")

_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_BUILD_TIMEOUT_S = 120

_SOURCE = """\
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPC64(x) __builtin_popcountll(x)
#else
static inline int64_t popc64(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}
#define POPC64(x) popc64(x)
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_X86_BODIES 1
/* Eight uint64 lanes: one zmm register. */
typedef unsigned long long v8u __attribute__((vector_size(64), may_alias));
typedef long long v8i __attribute__((vector_size(64)));
/* VPOPCNTQ arrived in gcc 7 and clang 5; an older compiler still
   builds the portable and popcnt bodies.  gcc's builtin spares parsing
   <immintrin.h>, which took most of the build time. */
#if defined(__clang__)
#if __clang_major__ >= 5
#include <immintrin.h>
#define VPOPCNTQ(x) ((v8u)_mm512_popcnt_epi64((__m512i)(x)))
#endif
#elif __GNUC__ >= 7
#define VPOPCNTQ(x) ((v8u)__builtin_ia32_vpopcountq_v8di((v8i)(x)))
#endif
#ifdef VPOPCNTQ
#define HAVE_VPOPCNTDQ 1
#endif
#endif

/* A body returns 0, or -1 when it cannot allocate its scratch. */
typedef int32_t (*panel_fn)(const uint64_t *, const uint64_t *, int64_t *,
                            int64_t, int64_t, int64_t, int32_t);

/* The plain panel loop of the portable and popcnt bodies. */
#define PANEL(NAME, ATTR)                                                    \\
    ATTR static int32_t NAME(const uint64_t *a, const uint64_t *b,           \\
                             int64_t *c, int64_t m, int64_t n, int64_t k,    \\
                             int32_t opcode) {                               \\
        for (int64_t i = 0; i < m; ++i) {                                    \\
            const uint64_t *ar = a + i * k;                                  \\
            int64_t *cr = c + i * n;                                         \\
            for (int64_t j = 0; j < n; ++j) {                                \\
                const uint64_t *br = b + j * k;                              \\
                int64_t acc = 0;                                             \\
                if (opcode == 0) {                                           \\
                    for (int64_t t = 0; t < k; ++t)                          \\
                        acc += POPC64(ar[t] & br[t]);                        \\
                } else if (opcode == 1) {                                    \\
                    for (int64_t t = 0; t < k; ++t)                          \\
                        acc += POPC64(ar[t] ^ br[t]);                        \\
                } else {                                                     \\
                    for (int64_t t = 0; t < k; ++t)                          \\
                        acc += POPC64(ar[t] & ~br[t]);                       \\
                }                                                            \\
                cr[j] = acc;                                                 \\
            }                                                                \\
        }                                                                    \\
        return 0;                                                            \\
    }

PANEL(panel_portable, )

#ifdef HAVE_X86_BODIES
PANEL(panel_popcnt, __attribute__((target("popcnt"))))
#endif

#ifdef HAVE_VPOPCNTDQ
/* The VPOPCNTDQ body: a register-tiled broadcast micro-kernel.

   One operand ("packed") is copied once per call into panels of LANES
   rows, word-major: word t of the panel's rows is one zmm vector.  The
   other operand ("streamed") is walked TILE_ROWS rows at a time; each
   of its words is broadcast against TILE_PANELS panel vectors, so a
   tile keeps TILE_ROWS * TILE_PANELS zmm accumulators of LANES counts
   each.  Panels are walked in blocks of about PANEL_BLOCK_BYTES so a
   block stays in L2 while every streamed row passes it.  Lanes past
   the packed operand's last row are never stored.  When A is the
   packed side, lanes are rows of C and streamed rows its columns, so C
   is written transposed.  The tile was picked by a sweep
   (docs/KERNELS.md). */
#define LANES 8
#define TILE_ROWS 4
#define TILE_PANELS 2
#define PANEL_BLOCK_BYTES (256 * 1024)
#define SMALL_SCRATCH_WORDS 1024

/* The op between a streamed word s and a panel word p.  A & ~B with B
   packed is s & p over negated panels; with A packed it is p & ~s. */
enum { OP_AND, OP_XOR, OP_PANEL_ANDNOT };

#define VPOPCNT_TARGET __attribute__((target("avx512f,avx512vpopcntdq")))
#define VPOPCNT_INLINE VPOPCNT_TARGET __attribute__((always_inline)) static inline

VPOPCNT_INLINE v8u vop(v8u s, v8u p, int op) {
    switch (op) {
    case OP_AND: return s & p;
    case OP_XOR: return s ^ p;
    default: return p & ~s;
    }
}

/* The edge and transposed stores of a tile: lanes [0, valid) of rows
   accumulators, each lane l of row r to c[r * row_step + l * lane_step].
   Out of line: inlined into every tile, these loops took most of the
   build time. */
__attribute__((noinline)) static void store_lanes(
    int64_t *c, int64_t row_step, int64_t lane_step,
    const int64_t (*lanes)[LANES], int64_t rows, int64_t valid) {
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t l = 0; l < valid; ++l)
            c[r * row_step + l * lane_step] = lanes[r][l];
}

/* One TILE_ROWS x panels tile; only its first `rows` streamed rows are
   stored.  s: the first streamed row (k words each); pk: the first
   panel (k * LANES words each); c: the tile's corner in C (n columns);
   lanes: packed rows from this panel on. */
VPOPCNT_INLINE void vtile(const uint64_t *s, const uint64_t *pk, int64_t k,
                          int64_t *c, int64_t n, int64_t lanes, int64_t rows,
                          int panels, int op, int transposed) {
    v8u acc[TILE_ROWS][TILE_PANELS];
    for (int r = 0; r < TILE_ROWS; ++r)
        for (int q = 0; q < panels; ++q) acc[r][q] = (v8u){0};
    for (int64_t t = 0; t < k; ++t) {
        v8u pw[TILE_PANELS];
        for (int q = 0; q < panels; ++q)
            pw[q] = *(const v8u *)(pk + (q * k + t) * LANES);
        for (int r = 0; r < TILE_ROWS; ++r) {
            const v8u sw = (v8u){0} + s[r * k + t];
            for (int q = 0; q < panels; ++q)
                acc[r][q] += VPOPCNTQ(vop(sw, pw[q], op));
        }
    }
    for (int q = 0; q < panels; ++q) {
        const int64_t valid = lanes - q * LANES < LANES ? lanes - q * LANES : LANES;
        if (!transposed && valid == LANES) {
            for (int64_t r = 0; r < rows; ++r)
                memcpy(c + r * n + q * LANES, &acc[r][q], sizeof(v8u));
            continue;
        }
        int64_t out[TILE_ROWS][LANES];
        for (int r = 0; r < TILE_ROWS; ++r) memcpy(out[r], &acc[r][q], sizeof(v8u));
        if (transposed)
            store_lanes(c + q * LANES * n, 1, n, out, rows, valid);
        else
            store_lanes(c + q * LANES, n, 1, out, rows, valid);
    }
}

/* Every tile of C for one op (a constant once inlined, so each of the
   three callers gets its own loop).  The last ns % TILE_ROWS streamed
   rows run as one full tile over tail, their copy padded with zero
   rows; only they are stored. */
VPOPCNT_INLINE void vdrive(const uint64_t *s, int64_t ns, const uint64_t *tail,
                           const uint64_t *pk, int64_t np, int64_t k,
                           int64_t *c, int64_t n, int op, int transposed) {
    const int64_t n_panels = (np + LANES - 1) / LANES;
    int64_t block = PANEL_BLOCK_BYTES / (k * LANES * (int64_t)sizeof(uint64_t));
    block -= block % TILE_PANELS;
    if (block < TILE_PANELS) block = TILE_PANELS;
    /* C offsets of one streamed row and one panel. */
    const int64_t row_step = transposed ? 1 : n;
    const int64_t panel_step = transposed ? LANES * n : LANES;
    for (int64_t p0 = 0; p0 < n_panels; p0 += block) {
        const int64_t p1 = p0 + block < n_panels ? p0 + block : n_panels;
        for (int64_t i = 0; i < ns; i += TILE_ROWS) {
            const int64_t rows = ns - i < TILE_ROWS ? ns - i : TILE_ROWS;
            const uint64_t *sp = rows == TILE_ROWS ? s + i * k : tail;
            for (int64_t p = p0; p < p1; p += TILE_PANELS) {
                const uint64_t *pp = pk + p * k * LANES;
                int64_t *cc = c + i * row_step + p * panel_step;
                const int64_t lanes = np - p * LANES;
                if (p1 - p >= TILE_PANELS)
                    vtile(sp, pp, k, cc, n, lanes, rows, TILE_PANELS, op, transposed);
                else /* the block's last panels, one at a time */
                    for (int64_t q = 0; q < p1 - p; ++q)
                        vtile(sp, pp + q * k * LANES, k, cc + q * panel_step, n,
                              lanes - q * LANES, rows, 1, op, transposed);
            }
        }
    }
}

VPOPCNT_TARGET static int32_t panel_vpopcntdq(const uint64_t *a,
                                              const uint64_t *b, int64_t *c,
                                              int64_t m, int64_t n, int64_t k,
                                              int32_t opcode) {
    if (m == 0 || n == 0) return 0;
    if (k == 0) {
        memset(c, 0, (size_t)m * (size_t)n * sizeof(int64_t));
        return 0;
    }
    /* A is packed only when it is the smaller side and fits one panel:
       C is then written transposed, and those stores lose to streaming
       A once C has more rows (docs/KERNELS.md). */
    const int packed_a = m < n && m <= LANES;
    const uint64_t *p = packed_a ? a : b;
    const uint64_t *s = packed_a ? b : a;
    const int64_t np = packed_a ? m : n;
    const int64_t ns = packed_a ? n : m;
    const int op = opcode == 0 ? OP_AND
                 : opcode == 1 ? OP_XOR
                 : packed_a    ? OP_PANEL_ANDNOT
                               : OP_AND;
    const uint64_t flip = opcode == 2 && !packed_a ? ~(uint64_t)0 : 0;
    const int64_t n_panels = (np + LANES - 1) / LANES;
    const int64_t words = (n_panels * LANES + TILE_ROWS) * k;
    /* Small scratch (an identity query batch) skips the allocator. */
    uint64_t small[SMALL_SCRATCH_WORDS] __attribute__((aligned(64)));
    uint64_t *pk = words <= SMALL_SCRATCH_WORDS
                       ? small
                       : (uint64_t *)aligned_alloc(64, (size_t)words * sizeof(uint64_t));
    if (pk == NULL) return -1;
    for (int64_t q = 0; q < n_panels; ++q)
        for (int64_t l = 0; l < LANES; ++l) {
            const int64_t row = q * LANES + l;
            uint64_t *dst = pk + q * k * LANES + l;
            for (int64_t t = 0; t < k; ++t)
                dst[t * LANES] = row < np ? p[row * k + t] ^ flip : 0;
        }
    uint64_t *tail = pk + n_panels * LANES * k;
    const int64_t full = ns - ns % TILE_ROWS;
    if (full < ns) {
        memset(tail, 0, TILE_ROWS * (size_t)k * sizeof(uint64_t));
        memcpy(tail, s + full * k, (size_t)(ns - full) * (size_t)k * sizeof(uint64_t));
    }
    switch (op) {
    case OP_AND: vdrive(s, ns, tail, pk, np, k, c, n, OP_AND, packed_a); break;
    case OP_XOR: vdrive(s, ns, tail, pk, np, k, c, n, OP_XOR, packed_a); break;
    default: vdrive(s, ns, tail, pk, np, k, c, n, OP_PANEL_ANDNOT, packed_a); break;
    }
    if (pk != small) free(pk);
    return 0;
}
#endif

#ifdef HAVE_X86_BODIES
static int32_t body_runs(int32_t body) {
    __builtin_cpu_init();
    switch (body) {
    case 1: return __builtin_cpu_supports("popcnt") != 0;
    case 2: return __builtin_cpu_supports("avx512vpopcntdq") != 0;
    default: return 1;
    }
}
#else
static int32_t body_runs(int32_t body) { return body == 0; }
#endif

static const panel_fn BODIES[] = {
    panel_portable,
#ifdef HAVE_X86_BODIES
    panel_popcnt,
#endif
#ifdef HAVE_VPOPCNTDQ
    panel_vpopcntdq,
#endif
};
static const char *const BODY_NAMES[] = {
    "portable",
#ifdef HAVE_X86_BODIES
    "popcnt",
#endif
#ifdef HAVE_VPOPCNTDQ
    "avx512-vpopcntdq",
#endif
};

/* Bodies in order of capability; the caller picks the last that runs. */
int32_t repro_body_count(void) {
    return (int32_t)(sizeof(BODIES) / sizeof(BODIES[0]));
}

const char *repro_body_name(int32_t body) { return BODY_NAMES[body]; }

int32_t repro_body_runs(int32_t body) { return body_runs(body); }

int32_t repro_bit_gemm_panel(int32_t body, const uint64_t *a,
                             const uint64_t *b, int64_t *c, int64_t m,
                             int64_t n, int64_t k, int32_t opcode) {
    return BODIES[body](a, b, c, m, n, k, opcode);
}

/* -- The windowed LD band of repro.core.ldops ----------------------------

   r2_hit is ldops.r2_exceeds on one pair: the joint count c_ab and the
   allele counts c_a, c_b over n observations, (n c_ab - c_a c_b)^2
   against threshold * c_a (n - c_a) c_b (n - c_b), strict (>) or
   inclusive (>=), false where that denominator is 0.  Up to
   INT64_EXACT_MAX_OBS the numerator and the denominator are exact int64
   values below 2^53 and the comparison is r2_exceeds_array's float64
   one.  Above it they are exact __int128 values (at most n^4 / 16, below
   2^121 up to LD_MAX_OBS), the bound is the double product Python forms
   (the correctly rounded double of the denominator times threshold),
   and the numerator is compared with it exactly, as Python compares an
   int with a float. */
#define INT64_EXACT_MAX_OBS 19000
#ifdef __SIZEOF_INT128__
#define LD_MAX_OBS ((int64_t)1 << 31)
#else
#define LD_MAX_OBS ((int64_t)INT64_EXACT_MAX_OBS)
#endif

#if defined(__GNUC__) || defined(__clang__)
#define LD_INLINE static inline __attribute__((always_inline))
#else
#define LD_INLINE static inline
#endif

LD_INLINE int r2_hit(int64_t c_ab, int64_t c_a, int64_t c_b, int64_t n,
                     double threshold, int strict) {
    if (n <= INT64_EXACT_MAX_OBS) {
        const int64_t root = n * c_ab - c_a * c_b;
        const int64_t den = c_a * (n - c_a) * c_b * (n - c_b);
        if (den == 0) return 0;
        const double num = (double)(root * root);
        const double bound = threshold * (double)den;
        return strict ? num > bound : num >= bound;
    }
#ifdef __SIZEOF_INT128__
    {
        const __int128 root = (__int128)n * c_ab - (__int128)c_a * c_b;
        const __int128 den = (__int128)(c_a * (n - c_a)) * (c_b * (n - c_b));
        if (den == 0) return 0;
        const __int128 num = root * root;
        const double bound = threshold * (double)den;
        /* 0 <= bound < 2^121: its integer part converts exactly.  An
           integer exceeds bound iff it exceeds that part, and meets it
           also when it equals an integral bound. */
        const __int128 whole = (__int128)bound;
        return num > whole || (!strict && num == whole && (double)whole == bound);
    }
#else
    return 0; /* callers stop at repro_ld_max_obs() */
#endif
}

/* The joint popcount of two stack rows of k words. */
LD_INLINE int64_t joint_count(const uint64_t *x, const uint64_t *y, int64_t k) {
    int64_t acc = 0;
    for (int64_t t = 0; t < k; ++t) acc += POPC64(x[t] & y[t]);
    return acc;
}

/* LDPruner's greedy scan of one stack in one pass.  Stack rows [0,
   buffered) are kept rows of earlier chunks, rows [buffered, s) the
   chunk's sites; site[] is each row's global index (ascending) and
   count[] its allele count.  Each chunk row walks the kept rows inside
   its window oldest first (queue[head, tail)), counts each joint
   popcount on demand, and stops at the first pair whose r^2 exceeds the
   threshold.  Writes keep[] per stack row, blocker[] per chunk row (the
   blocking site, or -1) and the largest window of kept sites; returns
   the pairs tested. */
LD_INLINE int64_t prune_scan(const uint64_t *rows, int64_t s, int64_t k,
                             const int64_t *site, const int64_t *count,
                             int64_t buffered, int64_t window, int64_t n,
                             double threshold, int64_t *queue, uint8_t *keep,
                             int64_t *blocker, int64_t *peak) {
    int64_t head = 0, tail = 0, tested = 0, top = 0;
    for (int64_t p = 0; p < buffered; ++p) {
        keep[p] = 1;
        queue[tail++] = p;
    }
    for (int64_t q = buffered; q < s; ++q) {
        const int64_t g = site[q];
        const uint64_t *row = rows + q * k;
        while (head < tail && site[queue[head]] <= g - window) ++head;
        int64_t by = -1;
        for (int64_t j = head; j < tail; ++j) {
            const int64_t p = queue[j];
            ++tested;
            if (r2_hit(joint_count(row, rows + p * k, k), count[p], count[q], n,
                       threshold, 1)) {
                by = site[p];
                break;
            }
        }
        blocker[q - buffered] = by;
        keep[q] = by < 0;
        if (by < 0) queue[tail++] = q;
        if (tail - head > top) top = tail - head;
    }
    *peak = top;
    return tested;
}

/* The decided band of stack rows [start, s): hits[(q - start) * width +
   d - 1] is whether the pair (q, q - d) passes the r^2 test, 0 where q <
   d -- the cells repro.blis.gemm.bit_gemm_band counts. */
LD_INLINE void band_hits(const uint64_t *rows, int64_t s, int64_t k,
                         const int64_t *count, int64_t start, int64_t width,
                         int64_t n, double threshold, int32_t strict,
                         uint8_t *hits) {
    for (int64_t q = start; q < s; ++q) {
        const uint64_t *row = rows + q * k;
        uint8_t *h = hits + (q - start) * width;
        for (int64_t d = 1; d <= width; ++d)
            h[d - 1] = d <= q && r2_hit(joint_count(row, rows + (q - d) * k, k),
                                        count[q - d], count[q], n, threshold,
                                        strict);
    }
}

typedef int64_t (*prune_fn)(const uint64_t *, int64_t, int64_t, const int64_t *,
                            const int64_t *, int64_t, int64_t, int64_t, double,
                            int64_t *, uint8_t *, int64_t *, int64_t *);
typedef void (*hits_fn)(const uint64_t *, int64_t, int64_t, const int64_t *,
                        int64_t, int64_t, int64_t, double, int32_t, uint8_t *);

/* The two band entries of one body: the scalar loops above, inlined
   into the body's target so its popcount instruction counts the pairs. */
#define LD_BAND(NAME, ATTR)                                                  \\
    ATTR static int64_t prune_##NAME(                                        \\
        const uint64_t *rows, int64_t s, int64_t k, const int64_t *site,     \\
        const int64_t *count, int64_t buffered, int64_t window, int64_t n,   \\
        double threshold, int64_t *queue, uint8_t *keep, int64_t *blocker,   \\
        int64_t *peak) {                                                     \\
        return prune_scan(rows, s, k, site, count, buffered, window, n,      \\
                          threshold, queue, keep, blocker, peak);            \\
    }                                                                        \\
    ATTR static void hits_##NAME(                                            \\
        const uint64_t *rows, int64_t s, int64_t k, const int64_t *count,    \\
        int64_t start, int64_t width, int64_t n, double threshold,           \\
        int32_t strict, uint8_t *hits) {                                     \\
        band_hits(rows, s, k, count, start, width, n, threshold, strict,     \\
                  hits);                                                     \\
    }

LD_BAND(portable, )
#ifdef HAVE_X86_BODIES
LD_BAND(popcnt, __attribute__((target("popcnt"))))
#endif
#ifdef HAVE_VPOPCNTDQ
LD_BAND(vpopcntdq, __attribute__((target("popcnt,avx512f,avx512vpopcntdq"))))
#endif

static const prune_fn PRUNE_SCANS[] = {
    prune_portable,
#ifdef HAVE_X86_BODIES
    prune_popcnt,
#endif
#ifdef HAVE_VPOPCNTDQ
    prune_vpopcntdq,
#endif
};
static const hits_fn BAND_HITS[] = {
    hits_portable,
#ifdef HAVE_X86_BODIES
    hits_popcnt,
#endif
#ifdef HAVE_VPOPCNTDQ
    hits_vpopcntdq,
#endif
};

int64_t repro_ld_max_obs(void) { return LD_MAX_OBS; }

int64_t repro_ld_prune_scan(int32_t body, const uint64_t *rows, int64_t s,
                            int64_t k, const int64_t *site,
                            const int64_t *count, int64_t buffered,
                            int64_t window, int64_t n, double threshold,
                            int64_t *queue, uint8_t *keep, int64_t *blocker,
                            int64_t *peak) {
    return PRUNE_SCANS[body](rows, s, k, site, count, buffered, window, n,
                             threshold, queue, keep, blocker, peak);
}

void repro_ld_band_hits(int32_t body, const uint64_t *rows, int64_t s,
                        int64_t k, const int64_t *count, int64_t start,
                        int64_t width, int64_t n, double threshold,
                        int32_t strict, uint8_t *hits) {
    BAND_HITS[body](rows, s, k, count, start, width, n, threshold, strict, hits);
}

/* LDResult.r_squared over a rows x cols count table: NumPy's
   ((c / n_obs - p_i * p_j) ** 2) / (var_i * var_j), 0 unless the
   denominator is > 0, with the same operations in the same order
   (built with -ffp-contract=off, so no FMA fuses them).  c / n_obs is
   read from quotient[c] when 0 <= c < n_quotients: the same division,
   done once per count value. */
void repro_r_squared(const int64_t *counts, const double *p,
                     const double *var, double *out, int64_t rows,
                     int64_t cols, double n_obs, const double *quotient,
                     int64_t n_quotients) {
    for (int64_t i = 0; i < rows; ++i) {
        const int64_t *cr = counts + i * cols;
        double *o = out + i * cols;
        const double pi = p[i], vi = var[i];
        for (int64_t j = 0; j < cols; ++j) {
            const int64_t cij = cr[j];
            const double x = (uint64_t)cij < (uint64_t)n_quotients
                                 ? quotient[cij]
                                 : (double)cij / n_obs;
            const double d = x - pi * p[j];
            const double denom = vi * var[j];
            o[j] = denom > 0 ? d * d / denom : 0.0;
        }
    }
}
"""


def _find_compiler() -> str | None:
    """``$CC`` if set, else the first of cc/gcc/clang on PATH."""
    cc = os.environ.get("CC")
    if cc:
        return cc if os.path.sep in cc else shutil.which(cc)
    for candidate in _COMPILERS:
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _cache_dir() -> Path:
    override = os.environ.get(KERNEL_CACHE_ENV)
    if override:
        return Path(override).expanduser()
    return repro_cache_dir() / "kernels"


def _library_path(cc: str) -> Path:
    """Where the library ``cc`` builds from :data:`_SOURCE` is cached."""
    key = "\x00".join((_SOURCE, cc, " ".join(_CFLAGS), platform.machine()))
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _cache_dir() / f"bitgemm-{tag}.so"


def _kill_group(proc: subprocess.Popen[str]) -> None:
    """Kill the compiler and every process it started (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass  # already exited


class CNativeBackend(KernelBackend):
    """ctypes-loaded C implementation of the kernel ABI."""

    name = "cnative"

    def __init__(self) -> None:
        # Compile and load run one at a time under _build_lock, which a
        # build holds for its whole duration; _state_lock guards only
        # short updates, so "auto" never waits on a compiler.
        self._build_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._lib: ctypes.CDLL | None = None
        # Runnable body name -> index in the C table, least capable first.
        self._bodies: dict[str, int] = {}
        self._cc: str | None = None
        self._error: str | None = None
        self._cache_looked = False
        self._fallback_ops = 0
        self._builder: threading.Thread | None = None
        # The build in flight: (compiler process or None, its temp dir).
        self._running: tuple[subprocess.Popen[str] | None, Path] | None = None
        self._atexit_registered = False

    # -- build and load ----------------------------------------------------------

    def _ensure(self) -> ctypes.CDLL | None:
        """Compile (unless cached) and load once; failures latch."""
        if self._lib is not None:
            return self._lib
        with self._build_lock:
            if self._lib is None and self._error is None:
                self._load(compile_missing=True)
            return self._lib

    def _load(self, compile_missing: bool) -> None:
        """Load the cached library, compiling it first if allowed.

        The caller holds ``_build_lock``.  A cold cache without
        ``compile_missing`` leaves the backend unloaded and unfailed.
        """
        cc = _find_compiler()
        if cc is None:
            self._error = "no C compiler found ($CC, cc, gcc, clang)"
            return
        self._cc = cc
        path = _library_path(cc)
        try:
            if not path.exists():
                if not compile_missing:
                    return
                self._compile(cc, path)
            lib = ctypes.CDLL(str(path))
        except (ConfigurationError, OSError, subprocess.SubprocessError) as exc:
            self._error = str(exc)
            return
        lib.repro_body_count.argtypes = []
        lib.repro_body_count.restype = ctypes.c_int32
        lib.repro_body_name.argtypes = [ctypes.c_int32]
        lib.repro_body_name.restype = ctypes.c_char_p
        lib.repro_body_runs.argtypes = [ctypes.c_int32]
        lib.repro_body_runs.restype = ctypes.c_int32
        lib.repro_bit_gemm_panel.argtypes = [
            ctypes.c_int32,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int32,
        ]
        lib.repro_bit_gemm_panel.restype = ctypes.c_int32
        lib.repro_r_squared.argtypes = [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_double,
            ctypes.c_void_p,
            ctypes.c_int64,
        ]
        lib.repro_r_squared.restype = None
        lib.repro_ld_max_obs.argtypes = []
        lib.repro_ld_max_obs.restype = ctypes.c_int64
        lib.repro_ld_prune_scan.argtypes = [
            ctypes.c_int32,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_double,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        lib.repro_ld_prune_scan.restype = ctypes.c_int64
        lib.repro_ld_band_hits.argtypes = [
            ctypes.c_int32,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_double,
            ctypes.c_int32,
            ctypes.c_void_p,
        ]
        lib.repro_ld_band_hits.restype = None
        self._bodies = {
            lib.repro_body_name(i).decode(): i
            for i in range(lib.repro_body_count())
            if lib.repro_body_runs(i)
        }
        self._lib = lib

    def _compile(self, cc: str, target: Path) -> None:
        """Build the library into ``target`` (atomic, idempotent).

        The compiler writes into a private temp directory beside the
        cache entry, and only a finished library is renamed into place,
        so concurrent builders race benignly through ``os.replace``.
        The compiler runs in its own session: an interpreter exit
        mid-build kills it and removes the temp directory
        (:meth:`_abandon_build`) instead of waiting for it.
        """
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="build-", dir=target.parent))
        with self._state_lock:
            self._running = (None, tmp)
            if not self._atexit_registered:
                self._atexit_registered = True
                atexit.register(self._abandon_build)
        try:
            src = tmp / "bitgemm.c"
            obj = tmp / "bitgemm.so"
            src.write_text(_SOURCE)
            proc = subprocess.Popen(
                [cc, *_CFLAGS, "-o", str(obj), str(src)],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
            with self._state_lock:
                self._running = (proc, tmp)
            try:
                _, stderr = proc.communicate(timeout=_BUILD_TIMEOUT_S)
            except BaseException:
                _kill_group(proc)
                proc.wait()
                raise
            if proc.returncode != 0:
                raise ConfigurationError(
                    f"cnative: {cc} failed ({proc.returncode}): "
                    f"{stderr.strip()[:500]}"
                )
            os.replace(obj, target)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            with self._state_lock:
                self._running = None

    def _abandon_build(self) -> None:
        """At interpreter exit: kill a build in flight, drop its temp dir.

        Only a finished library is ever renamed into the cache, so the
        cache keeps either a complete library or none.
        """
        with self._state_lock:
            running = self._running
        if running is not None:
            proc, tmp = running
            if proc is not None:
                _kill_group(proc)
            shutil.rmtree(tmp, ignore_errors=True)

    # -- the "auto" decision -------------------------------------------------------

    @property
    def body(self) -> str | None:
        """The body panel calls run (``None`` until the library loads)."""
        return next(reversed(self._bodies), None)

    def auto_ready(self, total_ops: int) -> bool:
        """Whether ``"auto"`` runs a ``total_ops`` GEMM here.

        Never compiles on the caller's thread.  The first call loads a
        library already in the cache.  While the cache is cold, each
        call adds ``total_ops`` to the fallback's running count; the
        call that brings it to :data:`COMPILE_TRIGGER_OPS` starts the
        one background build.
        """
        if self._lib is None and self._error is None and not self._cache_looked:
            # Skipped while a build holds the lock; that build loads.
            if self._build_lock.acquire(blocking=False):
                try:
                    if self._lib is None and self._error is None:
                        self._load(compile_missing=False)
                    self._cache_looked = True
                finally:
                    self._build_lock.release()
        if self._lib is not None:
            return self.body in HARDWARE_BODIES
        if self._error is not None:
            return False
        with self._state_lock:
            if self._builder is not None:
                return False
            self._fallback_ops += total_ops
            if self._fallback_ops < COMPILE_TRIGGER_OPS:
                return False
            builder = self._builder = threading.Thread(
                target=self._ensure, name="repro-cnative-build", daemon=True
            )
        builder.start()
        return False

    # -- descriptor --------------------------------------------------------------

    @property
    def info(self) -> BackendInfo:
        lib = self._ensure()
        available = lib is not None
        version = f"cc-{os.path.basename(self._cc) if self._cc else 'none'}"
        if self.body is not None:
            version += f"/{self.body}"
        return BackendInfo(
            name=self.name,
            kind="native",
            version=version,
            available=available,
            compiled=available,
            description=(
                "C popcount bit-GEMM compiled with the host toolchain; "
                "the body (portable, popcnt, AVX-512 VPOPCNTDQ) is "
                "picked at load (ctypes, GIL-releasing)"
            ),
            unavailable_reason=self._error,
        )

    # -- ABI -------------------------------------------------------------------

    def bodies(self) -> tuple[str, ...]:
        """Bodies this host runs, least capable first (loads the library)."""
        self._ensure()
        return tuple(self._bodies)

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        self._ensure()
        return self.body_panel(self.body or "", a, b, op)

    def body_panel(
        self,
        body: str,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        """:meth:`bit_gemm_panel` on one named body from :meth:`bodies`.

        The conformance tests race every body this host runs against
        the reference this way.
        """
        a, b, op = check_panel_operands(a, b, op)
        lib = self._ensure()
        if lib is None:
            raise ConfigurationError(
                f"cnative backend unavailable: {self._error}"
            )
        if body not in self._bodies:
            raise ConfigurationError(
                f"cnative: body {body!r} does not run on this host "
                f"(runs: {', '.join(self._bodies)})"
            )
        m, n = a.shape[0], b.shape[0]
        out = np.zeros((m, n), dtype=np.int64)
        if m == 0 or n == 0 or a.shape[1] == 0:
            return out
        ca = canonicalize_words(a)
        cb = canonicalize_words(b)
        status = lib.repro_bit_gemm_panel(
            self._bodies[body],
            ca.ctypes.data,
            cb.ctypes.data,
            out.ctypes.data,
            m,
            n,
            ca.shape[1],
            OPCODES[op],
        )
        if status != 0:
            raise MemoryError(
                f"cnative: {body} body could not allocate its panel scratch"
            )
        return out

    def r_squared(
        self, counts: np.ndarray, frequencies: object, n_obs: object
    ) -> np.ndarray | None:
        """:attr:`~repro.core.ld.LDResult.r_squared` in one C pass, or ``None``.

        Runs only once the library has loaded -- it never compiles --
        and only on what the C loop reads: a square C-contiguous int64
        table, one float64 frequency per row and an integer
        ``n_obs``.  The loop does NumPy's operations in NumPy's order
        (``-ffp-contract=off`` keeps FMA from fusing any), so the
        result is bit-identical to the NumPy code.  ``c / n_obs`` comes
        from a table of every quotient in ``[0, n_obs]`` when that
        table is smaller than the output; other counts, as in a
        user-built result, are divided.
        """
        lib = self._lib
        if (
            lib is None
            or not isinstance(frequencies, np.ndarray)
            or frequencies.dtype != np.float64
            or frequencies.ndim != 1
            or counts.dtype != np.int64
            or not counts.flags.c_contiguous
            or counts.shape != (frequencies.size, frequencies.size)
            or not isinstance(n_obs, (int, np.integer))
        ):
            return None
        p = np.ascontiguousarray(frequencies)
        var = p * (1 - p)
        out = np.empty(counts.shape, dtype=np.float64)
        quotient = (
            np.arange(n_obs + 1) / n_obs
            if 0 < n_obs < counts.size
            else np.empty(0, dtype=np.float64)
        )
        lib.repro_r_squared(
            counts.ctypes.data,
            p.ctypes.data,
            var.ctypes.data,
            out.ctypes.data,
            counts.shape[0],
            counts.shape[1],
            float(n_obs),
            quotient.ctypes.data,
            quotient.size,
        )
        return out

    # -- the windowed LD band ------------------------------------------------------

    @property
    def ld_max_obs(self) -> int:
        """Largest observation count the band's r^2 test decides exactly.

        2^31 where the compiler has ``__int128``, else the int64 bound of
        :data:`repro.core.ldops.INT64_EXACT_MAX_OBS`; 0 until the
        library loads.
        """
        lib = self._lib
        return int(lib.repro_ld_max_obs()) if lib is not None else 0

    def _band_operands(
        self,
        name: str,
        rows: np.ndarray,
        counts: np.ndarray,
        n_obs: int,
        threshold: float,
    ) -> tuple[ctypes.CDLL, int, np.ndarray, np.ndarray]:
        """The library, body index, uint64 rows and int64 counts of one
        band call, after checking what the C loops rely on."""
        lib = self._ensure()
        if lib is None:
            raise ConfigurationError(f"cnative backend unavailable: {self._error}")
        words = canonicalize_words(rows)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if not 1 <= n_obs <= self.ld_max_obs:
            raise ConfigurationError(
                f"cnative.{name}: {n_obs} observations; the exact r^2 test "
                f"covers 1..{self.ld_max_obs}"
            )
        if counts.shape != (words.shape[0],):
            raise PackingError(
                f"cnative.{name}: {counts.shape} counts for {words.shape[0]} rows"
            )
        # Joint counts then stay below n_obs + 64, which keeps every
        # product of the C test inside its integer type.
        if words.shape[1] != -(-n_obs // 64):
            raise PackingError(
                f"cnative.{name}: {n_obs} observations need "
                f"{-(-n_obs // 64)} uint64 words per row, got {words.shape[1]}"
            )
        if counts.size and not 0 <= counts.min() <= counts.max() <= n_obs:
            raise PackingError(
                f"cnative.{name}: allele counts must lie in [0, {n_obs}]"
            )
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError(
                f"cnative.{name}: threshold must be in [0, 1], got {threshold}"
            )
        return lib, self._bodies[self.body or ""], words, counts

    def prune_scan(
        self,
        rows: np.ndarray,
        sites: np.ndarray,
        counts: np.ndarray,
        buffered: int,
        window: int,
        n_obs: int,
        threshold: float,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """:class:`~repro.core.ldops.LDPruner`'s greedy scan of one stack.

        ``rows`` are the stack's packed rows: ``buffered`` kept rows of
        earlier chunks, then the chunk's sites.  ``sites`` holds each
        row's global index (ascending) and ``counts`` its allele count.
        One C pass walks each chunk row against the kept rows within
        ``window`` sites, oldest first, counting each joint popcount on
        demand, and stops at the first pair whose r^2 exceeds
        ``threshold`` (decided as
        :func:`~repro.core.ldops.r2_exceeds` decides it).  Returns the
        keep mask per stack row, the blocking site per chunk row (-1
        where kept), the pairs tested and the largest number of kept
        sites in one window.
        """
        lib, body, words, counts = self._band_operands(
            "prune_scan", rows, counts, n_obs, threshold
        )
        s = words.shape[0]
        sites = np.ascontiguousarray(sites, dtype=np.int64)
        if sites.shape != (s,) or not 0 <= buffered <= s or window < 1:
            raise PackingError(
                f"cnative.prune_scan: {sites.shape} sites, {buffered} "
                f"buffered rows and window {window} for {s} rows"
            )
        keep = np.empty(s, dtype=bool)
        blocker = np.empty(s - buffered, dtype=np.int64)
        queue = np.empty(s, dtype=np.int64)
        peak = ctypes.c_int64(0)
        tested = lib.repro_ld_prune_scan(
            body,
            words.ctypes.data,
            s,
            words.shape[1],
            sites.ctypes.data,
            counts.ctypes.data,
            buffered,
            # Wider than any site distance: the C loop keeps int64.
            min(window, 1 << 62),
            n_obs,
            threshold,
            queue.ctypes.data,
            keep.ctypes.data,
            blocker.ctypes.data,
            ctypes.byref(peak),
        )
        return keep, blocker, int(tested), int(peak.value)

    def band_hits(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        start: int,
        width: int,
        n_obs: int,
        threshold: float,
        strict: bool,
    ) -> np.ndarray:
        """The decided window band of ``rows[start:]``, in one C pass.

        ``hits[q - start, d - 1]`` is whether stack rows ``q`` and
        ``q - d`` pass the r^2 test (``>`` when ``strict``, else ``>=``;
        decided as :func:`~repro.core.ldops.r2_exceeds` decides it), and
        False where ``q < d``: the cells
        :func:`~repro.blis.gemm.bit_gemm_band` counts, with the answers
        :func:`~repro.core.ldops.r2_exceeds_array` gives on them.
        """
        lib, body, words, counts = self._band_operands(
            "band_hits", rows, counts, n_obs, threshold
        )
        s = words.shape[0]
        if not 0 <= start <= s or width < 0:
            raise PackingError(
                f"cnative.band_hits: start {start} and width {width} for {s} rows"
            )
        hits = np.empty((s - start, width), dtype=bool)
        lib.repro_ld_band_hits(
            body,
            words.ctypes.data,
            s,
            words.shape[1],
            counts.ctypes.data,
            start,
            width,
            n_obs,
            threshold,
            int(strict),
            hits.ctypes.data,
        )
        return hits
