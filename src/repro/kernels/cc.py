"""Fused gather-potential-scatter kernel compiled with the system C compiler.

The batched NumPy RHS is memory-bound at large N: every evaluation
streams several ``(R, E)`` scratch arrays (two gathers, the difference,
the potential values, the flattened ``bincount`` weights) through the
cache hierarchy.  This module compiles a C kernel that walks the edge
list once per member in cache-resident blocks:

1. **gather** — ``d[e] = theta[cols[e]] - theta[rows[e]]`` for one block,
2. **potential** — the coefficient family evaluated in a flat pass that
   GCC auto-vectorises against ``libmvec`` (AVX2/AVX-512 ``tanh``/``sin``
   on glibc >= 2.35),
3. **scatter** — per-row accumulation in the same row-major edge order as
   the NumPy ``bincount`` path, so results agree to the last few ulps
   (the only differences come from the SIMD transcendentals).

The shared library is built on first use with the system ``cc`` (honouring
``$CC``) into a content-addressed cache directory under the user's temp
dir, then loaded via :mod:`ctypes` — no build-time dependency, no
third-party package.  When no working compiler is available the module
reports unavailability and the ``"auto"`` kernel resolution falls back to
the tiled/NumPy paths.

Thread parallelism
------------------
Every kernel takes a trailing ``threads`` argument.  With ``threads > 1``
and an OpenMP-capable compiler the work is split over **disjoint output
rows** (edge spans are row-aligned via binary search on the sorted row
array; ring/torus element ranges are contiguous), so no two threads ever
write the same accumulator and no atomics are needed.  Because each
row's contributions are accumulated in exactly the serial order, results
are **bit-identical for any thread count** — the parallel path is a pure
wall-clock knob, never a numerics knob.  When OpenMP is unavailable the
kernels quietly run serial (``openmp_available()`` reports which).

Topology specialisations (detected from the edge list, never from
builder metadata): distance rings (:func:`ring_offsets`) and 2-D tori
(:func:`torus_halo`, whole-lattice offsets plus within-row offsets)
replace the gather/scatter with unit-stride shifted gathers.  Both run
in tiles of contiguous elements: each tile gathers every offset's
differences into one scratch block, evaluates them with one
``potential_block`` call, and accumulates offset by offset — so a
paper-scale ring (N = 24-32) pays one 64-padded call per member, not
one per shifted segment.  Both are row-partitionable.

Fixed-step stepper
------------------
A second translation unit (:data:`_STEPPER_SOURCE`) advances a bound
``(R, N)`` stack ``K`` rk4 or euler steps per ctypes call
(:class:`FixedStepper`): the intrinsic frequency per noise window, the
coupling through the entry points above, and the stage combinations in
NumPy's exact operation order.  It is compiled without ``-ffast-math``
and with ``-ffp-contract=off`` (no FMA contraction), so its arithmetic
is the IEEE arithmetic of the NumPy loop it replaces, bit for bit.

Order-parameter fold
--------------------
:func:`order_parameter` computes the Kuramoto ``r`` of every row of a
``(..., N)`` stack for the streaming observer: ``pom_order_sums`` (the
exact unit) walks the stack in blocks of :data:`FOLD_BLOCK` phases,
evaluates each block's cos and sin with one ``pom_trig_block`` call
(the kernel unit, vectorised against libmvec under
``potential_block``'s contract: padded, noinline, aligned scratch), and
sums them in IEEE order into eight lane sums per row, phase ``j`` of a
row into lane ``j % 8``.  So a row's ``r`` is a pure function of its
``N`` phases — not of the stack's shape, where the blocks cut the row,
the buffer's alignment or the calling thread — which is what keeps
streamed, post-hoc and sharded metrics bit-identical.  It agrees with NumPy's
``abs(mean(exp(1j * y)))`` to about 1e-16, and a NaN or infinite phase
gives NaN, as it does there.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np

__all__ = [
    "cc_available",
    "openmp_available",
    "load_library",
    "ring_offsets",
    "torus_halo",
    "fused_single",
    "fused_batched",
    "ring_single",
    "ring_batched",
    "torus_single",
    "torus_batched",
    "order_parameter",
    "FixedStepper",
    "STEPPER_METHODS",
]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#ifdef _OPENMP
#include <omp.h>
#endif

/* Potential kinds: keep in sync with repro/kernels/coeffs.py. */
enum { KIND_TANH = 0, KIND_BOTTLENECK = 1, KIND_KURAMOTO = 2, KIND_LINEAR = 3 };

/* Whether this binary was compiled with OpenMP (the flag-set fallback
 * chain may have landed on a serial build). */
int64_t pom_openmp_available(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* Evaluate one coefficient family on a block of phase differences.
 * Each case is a flat loop over the block so the compiler can
 * auto-vectorise the transcendental against libmvec.
 *
 * Determinism contract: with -ffast-math the *vectorised* libmvec
 * tanh/sin differ from the scalar libm ones by ulps, so an element's
 * value would depend on whether it lands in a SIMD body or a scalar
 * epilogue — i.e. on the loop trip count, which thread chunking and
 * tiling change.  Three measures make the evaluation a pure function
 * of the element value: (1) each call's block (an edge block, or one
 * ring/torus tile holding every offset's differences) is padded once
 * up to a PAD_BLOCK multiple (padding lanes read/write scratch only),
 * so no scalar epilogue ever executes for a real element; (2) the
 * function is noinline, so every call site — serial or parallel,
 * single or batched — runs the same machine code; (3) the scratch is
 * 64-byte aligned (cc._aligned_empty), so alignment peeling is the
 * same on every call.  This is what makes threads=K and any tile
 * length bit-identical to threads=1.  Callers pass blocks that are
 * PAD_BLOCK multiples, so the padding stays inside each thread's
 * scratch. */
#define PAD_BLOCK 64
#if defined(__GNUC__)
__attribute__((noinline))
#endif
static void potential_block(int64_t kind, double p0, double p1,
                            double *d, double *v, int64_t m) {
    int64_t e;
    int64_t mp = (m + (PAD_BLOCK - 1)) & ~(int64_t)(PAD_BLOCK - 1);
    for (e = m; e < mp; ++e)
        d[e] = 0.0;
    switch (kind) {
    case KIND_TANH:
        for (e = 0; e < mp; ++e)
            v[e] = tanh(p0 * d[e]);
        break;
    case KIND_BOTTLENECK:
        /* -sin inside the horizon |d| < sigma (=p0), sign(d) outside;
         * the sin pass runs on the whole block (vectorisable), then the
         * outside lanes are overwritten. */
        for (e = 0; e < mp; ++e)
            v[e] = -sin(p1 * d[e]);
        for (e = 0; e < m; ++e)
            if (!(fabs(d[e]) < p0))
                v[e] = (double)((d[e] > 0.0) - (d[e] < 0.0));
        break;
    case KIND_KURAMOTO:
        for (e = 0; e < mp; ++e)
            v[e] = sin(d[e]);
        break;
    default: /* KIND_LINEAR */
        for (e = 0; e < mp; ++e)
            v[e] = p0 * d[e];
        break;
    }
}

/* cos and sin of m phases for the order-parameter fold (pom_order_sums
 * in the exact unit), under potential_block's determinism contract:
 * padded once to a PAD_BLOCK multiple, noinline, and called on 64-byte
 * aligned scratch, so each value is a pure function of its phase. */
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void pom_trig_block(double *x, double *c, double *s, int64_t m) {
    int64_t e;
    int64_t mp = (m + (PAD_BLOCK - 1)) & ~(int64_t)(PAD_BLOCK - 1);
    for (e = m; e < mp; ++e)
        x[e] = 0.0;
    for (e = 0; e < mp; ++e) {
        c[e] = cos(x[e]);
        s[e] = sin(x[e]);
    }
}

/* First edge index whose row is >= value (rows are sorted row-major,
 * guaranteed by Topology.from_edge_arrays).  Row-aligned edge spans are
 * what make the parallel scatter race-free without atomics. */
static int64_t row_lower_bound(const int32_t *rows, int64_t n_edges,
                               int64_t value) {
    int64_t lo = 0, hi = n_edges;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if ((int64_t)rows[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Fused coupling restricted to output rows [r0, r1): zero, accumulate
 * the row-aligned edge span in row-major order, scale.  The full-range
 * call (0, n) is arithmetically identical to the pre-threading serial
 * kernel; chunked calls touch disjoint rows, so any row-aligned
 * decomposition reproduces the serial bits. */
static void fused_span(const int32_t *rows, const int32_t *cols,
                       int64_t n_edges, const double *theta, double *out,
                       int64_t r0, int64_t r1, int64_t kind, double p0,
                       double p1, double vp, double *sd, double *sv,
                       int64_t block) {
    int64_t i, e, b0;
    int64_t e0 = row_lower_bound(rows, n_edges, r0);
    int64_t e1 = row_lower_bound(rows, n_edges, r1);
    for (i = r0; i < r1; ++i)
        out[i] = 0.0;
    for (b0 = e0; b0 < e1; b0 += block) {
        int64_t b1 = b0 + block < e1 ? b0 + block : e1;
        int64_t m = b1 - b0;
        const int32_t *rb = rows + b0;
        const int32_t *cb = cols + b0;
        for (e = 0; e < m; ++e)
            sd[e] = theta[cb[e]] - theta[rb[e]];
        potential_block(kind, p0, p1, sd, sv, m);
        for (e = 0; e < m; ++e)
            out[rb[e]] += sv[e];
    }
    for (i = r0; i < r1; ++i)
        out[i] *= vp;
}

/* Fused coupling for a stacked (R, N) super-state with per-member
 * potential coefficients and coupling strengths.  The parallel path
 * flattens (member, row-chunk) work items so small-R stacks still fill
 * the thread pool. */
void pom_fused_batched(const int32_t *rows, const int32_t *cols,
                       int64_t n_edges, const double *theta, double *out,
                       int64_t r_count, int64_t n, const int64_t *kinds,
                       const double *p0, const double *p1, const double *vp,
                       double *sd, double *sv, int64_t block,
                       int64_t threads) {
    int64_t r;
#ifdef _OPENMP
    if (threads > 1) {
        int64_t splits = (threads + r_count - 1) / r_count;
        int64_t total = r_count * splits;
        int64_t w;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)threads)
        for (w = 0; w < total; ++w) {
            int64_t tid = (int64_t)omp_get_thread_num();
            int64_t rr = w / splits;
            int64_t c = w % splits;
            fused_span(rows, cols, n_edges, theta + rr * n, out + rr * n,
                       n * c / splits, n * (c + 1) / splits, kinds[rr],
                       p0[rr], p1[rr], vp[rr], sd + tid * block,
                       sv + tid * block, block);
        }
        return;
    }
#endif
    (void)threads;
    for (r = 0; r < r_count; ++r)
        fused_span(rows, cols, n_edges, theta + r * n, out + r * n, 0, n,
                   kinds[r], p0[r], p1[r], vp[r], sd, sv, block);
}

/* Shifted-partner coupling of the flat elements [i0, i1) of one member
 * (the distance-ring and 2-D torus specialisations).  There are n_all =
 * n_off + n_dx offsets: lattice offsets offs[k] couple i to i + d (mod
 * n), and within-row offsets dxs[k] couple x to (x + dx) mod w inside
 * each width-w row of the flat index i = y*w + x (a lattice offset is
 * the w = n case).  The chunk runs in tiles of block / n_all elements:
 * every offset's differences for the tile are gathered into one
 * scratch block, sd[k*len + (i - t0)], each gather split at the wrap
 * point into unit-stride runs; one potential_block call evaluates them
 * all; the values are accumulated offset by offset.  So every row
 * receives its contributions in offset order whatever the tiling or
 * the thread chunking, and a small ring pays one padded call per tile
 * instead of one per shifted segment.  The caller guarantees n_all <=
 * block (cc.ring_offsets / cc.torus_halo), so a tile is never empty. */
static void halo_chunk(const int64_t *offs, int64_t n_off,
                       const int64_t *dxs, int64_t n_dx, int64_t w,
                       const double *theta, double *out, int64_t n,
                       int64_t i0, int64_t i1, int64_t kind, double p0,
                       double p1, double vp, double *sd, double *sv,
                       int64_t block) {
    int64_t n_all = n_off + n_dx;
    int64_t tile = block / n_all;
    int64_t i, k, t0;
    for (i = i0; i < i1; ++i)
        out[i] = 0.0;
    for (t0 = i0; t0 < i1; t0 += tile) {
        int64_t t1 = t0 + tile < i1 ? t0 + tile : i1;
        int64_t len = t1 - t0;
        for (k = 0; k < n_all; ++k) {
            int64_t width = k < n_off ? n : w;
            int64_t dx = k < n_off ? offs[k] : dxs[k - n_off];
            double *s = sd + k * len;
            i = t0;
            while (i < t1) {
                int64_t row_end = i - i % width + width;
                int64_t e1 = row_end < t1 ? row_end : t1;
                int64_t a1 = row_end - dx < e1 ? row_end - dx : e1;
                for (; i < a1; ++i)
                    s[i - t0] = theta[i + dx] - theta[i];
                for (; i < e1; ++i)
                    s[i - t0] = theta[i + dx - width] - theta[i];
            }
        }
        potential_block(kind, p0, p1, sd, sv, n_all * len);
        for (k = 0; k < n_all; ++k) {
            const double *v = sv + k * len;
            for (i = t0; i < t1; ++i)
                out[i] += v[i - t0];
        }
    }
    for (i = i0; i < i1; ++i)
        out[i] *= vp;
}

/* Stacked halo coupling.  The parallel path flattens (member, chunk)
 * work items; chunks are whole multiples of `grain` elements (1 for a
 * ring, the row width for a torus). */
static void halo_batched(const int64_t *offs, int64_t n_off,
                         const int64_t *dxs, int64_t n_dx, int64_t w,
                         int64_t grain, const double *theta, double *out,
                         int64_t r_count, int64_t n, const int64_t *kinds,
                         const double *p0, const double *p1,
                         const double *vp, double *sd, double *sv,
                         int64_t block, int64_t threads) {
    int64_t r;
    int64_t units = n / grain;
#ifdef _OPENMP
    if (threads > 1) {
        int64_t splits = (threads + r_count - 1) / r_count;
        int64_t total = r_count * splits;
        int64_t wi;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)threads)
        for (wi = 0; wi < total; ++wi) {
            int64_t tid = (int64_t)omp_get_thread_num();
            int64_t rr = wi / splits;
            int64_t c = wi % splits;
            halo_chunk(offs, n_off, dxs, n_dx, w, theta + rr * n,
                       out + rr * n, n, grain * (units * c / splits),
                       grain * (units * (c + 1) / splits), kinds[rr],
                       p0[rr], p1[rr], vp[rr], sd + tid * block,
                       sv + tid * block, block);
        }
        return;
    }
#endif
    (void)threads;
    for (r = 0; r < r_count; ++r)
        halo_chunk(offs, n_off, dxs, n_dx, w, theta + r * n, out + r * n, n,
                   0, n, kinds[r], p0[r], p1[r], vp[r], sd, sv, block);
}

/* Distance ring: every row couples to i + d (mod n) for each offset d
 * in [1, n-1] — the paper's halo-exchange topologies.  Accumulation
 * runs offset by offset (not column order), which changes the row sums
 * only at the ulp level. */
void pom_fused_ring_batched(const int64_t *offsets, int64_t n_offsets,
                            const double *theta, double *out,
                            int64_t r_count, int64_t n, const int64_t *kinds,
                            const double *p0, const double *p1,
                            const double *vp, double *sd, double *sv,
                            int64_t block, int64_t threads) {
    halo_batched(offsets, n_offsets, 0, 0, n, 1, theta, out, r_count, n,
                 kinds, p0, p1, vp, sd, sv, block, threads);
}

/* 2-D torus halo: column-direction (and any other whole-lattice)
 * offsets col_offs in [1, n-1], row-direction offsets row_dxs in
 * [1, w-1] wrapping inside each width-w row.  Chunks are whole torus
 * rows. */
void pom_fused_torus_batched(const int64_t *col_offs, int64_t n_col,
                             const int64_t *row_dxs, int64_t n_dx,
                             int64_t w, const double *theta, double *out,
                             int64_t r_count, int64_t n,
                             const int64_t *kinds, const double *p0,
                             const double *p1, const double *vp,
                             double *sd, double *sv, int64_t block,
                             int64_t threads) {
    halo_batched(col_offs, n_col, row_dxs, n_dx, w, w, theta, out, r_count,
                 n, kinds, p0, p1, vp, sd, sv, block, threads);
}
"""

_STEPPER_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Entry points of the kernel translation unit. */
void pom_trig_block(double *, double *, double *, int64_t);
void pom_fused_batched(const int32_t *, const int32_t *, int64_t,
                       const double *, double *, int64_t, int64_t,
                       const int64_t *, const double *, const double *,
                       const double *, double *, double *, int64_t, int64_t);
void pom_fused_ring_batched(const int64_t *, int64_t, const double *, double *,
                            int64_t, int64_t, const int64_t *, const double *,
                            const double *, const double *, double *, double *,
                            int64_t, int64_t);
void pom_fused_torus_batched(const int64_t *, int64_t, const int64_t *,
                             int64_t, int64_t, const double *, double *,
                             int64_t, int64_t, const int64_t *,
                             const double *, const double *, const double *,
                             double *, double *, int64_t, int64_t);

enum { TOPO_EDGES = 0, TOPO_RING = 1, TOPO_TORUS = 2 };

/* Everything one stacked backend binds once (field order and 8-byte
 * types mirror the ctypes structure in cc.py). */
typedef struct {
    int64_t topo, coupled, r_count, n;
    const int32_t *rows, *cols;
    int64_t n_edges;
    const int64_t *offsets; /* ring offsets, or torus whole-lattice offsets */
    int64_t n_offsets;
    const int64_t *row_dxs;
    int64_t n_dx, w;
    const int64_t *kinds;
    const double *p0, *p1, *vp;
    double *sd, *sv;
    int64_t block, threads;
    const double *periods;  /* (R,) cycle periods */
    const double *zeta;     /* (n_windows, R, N) frozen noise stack */
    int64_t n_windows;
    double zeta_t0, zeta_dt;
    double *stage, *acc, *k; /* (R, N) scratch each */
} pom_stepper;

/* k = intrinsic frequency + coupling at (t, y) — the arithmetic of
 * HeteroBatchedBackend.rhs: the noise window floor((t - t0)/dt) clamped
 * to the stack, 2*pi/(T + zeta) where that period is finite and
 * positive, else 0 (a stalled process). */
static void rhs(const pom_stepper *s, double t, const double *y, double *k) {
    int64_t n = s->n, r, i;
    double q = floor((t - s->zeta_t0) / s->zeta_dt);
    int64_t win = 0;
    const double *z;
    if (q > 0.0)
        win = q >= (double)(s->n_windows - 1) ? s->n_windows - 1 : (int64_t)q;
    z = s->zeta + win * s->r_count * n;
    if (!s->coupled) {
        for (i = 0; i < s->r_count * n; ++i)
            k[i] = 0.0;
    } else if (s->topo == TOPO_RING) {
        pom_fused_ring_batched(s->offsets, s->n_offsets, y, k, s->r_count, n,
                               s->kinds, s->p0, s->p1, s->vp, s->sd, s->sv,
                               s->block, s->threads);
    } else if (s->topo == TOPO_TORUS) {
        pom_fused_torus_batched(s->offsets, s->n_offsets, s->row_dxs, s->n_dx,
                                s->w, y, k, s->r_count, n, s->kinds, s->p0,
                                s->p1, s->vp, s->sd, s->sv, s->block,
                                s->threads);
    } else {
        pom_fused_batched(s->rows, s->cols, s->n_edges, y, k, s->r_count, n,
                          s->kinds, s->p0, s->p1, s->vp, s->sd, s->sv,
                          s->block, s->threads);
    }
    for (r = 0; r < s->r_count; ++r) {
        double period = s->periods[r];
        const double *zr = z + r * n;
        double *kr = k + r * n;
        for (i = 0; i < n; ++i) {
            double denom = period + zr[i];
            double freq = (isfinite(denom) && denom > 0.0)
                              ? (2.0 * 3.141592653589793) / denom : 0.0;
            kr[i] = freq + kr[i];
        }
    }
}

/* `steps` classic RK4 steps of size h from (t, y0); state k lands in
 * ys[k] and its time in ts[k].  The stage order is solve_rk4's:
 * y + (0.5*h)*k1, y + (0.5*h)*k2, y + h*k3, then
 * y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), accumulated left to right. */
void pom_step_rk4(const pom_stepper *s, double t, double h, int64_t steps,
                  const double *y0, double *ts, double *ys) {
    int64_t m = s->r_count * s->n, j, step;
    double hh = 0.5 * h, h6 = h / 6.0;
    double *stage = s->stage, *acc = s->acc, *k = s->k;
    const double *y = y0;
    for (step = 0; step < steps; ++step) {
        double *yn = ys + step * m;
        rhs(s, t, y, acc);
        for (j = 0; j < m; ++j)
            stage[j] = y[j] + hh * acc[j];
        rhs(s, t + hh, stage, k);
        for (j = 0; j < m; ++j) {
            stage[j] = y[j] + hh * k[j];
            acc[j] = acc[j] + 2.0 * k[j];
        }
        rhs(s, t + hh, stage, k);
        for (j = 0; j < m; ++j) {
            stage[j] = y[j] + h * k[j];
            acc[j] = acc[j] + 2.0 * k[j];
        }
        rhs(s, t + h, stage, k);
        for (j = 0; j < m; ++j)
            yn[j] = y[j] + h6 * (acc[j] + k[j]);
        t = t + h;
        ts[step] = t;
        y = yn;
    }
}

/* `steps` explicit Euler steps: y + h*f(t, y), as solve_euler. */
void pom_step_euler(const pom_stepper *s, double t, double h, int64_t steps,
                    const double *y0, double *ts, double *ys) {
    int64_t m = s->r_count * s->n, j, step;
    double *k = s->k;
    const double *y = y0;
    for (step = 0; step < steps; ++step) {
        double *yn = ys + step * m;
        rhs(s, t, y, k);
        for (j = 0; j < m; ++j)
            yn[j] = y[j] + h * k[j];
        t = t + h;
        ts[step] = t;
        y = yn;
    }
}

#define FOLD_LANES 8

/* Add the cos/sin values of row positions [j0, j0 + m) to the row's
 * lane sums: position j always goes to lane j % FOLD_LANES, in
 * increasing j.  The lanes are rotated into local copies (lane
 * (j0 + l) % FOLD_LANES as a[l]) so that the groups of FOLD_LANES
 * terms start at e = 0 and the sums live in registers.  Each term also
 * carries x * 0.0, which is a signed zero (no change to the sum) for a
 * finite phase and NaN for a NaN or infinite one, so such a row sums to
 * NaN whatever the SIMD cos/sin return for it. */
static void lane_sums(const double *restrict x, const double *restrict c,
                      const double *restrict s, int64_t j0, int64_t m,
                      double *restrict ac, double *restrict as) {
    double a[FOLD_LANES], b[FOLD_LANES];
    int64_t e, l;
    for (l = 0; l < FOLD_LANES; ++l) {
        a[l] = ac[(j0 + l) % FOLD_LANES];
        b[l] = as[(j0 + l) % FOLD_LANES];
    }
    for (e = 0; e + FOLD_LANES <= m; e += FOLD_LANES)
        for (l = 0; l < FOLD_LANES; ++l) {
            a[l] += c[e + l] + x[e + l] * 0.0;
            b[l] += s[e + l] + x[e + l] * 0.0;
        }
    for (l = 0; e + l < m; ++l) {
        a[l] += c[e + l] + x[e + l] * 0.0;
        b[l] += s[e + l] + x[e + l] * 0.0;
    }
    for (l = 0; l < FOLD_LANES; ++l) {
        ac[(j0 + l) % FOLD_LANES] = a[l];
        as[(j0 + l) % FOLD_LANES] = b[l];
    }
}

/* The row's sum: the FOLD_LANES (= 8) lane sums added pairwise. */
static double lane_total(const double *a) {
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

/* Sums of cos and sin over each of the `rows` contiguous length-n rows
 * of ys (the Kuramoto order parameter's numerator).  The flat stack is
 * walked in blocks of `block` (= cc.FOLD_BLOCK) phases: each block
 * is copied into the 64-byte-aligned scratch sx, evaluated by one
 * pom_trig_block call (kernel unit), and summed here, in IEEE order,
 * into FOLD_LANES lane sums per row that are combined pairwise at the
 * row's end.  A lane receives the same terms in the same order however
 * the blocks cut the row, so a row's sums are a pure function of its n
 * phases: not of its position in the stack, where the blocks cut it,
 * or the buffer's alignment. */
void pom_order_sums(const double *ys, int64_t rows, int64_t n,
                    double *out_c, double *out_s, double *sx, double *sc,
                    double *ss, int64_t block) {
    int64_t total = rows * n, f0, i, l;
    int64_t row = 0, row_start = 0;
    double ac[FOLD_LANES], as[FOLD_LANES];
    for (l = 0; l < FOLD_LANES; ++l)
        ac[l] = as[l] = 0.0;
    for (f0 = 0; f0 < total; f0 += block) {
        int64_t m = total - f0 < block ? total - f0 : block;
        memcpy(sx, ys + f0, (size_t)m * sizeof(double));
        pom_trig_block(sx, sc, ss, m);
        for (i = f0; i < f0 + m;) {
            int64_t row_end = row_start + n;
            int64_t e1 = row_end < f0 + m ? row_end : f0 + m;
            lane_sums(sx + (i - f0), sc + (i - f0), ss + (i - f0),
                      i - row_start, e1 - i, ac, as);
            i = e1;
            if (i == row_end) {
                out_c[row] = lane_total(ac);
                out_s[row] = lane_total(as);
                for (l = 0; l < FOLD_LANES; ++l)
                    ac[l] = as[l] = 0.0;
                row += 1;
                row_start = row_end;
            }
        }
    }
}
"""

#: edge-block length (doubles); two scratch blocks per thread stay
#: L2-resident
BLOCK_EDGES = 16384

#: phases per block of the order-parameter fold (a PAD_BLOCK multiple;
#: its three scratch blocks stay L2-resident)
FOLD_BLOCK = 4096

#: integration schemes the compiled stepper implements
STEPPER_METHODS = ("rk4", "euler")

#: (compile flags, extra link flags) tried in order until one builds.
#: NOTE: the object is compiled with -ffast-math (needed for the libmvec
#: SIMD transcendentals) but LINKED without it — linking a shared
#: library with -ffast-math pulls in crtfastmath.o, whose constructor
#: flips the process-wide FTZ/DAZ bits at dlopen time and silently
#: breaks subnormal arithmetic for the whole interpreter.  -fopenmp *is*
#: needed on the link line (libgomp); it does not pull crtfastmath.o.
_FLAG_SETS = (
    # glibc + x86: vectorised libm via libmvec, widest SIMD available,
    # OpenMP row-parallel loops
    (
        [
            "-O3",
            "-march=native",
            "-mprefer-vector-width=512",
            "-ffast-math",
            "-fopenmp-simd",
            "-fopenmp",
            "-fPIC",
        ],
        ["-fopenmp"],
    ),
    # same without OpenMP (serial kernels, threads knob is a no-op)
    (
        [
            "-O3",
            "-march=native",
            "-mprefer-vector-width=512",
            "-ffast-math",
            "-fopenmp-simd",
            "-fPIC",
        ],
        [],
    ),
    # portable optimised builds
    (["-O3", "-ffast-math", "-fopenmp", "-fPIC"], ["-fopenmp"]),
    (["-O3", "-ffast-math", "-fPIC"], []),
    # last resort
    (["-O2", "-fPIC"], []),
)


def _exact_flags(flags: list[str]) -> list[str]:
    """The stepper unit's flags: IEEE-exact, so no fast-math and no FMA."""
    return [f for f in flags if f != "-ffast-math"] + ["-ffp-contract=off"]


#: translation units linked into the one library: (name, source, flags
#: derived from the flag set being tried)
_UNITS = (
    ("kernel", _SOURCE, list),
    ("stepper", _STEPPER_SOURCE, _exact_flags),
)

_lib: ctypes.CDLL | None = None
_lib_failed = False


def _compiler() -> str | None:
    cand = os.environ.get("CC") or "cc"
    return shutil.which(cand)


def _cpu_tag() -> str:
    """Host signature for the cache key — -march=native binaries are not
    portable across CPU generations, so the ISA feature set must be part
    of the content address (shared TMPDIR across heterogeneous nodes)."""
    flags = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    flags = line
                    break
    except OSError:
        pass
    return platform.machine() + platform.system() + flags


def _build_key(compiler: str | None) -> str:
    """Content address of the library a build would produce.

    Covers every input of :func:`_build`: each unit's source and the
    exact compile and link flags of every flag set tried, the resolved
    compiler, plus the interpreter, NumPy and host ISA.  A change to any
    of them yields a new path instead of loading a stale binary.
    """
    parts = [sys.version, np.__version__, _cpu_tag(), str(compiler)]
    if compiler is not None:
        parts.append(os.path.realpath(compiler))
    for name, source, _ in _UNITS:
        parts += [name, source]
    for flags, link_extra in _FLAG_SETS:
        for name, _, unit_flags in _UNITS:
            parts.append(f"{name}: {' '.join(unit_flags(flags))}")
        parts.append("link: " + " ".join(link_extra))
    return hashlib.sha1("\0".join(parts).encode()).hexdigest()[:16]


def _cache_path() -> str | None:
    tag = _build_key(_compiler())
    uid = os.getuid() if hasattr(os, "getuid") else "u"
    d = os.path.join(tempfile.gettempdir(), f"pom-cc-kernel-{uid}-{tag}")
    # The directory sits in a world-writable location: create it private
    # and refuse to trust it unless we own it, so another local user
    # cannot pre-plant a malicious pom_kernel.so at the predictable path.
    os.makedirs(d, mode=0o700, exist_ok=True)
    if hasattr(os, "getuid") and os.stat(d).st_uid != os.getuid():
        return None
    return os.path.join(d, "pom_kernel.so")


def _build(path: str) -> bool:
    compiler = _compiler()
    if compiler is None:
        return False
    srcs = []
    for name, source, _ in _UNITS:
        srcs.append(f"{path[:-3]}_{name}.c")
        with open(srcs[-1], "w") as fh:
            fh.write(source)
    for flags, link_extra in _FLAG_SETS:
        objs = [f"{src}.o{os.getpid()}" for src in srcs]
        tmp = f"{path}.tmp{os.getpid()}"
        cmds = [
            [compiler, "-c", *unit_flags(flags), "-o", obj, src]
            for (_, _, unit_flags), src, obj in zip(_UNITS, srcs, objs)
        ]
        cmds.append([compiler, "-shared", *link_extra, "-o", tmp, *objs, "-lm"])
        try:
            for cmd in cmds:
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
                if proc.returncode != 0:
                    break
        except (OSError, subprocess.SubprocessError):
            continue
        finally:
            for obj in objs:
                if os.path.exists(obj):
                    os.unlink(obj)
        if proc.returncode == 0:
            os.replace(tmp, path)  # atomic: concurrent builders agree
            return True
        if os.path.exists(tmp):
            os.unlink(tmp)
    return False


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # Pointers travel as plain addresses (``ndarray.ctypes.data``):
    # building a typed ``POINTER`` per argument costs twice as much, and
    # these calls sit on the per-RHS-evaluation hot path.
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    tail = [i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64]
    heads = {
        "pom_fused_batched": [ptr, ptr, i64, ptr, ptr],
        "pom_fused_ring_batched": [ptr, i64, ptr, ptr],
        "pom_fused_torus_batched": [ptr, i64, ptr, i64, i64, ptr, ptr],
    }
    lib.pom_openmp_available.restype = i64
    lib.pom_openmp_available.argtypes = []
    for name, head in heads.items():
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = head + tail
    f64 = ctypes.c_double
    for method in STEPPER_METHODS:
        fn = getattr(lib, f"pom_step_{method}")
        fn.restype = None
        fn.argtypes = [ptr, f64, f64, i64, ptr, ptr, ptr]
    lib.pom_order_sums.restype = None
    lib.pom_order_sums.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, ptr, i64]
    return lib


def load_library() -> ctypes.CDLL | None:
    """Build (once) and load the kernel library; ``None`` if unavailable."""
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    try:
        path = _cache_path()
        if path is None or (not os.path.exists(path) and not _build(path)):
            _lib_failed = True
            return None
        _lib = _bind(ctypes.CDLL(path))
    except Exception:
        # Any failure (no compiler, exotic platform, unloadable binary)
        # must degrade to "cc unavailable" so the auto resolution falls
        # back to the tiled/NumPy kernels instead of crashing simulate().
        _lib_failed = True
        return None
    return _lib


def cc_available() -> bool:
    """True when the compiled kernel can be built and loaded."""
    return load_library() is not None


def openmp_available() -> bool:
    """True when the compiled kernel binary carries OpenMP support.

    False either because no kernel builds at all or because the
    flag-set fallback chain landed on a serial build — in both cases
    ``threads > 1`` silently degrades to the serial (bit-identical)
    path.
    """
    lib = load_library()
    return bool(lib is not None and lib.pom_openmp_available())


def _aligned_empty(n: int) -> np.ndarray:
    """A float64 scratch array on a 64-byte boundary.

    Pinning the alignment removes the last trip-count-adjacent source
    of SIMD variance: a compiler that peels iterations until a pointer
    is aligned peels the *same* count on every call.  (BLOCK_EDGES * 8
    is a multiple of 64, so the per-OpenMP-thread slices inherit the
    alignment.)
    """
    raw = np.empty(n + 8, dtype=np.float64)
    off = (-raw.ctypes.data % 64) // 8
    return raw[off:off + n]


class _Scratch:
    """Reused per-call scratch: two ``threads * BLOCK_EDGES`` doubles.

    One pair per *Python thread*: ctypes releases the GIL for the
    duration of the C call, so concurrent evaluations from different
    threads must not share write buffers.  Inside one call, OpenMP
    thread ``tid`` works in the disjoint slice ``[tid * BLOCK_EDGES,
    (tid + 1) * BLOCK_EDGES)``.
    """

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.sd = _aligned_empty(threads * BLOCK_EDGES)
        self.sv = _aligned_empty(threads * BLOCK_EDGES)
        self.addresses = (self.sd.ctypes.data, self.sv.ctypes.data)


_tls = threading.local()


def _scratch_buffers(threads: int = 1) -> "_Scratch":
    scratch = getattr(_tls, "scratch", None)
    if scratch is None or scratch.threads < threads:
        scratch = _tls.scratch = _Scratch(threads)
    return scratch


def order_parameter(ys: np.ndarray) -> np.ndarray:
    """Kuramoto ``r`` of every row of a ``(..., N)`` phase stack.

    ``hypot(sum(cos)/N, sum(sin)/N)`` per row, the sums from
    ``pom_order_sums`` in blocks of :data:`FOLD_BLOCK` phases: a row's
    ``r`` is a pure function of its ``N`` phases, whatever the leading
    shape, where the blocks cut the row, the buffer's alignment or the
    calling thread.  It agrees with ``abs(mean(exp(1j * y)))`` to about
    1e-16.  Each Python thread has its own scratch (ctypes releases the
    GIL during the call).
    """
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    n = ys.shape[-1]
    if n == 0:
        return np.full(ys.shape[:-1], np.nan)
    rows = ys.size // n
    scratch = getattr(_tls, "fold", None)
    if scratch is None:
        scratch = _tls.fold = _aligned_empty(3 * FOLD_BLOCK)
    base = scratch.ctypes.data
    sums = np.empty((2, rows))
    load_library().pom_order_sums(
        ys.ctypes.data, rows, n, sums.ctypes.data,
        sums.ctypes.data + 8 * rows, base, base + 8 * FOLD_BLOCK,
        base + 16 * FOLD_BLOCK, FOLD_BLOCK)
    sums /= n
    return np.hypot(sums[0], sums[1]).reshape(ys.shape[:-1])


def clamp_threads(threads: int) -> int:
    """Effective OpenMP team size: 1 unless the binary supports more.

    Backends resolve this once; the entry points below take the count
    as given (a serial binary ignores it, so only the scratch size
    depends on it).
    """
    t = int(threads)
    if t <= 1:
        return 1
    return t if openmp_available() else 1


def ring_offsets(
    rows: np.ndarray, cols: np.ndarray, n: int, block: int = BLOCK_EDGES
) -> np.ndarray | None:
    """Offset set of a distance-ring topology, or ``None``.

    A topology is a distance ring iff every row couples to ``i + d (mod
    n)`` for one shared offset set — then the fused C kernel can replace
    its gathers and scatters with contiguous shifted passes.  Verified
    from the edge list itself (O(E)), not from builder metadata, so any
    equivalent construction qualifies.  A ring with more offsets than
    the kernel's scratch ``block`` holds (its tiles would be empty) is
    left to the edge-list kernel.
    """
    if rows.size == 0:
        return None
    offs = (cols - rows) % n
    uniq, counts = np.unique(offs, return_counts=True)
    if uniq.size * n != rows.size or not np.all(counts == n):
        return None
    if uniq.size > block:
        return None
    return np.ascontiguousarray(uniq, dtype=np.int64)


def torus_halo(
    rows: np.ndarray, cols: np.ndarray, n: int, block: int = BLOCK_EDGES
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Halo decomposition of a 2-D torus edge list, or ``None``.

    Detects (from the edge list alone, like :func:`ring_offsets`) that
    the topology splits into

    * **whole-lattice offsets** — every element couples to ``i + d (mod
      n)`` (the column/vertical halo plus any diagonal rings), and
    * **within-row offsets** — partners stay inside width-``w`` rows,
      coupling ``x`` to ``(x + dx) % w`` (the horizontal halo, whose
      flat offset is *not* uniform because of the per-row wrap — the
      reason these edges defeat the plain ring detection).

    ``w`` is recovered as the gcd of the whole-lattice offsets (for a
    ``W x H`` torus the vertical offsets are ``W`` and ``n - W``), and
    every remaining edge is verified to be within-row with each ``dx``
    covering all ``n`` elements exactly once.  Returns ``(w,
    col_offsets, row_dxs)`` for the compiled torus kernels, or ``None``
    when the edge list is not of this shape (including pure rings,
    which the cheaper ring path already covers) or has more offsets in
    all than the kernel's scratch ``block`` holds.
    """
    if rows.size == 0:
        return None
    offs = (cols - rows) % n
    uniq, counts = np.unique(offs, return_counts=True)
    if uniq.size == 0 or uniq[0] == 0:
        return None
    full = uniq[counts == n]
    if full.size == 0 or full.size == uniq.size:
        return None  # no lattice rings, or a pure ring (handled upstream)
    w = int(np.gcd.reduce(np.concatenate([full, [np.int64(n)]])))
    if w <= 1 or n % w != 0:
        return None
    sel = np.isin(offs, uniq[counts != n])
    pr, pc = rows[sel], cols[sel]
    if not np.array_equal(pr // w, pc // w):
        return None  # partial-offset edges leave their row: not a torus
    dxs, dcounts = np.unique((pc - pr) % w, return_counts=True)
    if dxs.size == 0 or dxs[0] == 0 or not np.all(dcounts == n):
        return None
    if full.size + dxs.size > block:
        return None
    return (
        w,
        np.ascontiguousarray(full, dtype=np.int64),
        np.ascontiguousarray(dxs, dtype=np.int64),
    )


def _call(
    fn,
    head: tuple,
    theta: np.ndarray,
    out: np.ndarray,
    kinds: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    vp_over_n: np.ndarray,
    threads: int,
) -> np.ndarray:
    """Run one batched entry point on a contiguous ``(R, N)`` stack."""
    threads = max(int(threads), 1)
    scratch = _scratch_buffers(threads)
    r, n = theta.shape
    fn(
        *head,
        theta.ctypes.data,
        out.ctypes.data,
        r,
        n,
        kinds.ctypes.data,
        p0.ctypes.data,
        p1.ctypes.data,
        vp_over_n.ctypes.data,
        *scratch.addresses,
        BLOCK_EDGES,
        threads,
    )
    return out


def fused_batched(
    rows32: np.ndarray,
    cols32: np.ndarray,
    theta: np.ndarray,
    out: np.ndarray,
    kinds: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    vp_over_n: np.ndarray,
    threads: int = 1,
) -> np.ndarray:
    """Coupling terms for a contiguous ``(R, N)`` super-state into ``out``."""
    head = (rows32.ctypes.data, cols32.ctypes.data, rows32.size)
    fn = load_library().pom_fused_batched
    return _call(fn, head, theta, out, kinds, p0, p1, vp_over_n, threads)


def ring_batched(
    offsets: np.ndarray,
    theta: np.ndarray,
    out: np.ndarray,
    kinds: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    vp_over_n: np.ndarray,
    threads: int = 1,
) -> np.ndarray:
    """Distance-ring coupling for an ``(R, N)`` super-state into ``out``."""
    head = (offsets.ctypes.data, offsets.size)
    fn = load_library().pom_fused_ring_batched
    return _call(fn, head, theta, out, kinds, p0, p1, vp_over_n, threads)


def torus_batched(
    halo: tuple[int, np.ndarray, np.ndarray],
    theta: np.ndarray,
    out: np.ndarray,
    kinds: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    vp_over_n: np.ndarray,
    threads: int = 1,
) -> np.ndarray:
    """2-D torus halo coupling for an ``(R, N)`` super-state into ``out``.

    ``halo`` is the ``(w, col_offsets, row_dxs)`` decomposition from
    :func:`torus_halo`.
    """
    w, col_offsets, row_dxs = halo
    head = (col_offsets.ctypes.data, col_offsets.size, row_dxs.ctypes.data)
    head += (row_dxs.size, w)
    fn = load_library().pom_fused_torus_batched
    return _call(fn, head, theta, out, kinds, p0, p1, vp_over_n, threads)


class _StepperArgs(ctypes.Structure):
    """Mirror of the ``pom_stepper`` struct in :data:`_STEPPER_SOURCE`."""

    _fields_ = [
        ("topo", ctypes.c_int64),
        ("coupled", ctypes.c_int64),
        ("r_count", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("rows", ctypes.c_void_p),
        ("cols", ctypes.c_void_p),
        ("n_edges", ctypes.c_int64),
        ("offsets", ctypes.c_void_p),
        ("n_offsets", ctypes.c_int64),
        ("row_dxs", ctypes.c_void_p),
        ("n_dx", ctypes.c_int64),
        ("w", ctypes.c_int64),
        ("kinds", ctypes.c_void_p),
        ("p0", ctypes.c_void_p),
        ("p1", ctypes.c_void_p),
        ("vp", ctypes.c_void_p),
        ("sd", ctypes.c_void_p),
        ("sv", ctypes.c_void_p),
        ("block", ctypes.c_int64),
        ("threads", ctypes.c_int64),
        ("periods", ctypes.c_void_p),
        ("zeta", ctypes.c_void_p),
        ("n_windows", ctypes.c_int64),
        ("zeta_t0", ctypes.c_double),
        ("zeta_dt", ctypes.c_double),
        ("stage", ctypes.c_void_p),
        ("acc", ctypes.c_void_p),
        ("k", ctypes.c_void_p),
    ]


class FixedStepper:
    """``K`` rk4 or euler steps of a bound ``(R, N)`` stack per C call.

    Every array address is bound here, once per solve; a call passes
    only the time, the step, and the chunk buffers.  The topology comes
    as exactly one of ``ring`` (offsets from :func:`ring_offsets`),
    ``torus`` (the :func:`torus_halo` triple) or ``edges`` (int32
    ``(rows, cols)``).  ``zeta`` is the ``(windows, R, N)`` noise stack
    on the grid ``t0 + k * dt``.  The stage scratch belongs to the
    instance, so one stepper serves one solve at a time.
    """

    def __init__(
        self,
        method: str,
        *,
        kinds: np.ndarray,
        p0: np.ndarray,
        p1: np.ndarray,
        vp_over_n: np.ndarray,
        periods: np.ndarray,
        zeta: np.ndarray,
        zeta_t0: float,
        zeta_dt: float,
        coupled: bool,
        threads: int,
        ring: np.ndarray | None = None,
        torus: tuple[int, np.ndarray, np.ndarray] | None = None,
        edges: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if method not in STEPPER_METHODS:
            raise ValueError(f"no compiled stepper for method {method!r}")
        self._fn = getattr(load_library(), f"pom_step_{method}")
        _, r, n = zeta.shape
        threads = clamp_threads(threads)
        keep = {
            "kinds": np.ascontiguousarray(kinds, dtype=np.int64),
            "p0": np.ascontiguousarray(p0, dtype=float),
            "p1": np.ascontiguousarray(p1, dtype=float),
            "vp": np.ascontiguousarray(vp_over_n, dtype=float),
            "periods": np.ascontiguousarray(periods, dtype=float).ravel(),
            "zeta": np.ascontiguousarray(zeta, dtype=float),
            "sd": _aligned_empty(threads * BLOCK_EDGES),
            "sv": _aligned_empty(threads * BLOCK_EDGES),
            "k": np.empty((r, n)),
        }
        if method == "rk4":
            keep["stage"] = np.empty((r, n))
            keep["acc"] = np.empty((r, n))
        args = _StepperArgs(
            coupled=int(coupled),
            r_count=r,
            n=n,
            block=BLOCK_EDGES,
            threads=threads,
            n_windows=zeta.shape[0],
            zeta_t0=zeta_t0,
            zeta_dt=zeta_dt,
        )
        if ring is not None:
            keep["offsets"] = np.ascontiguousarray(ring, dtype=np.int64)
            args.topo, args.n_offsets = 1, ring.size
        elif torus is not None:
            args.w, offsets, row_dxs = torus
            keep["offsets"] = np.ascontiguousarray(offsets, dtype=np.int64)
            keep["row_dxs"] = np.ascontiguousarray(row_dxs, dtype=np.int64)
            args.topo, args.n_offsets, args.n_dx = 2, offsets.size, row_dxs.size
        else:
            keep["rows"] = np.ascontiguousarray(edges[0], dtype=np.int32)
            keep["cols"] = np.ascontiguousarray(edges[1], dtype=np.int32)
            args.topo, args.n_edges = 0, edges[0].size
        for name, arr in keep.items():
            setattr(args, name, arr.ctypes.data)
        self._keep = keep
        self._args = args
        self._addr = ctypes.addressof(args)

    def __call__(
        self, t: float, h: float, y: np.ndarray, ts: np.ndarray, ys: np.ndarray
    ) -> None:
        """Advance ``len(ts)`` steps of size ``h`` from ``(t, y)``.

        State ``k`` lands in ``ys[k]`` and its time in ``ts[k]``; all
        three arrays must be C-contiguous float64 (``ys`` is ``(K, R,
        N)``).
        """
        size = self._keep["k"].size
        arrays = (y, ts, ys)
        if (
            any(a.dtype != np.float64 or not a.flags.c_contiguous for a in arrays)
            or y.size != size
            or ys.size != size * ts.size
        ):
            raise ValueError("stepper buffers do not match the bound stack")
        self._fn(
            self._addr,
            t,
            h,
            ts.shape[0],
            y.ctypes.data,
            ts.ctypes.data,
            ys.ctypes.data,
        )


# One-state forms: the batched entry points at R=1, which are
# bit-identical to a dedicated single-state kernel.
def _one_member(kind: int, p0: float, p1: float, vp_over_n: float) -> tuple:
    return (
        np.array([kind], dtype=np.int64),
        np.array([p0], dtype=float),
        np.array([p1], dtype=float),
        np.array([vp_over_n], dtype=float),
    )


def fused_single(
    rows32: np.ndarray,
    cols32: np.ndarray,
    theta: np.ndarray,
    out: np.ndarray,
    kind: int,
    p0: float,
    p1: float,
    vp_over_n: float,
    threads: int = 1,
) -> np.ndarray:
    """Coupling term for one contiguous ``(N,)`` state into ``out``."""
    coeffs = _one_member(kind, p0, p1, vp_over_n)
    fused_batched(rows32, cols32, theta[None], out[None], *coeffs, threads=threads)
    return out


def ring_single(
    offsets: np.ndarray,
    theta: np.ndarray,
    out: np.ndarray,
    kind: int,
    p0: float,
    p1: float,
    vp_over_n: float,
    threads: int = 1,
) -> np.ndarray:
    """Distance-ring coupling for one ``(N,)`` state into ``out``."""
    coeffs = _one_member(kind, p0, p1, vp_over_n)
    ring_batched(offsets, theta[None], out[None], *coeffs, threads=threads)
    return out


def torus_single(
    halo: tuple[int, np.ndarray, np.ndarray],
    theta: np.ndarray,
    out: np.ndarray,
    kind: int,
    p0: float,
    p1: float,
    vp_over_n: float,
    threads: int = 1,
) -> np.ndarray:
    """2-D torus halo coupling for one ``(N,)`` state into ``out``."""
    coeffs = _one_member(kind, p0, p1, vp_over_n)
    torus_batched(halo, theta[None], out[None], *coeffs, threads=threads)
    return out
