"""Percentile bootstrap confidence intervals for the NPPR estimate.

No closed-form variance of the weighted-mean estimator exists (the
covariances between pointwise estimates at different times are unknown), so
the interval comes from re-estimating on with-replacement resamples of the
pooled rows. Rows travel intact: group and status are never reassigned, and
group sizes vary across resamples.

Quantile rule: plain empirical quantile with ceiling rank, i.e. the
ceil(q*B)-th order statistic. This is exactly reproducible across
languages, unlike interpolating quantile definitions.

Randomness: resample i draws its rows from its own child stream,
default_rng(SeedSequence(seed).spawn(B)[i]).integers(0, n, size=n), so
results are independent of execution order and reproducible for a fixed
seed. ``resample_rows`` gives exactly those rows without building a
SeedSequence child or a Generator per resample:

- Child seeds as uint32 array arithmetic, for the whole chunks that fit in
  CHILD_BLOCK children at once, so the hash's numpy calls run once per
  block, not per chunk, and its arrays stay bounded at any B. A child's
  entropy is the seed's little-endian 32-bit words, zero-padded to the
  pool size of 4, then its index, so its pool before the index is mixed
  in is the pool of SeedSequence(seed), built once (numpy's own coercion,
  including the extra mixing rounds of seeds longer than 4 words). The
  index's hash and mix steps and generate_state(4, uint64)'s output hash
  follow numpy's bit_generator.pyx, an implementation of O'Neill's
  seed_seq (pcg-random.org, 2015).
- One reused PCG64 is set to each child's state through one reused state
  dict: per chunk, the block's words give PCG64's two-step srandom,
  computed in Python ints. Its raw 64-bit output is read as numpy's
  next_uint32 reads it, low half first. No PCG64 step is ported; the
  stream is numpy's own.
- Row j is the high word of u_j * n, Lemire's bounded integer (ACM TOMACS
  29, 2019) as Generator.integers computes it. A resample in which any
  u_j falls in Lemire's rejection branch is redrawn by Generator.integers
  from the same state.

NEP 19 does not promise stable Generator streams across numpy releases.
tests/test_bootstrap.py::TestResampleRows checks these rows against
default_rng on each child for seeds of one to five words and n from 1 to
the bundled trial's size, checks a resample that takes the rejection
branch, and checks 1,600 children, over a block boundary, with a rejection
in the second block.

Computation: the resamples are not refitted one by one. Every row of the
data falls in one cell (event-time bin, group, status) of the grid that
``survival.event_grid`` builds once, so a resample is fully described by
its multinomial counts over those cells (Efron & Tibshirani, An
Introduction to the Bootstrap, 1993). A chunk of resamples is counted into
a (chunk, K + 1, 2, 2) table with one bincount and fitted by
``nppr.fit_tables``, the kernel that ``nppr_fit`` runs on the identity
table. A chunk holds at most CHUNK_CELLS table cells (at least one
resample), so the working set is bounded at any B: the kernel's
(chunk, K, 2) and (chunk, K) arrays, the draws' raw words and the chunk's
rows and table. The kernel's arrays (``survival.Workspace``) and the raw
words are allocated once per call and every chunk writes into them
through numpy's out= arguments: temporaries allocated afresh per chunk
make glibc hand the heap back and fault it in again on every chunk once a
chunk's live set passes its trim threshold. At 16,384 cells a call's peak
traced allocation is about 1.1 MB on the bundled trial; 32,768 cells ran
faster still at about 2.4 MB (ROADMAP, Not now).
tests/test_bootstrap.py checks each resample's beta against a scalar
reference fit of the same rows (tests/oracles.py) to 1e-12, with the same
failed resamples, and against ``fit_tables`` on the resample's own table
byte for byte at chunks of one resample, the default and all B.

Guard: the interval is meaningless when the point estimate is undefined.
The original data are the resample that takes every row once, so the
guard runs the kernel on the identity table, grid.table()[None], in the
call's workspace, and raises EstimationError where its beta is NaN,
which is exactly where nppr_fit raises on the data.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .nppr import fit_tables
from .survival import ConfidenceInterval, Dataset, Workspace, event_grid

# Count-table cells per chunk of resamples; bounds the working set (the buffers
# allocated once per call and the chunk's rows and table), not the result.
CHUNK_CELLS = 16384
# Smallest share of resamples that must succeed; below it the bootstrap raises.
MIN_SUCCESS_FRACTION = 0.5
MAX_RESAMPLES = 2**32  # a child's index is one uint32 word
# Child seeds hashed at once: the whole chunks that fit in this many children.
CHILD_BLOCK = 1024

# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_chain(init: int, mult: int, first: int, steps: int) -> np.ndarray:
    """The hash constant before each of hash steps first .. first + steps - 1,
    and after the last: init * mult**j mod 2**32."""
    return np.array([init * pow(mult, j, 2**32) % 2**32 for j in range(first, first + steps + 1)], dtype=np.uint32)


# generate_state(4, uint64) hashes the pool's 4 words twice over, 8 steps
_OUT_CHAIN = _hash_chain(_INIT_B, _MULT_B, 0, 8)
_OUT_BEFORE, _OUT_AFTER = _OUT_CHAIN[:-1].reshape(2, 4), _OUT_CHAIN[1:].reshape(2, 4)


def _child_words(pool: np.ndarray, spawn_chain: np.ndarray, children: np.ndarray) -> np.ndarray:
    """The seed words (s_hi, s_lo, inc_hi, inc_lo), uint64 (children, 4), that
    generate_state(4, uint64) gives default_rng(SeedSequence(seed,
    spawn_key=(k,))) for each child index k, from the pool of
    SeedSequence(seed) and the hash chain of the spawn word's 4 mixing steps."""
    v = (children.astype(np.uint32)[:, None] ^ spawn_chain[:-1]) * spawn_chain[1:]
    v ^= v >> 16
    p = _MIX_L * pool - _MIX_R * v  # the spawn word mixed into each pool word
    p ^= p >> 16
    w = (p[:, None, :] ^ _OUT_BEFORE) * _OUT_AFTER
    w ^= w >> 16
    return w.astype("<u4", copy=False).view("<u8").reshape(-1, 4)


def resample_rows(seed: int, n: int, n_resamples: int, chunk: int):
    """Yield the row indices of the resamples in chunks of ``chunk``, each a
    (chunk, n) array: resample i is
    default_rng(SeedSequence(seed).spawn(n_resamples)[i]).integers(0, n, size=n),
    computed without building either (see Randomness above)."""
    if not 0 < n < 2**32 or n_resamples > MAX_RESAMPLES:
        raise ValueError("resample size and count must be below 2**32")
    # a child's pool before its index is mixed in is the parent's, which took
    # 4 hash steps per word of its entropy (at least 4 words)
    pool = np.random.SeedSequence(seed).pool
    n_words = max(4, (max(int(seed).bit_length(), 1) + 31) // 32)
    spawn_chain = _hash_chain(_INIT_A, _MULT_A, 4 * n_words, 4)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}  # one state dict, set to each child in turn
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    half = (n + 1) // 2
    threshold = (2**32 - n) % n  # a draw whose low word is below this is rejected
    block = chunk * max(1, CHILD_BLOCK // chunk)
    raw_buf = np.empty((min(chunk, n_resamples), half), dtype=np.uint64)  # every chunk's raw words
    for start in range(0, n_resamples, chunk):
        if start % block == 0:
            words = _child_words(pool, spawn_chain, np.arange(start, min(start + block, n_resamples)))
        seeds = []
        for s_hi, s_lo, i_hi, i_lo in words[start % block:start % block + chunk].tolist():
            # PCG64's srandom: inc = 2 * seq + 1, then two LCG steps around adding the seed
            inc = ((i_hi << 64 | i_lo) << 1 | 1) % 2**128
            seeds.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) % 2**128, inc))
        raw = raw_buf[:len(seeds)]
        for i, (pcg["state"], pcg["inc"]) in enumerate(seeds):
            bitgen.state = state
            raw[i] = bitgen.random_raw(half)
        u = raw.astype("<u8", copy=False).view("<u4")[:, :n]  # next_uint32 takes the low half first
        prod = u * np.uint64(n)
        # the product's low word is u * n in uint32 arithmetic
        low = prod.astype("<u8", copy=False).view("<u4")[:, ::2]
        rejected = np.flatnonzero((low < threshold).any(axis=1))
        rows = np.right_shift(prod, 32, out=prod).view(np.int64)  # below 2**32: an intp index, not a copy
        for i in rejected:
            pcg["state"], pcg["inc"] = seeds[i]
            bitgen.state = state
            rows[i] = gen.integers(0, n, size=n)
        yield rows


@dataclass(frozen=True)
class BootstrapConfig:
    n_resamples: int = 500
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        for name in ("n_resamples", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.n_resamples < 2:
            raise ValueError("n_resamples must be >= 2")
        if self.n_resamples > MAX_RESAMPLES:
            raise ValueError("n_resamples must be at most 2**32")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def empirical_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Ceiling-rank empirical quantile of an ascending-sorted array."""
    n = sorted_values.shape[0]
    rank = min(max(math.ceil(q * n), 1), n)
    return float(sorted_values[rank - 1])


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    ci_beta: ConfidenceInterval
    ci_rr: ConfidenceInterval
    betas: np.ndarray  # successful resample estimates, in resample order
    n_effective: int
    n_failed: int


def percentile_bootstrap(data: Dataset, config: BootstrapConfig) -> BootstrapResult:
    """Percentile bootstrap interval for beta, with the derived rr interval.

    Resamples where estimation fails (a group without events, an empty
    event-time window, no usable time) are skipped and counted. Raises
    EstimationError when estimation fails on the original data, when no
    resample succeeds, or when fewer than MIN_SUCCESS_FRACTION of the
    resamples succeed.
    """
    n = len(data)
    grid = event_grid(data)
    chunk = max(1, CHUNK_CELLS // grid.n_cells)
    work = Workspace.empty((min(chunk, config.n_resamples),), grid.event_times.shape[0])
    if np.isnan(fit_tables(grid.table()[None], work).beta[0]):
        raise EstimationError("NPPR estimate undefined on the original data")
    betas = np.empty(config.n_resamples)
    chunks = resample_rows(config.seed, n, config.n_resamples, chunk)
    for start, rows in zip(range(0, config.n_resamples, chunk), chunks):
        betas[start:start + len(rows)] = fit_tables(grid.table(rows), work).beta
    betas = betas[~np.isnan(betas)]
    n_effective = betas.shape[0]
    n_failed = config.n_resamples - n_effective
    if n_effective == 0 or n_effective < MIN_SUCCESS_FRACTION * config.n_resamples:
        raise EstimationError(
            f"only {n_effective} of {config.n_resamples} bootstrap resamples "
            "produced an estimate"
        )

    ordered = np.sort(betas)
    alpha = (1.0 - config.level) / 2.0
    lo = empirical_quantile(ordered, alpha)
    hi = empirical_quantile(ordered, 1.0 - alpha)
    ci_beta = ConfidenceInterval(lo, hi, config.level, n_effective)
    ci_rr = ConfidenceInterval(math.exp(-hi), math.exp(-lo), config.level, n_effective)
    return BootstrapResult(
        ci_beta=ci_beta,
        ci_rr=ci_rr,
        betas=betas,
        n_effective=n_effective,
        n_failed=n_failed,
    )
