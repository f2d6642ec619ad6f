"""Client side of LDPJoinSketch — Algorithm 1 of the paper.

Given a private join value ``d``, the client

1. samples a row ``j ~ U[k]`` and a column ``l ~ U[m]``;
2. encodes ``d`` as the one-hot signed vector ``v`` with
   ``v[h_j(d)] = xi_j(d)``;
3. Hadamard-transforms: ``w = v @ H_m`` — because ``v`` has a single
   non-zero of magnitude 1, ``w[l] = xi_j(d) * H_m[h_j(d), l]`` in O(1);
4. perturbs the sampled coordinate with the binary sign channel:
   ``y = b * w[l]`` with ``Pr[b = -1] = 1/(e^eps + 1)``;
5. transmits ``(y, j, l)``.

:func:`encode_report` is the literal scalar transcription (kept for
readability and used by the privacy audits); :func:`encode_reports` is the
vectorised batch used for million-user simulations — tests pin the two to
identical outputs under identical randomness.  :func:`encode_reports_into`
is the fused encode→accumulate fast path: it perturbs and folds reports
chunk by chunk directly into a ``(k, m)`` integer accumulator, never
materialising the O(n) report arrays — tests pin it bit-for-bit against
``encode_reports`` + scatter-add under identical RNG draws.

Two *trial-axis* kernels extend the fused path for repeated-trial sweeps:

* :func:`encode_reports_trials_into` simulates ``T`` independent trials in
  one pass over the value array — per chunk, every trial's hashes are
  evaluated in a single gathered Horner pass and all ``T`` accumulators
  are filled by one scatter.  Each trial draws from its own generator in
  exactly the :func:`encode_reports_into` order, so the ``(T, k, m)``
  result is bit-for-bit ``T`` serial runs under the same seeds.
* :func:`encode_reports_grouped_into` is the opt-in *trial-group* mode:
  one sampled/hashed pass is shared by a whole (trial × epsilon) grid
  cell block — only the flip channel is drawn per trial and thresholded
  per epsilon (common random numbers).  Each cell's marginal distribution
  is exactly a single run's; only cross-cell correlations change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from ..accumulate import bincount_accumulate, scatter_add_signed_units
from ..errors import DomainError, ParameterError
from ..hashing import HashPairs, stack_pair_coefficients
from ..hashing.kwise import MERSENNE_PRIME_31, polyval_rows, reduce_mod_m
from ..rng import RandomState, ensure_rng
from ..transform.hadamard import (
    _popcount_parity,
    hadamard_entry,
    sample_hadamard_parities,
)
from ..validation import as_value_array
from .params import SketchParams

__all__ = [
    "ReportBatch",
    "encode_report",
    "encode_reports",
    "encode_reports_into",
    "encode_reports_trials_into",
    "encode_reports_grouped_into",
    "DEFAULT_CHUNK_SIZE",
]

#: Default client chunk of the fused encode→accumulate path.  Large enough
#: that per-chunk NumPy dispatch overhead is negligible, small enough that
#: the transient per-chunk arrays (~100 bytes per client across the
#: pipeline) plus the ``(k, m)`` accumulator stay L2-resident — a 1M-client
#: sweep measured 8192 ~20% faster than 64k chunks and ~40% faster than
#: 512k chunks.
DEFAULT_CHUNK_SIZE = 8_192


@dataclass(frozen=True)
class ReportBatch:
    """The wire format of a batch of client reports.

    Attributes
    ----------
    ys:
        Perturbed one-bit payloads in ``{-1, +1}`` (stored as ``int8``).
    rows:
        Sampled row indices ``j`` in ``[0, k)`` (stored as ``int32``).
    cols:
        Sampled column indices ``l`` in ``[0, m)`` (stored as ``int32``).
    params:
        Protocol parameters the reports were generated under.

    The storage dtypes are deliberately narrow — a report is one sign bit
    plus two small indices, so ``int8``/``int32`` shrink an in-memory
    million-report batch from 24 MB to 9 MB without changing
    :attr:`total_bits` (the *protocol* communication cost, which depends
    only on ``params.report_bits``).
    """

    ys: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    params: SketchParams

    def __post_init__(self) -> None:
        ys = np.asarray(self.ys, dtype=np.int64)
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if not (ys.shape == rows.shape == cols.shape) or ys.ndim != 1:
            raise ParameterError("ys, rows and cols must be equal-length 1-D arrays")
        if ys.size:
            if not np.all(np.abs(ys) == 1):
                raise ParameterError("ys must contain only -1/+1")
            if rows.min() < 0 or rows.max() >= self.params.k:
                raise ParameterError(f"rows must lie in [0, {self.params.k})")
            if cols.min() < 0 or cols.max() >= self.params.m:
                raise ParameterError(f"cols must lie in [0, {self.params.m})")
        # Validated values all fit the narrow wire dtypes.
        object.__setattr__(self, "ys", ys.astype(np.int8))
        object.__setattr__(self, "rows", rows.astype(np.int32))
        object.__setattr__(self, "cols", cols.astype(np.int32))

    def __len__(self) -> int:
        return int(self.ys.size)

    @property
    def total_bits(self) -> int:
        """Total communication cost of the batch in bits."""
        return len(self) * self.params.report_bits

    def concat(self, other: "ReportBatch") -> "ReportBatch":
        """Concatenate two batches generated under the same parameters."""
        if self.params != other.params:
            raise ParameterError("cannot concatenate reports with different parameters")
        return ReportBatch(
            np.concatenate([self.ys, other.ys]),
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            self.params,
        )


def encode_report(
    value: int,
    params: SketchParams,
    pairs: HashPairs,
    rng: RandomState = None,
) -> Tuple[int, int, int]:
    """Algorithm 1 for a single client; returns ``(y, j, l)``.

    Literal transcription of the pseudo-code (including materialising the
    one-hot vector and the full transform); useful for audits and as the
    reference the vectorised path is tested against.
    """
    _check_pairs(params, pairs)
    generator = ensure_rng(rng)
    j = int(generator.integers(0, params.k))
    l = int(generator.integers(0, params.m))
    v = np.zeros(params.m, dtype=np.float64)
    bucket = int(pairs.bucket(j, np.asarray([value]))[0])
    sign = int(pairs.sign(j, np.asarray([value]))[0])
    v[bucket] = sign
    # w = v @ H_m; only entry l is needed and v is one-hot:
    w_l = v[bucket] * hadamard_entry(bucket, l, params.m)
    b = -1 if generator.random() < params.flip_probability else 1
    y = int(b * w_l)
    return y, j, l


def encode_reports(
    values: Iterable[int],
    params: SketchParams,
    pairs: HashPairs,
    rng: RandomState = None,
) -> ReportBatch:
    """Vectorised Algorithm 1 over a batch of clients.

    Each element of ``values`` is one independent client; all sampling
    (rows, columns, perturbation signs) is drawn from ``rng``.
    """
    _check_pairs(params, pairs)
    arr = as_value_array(values)
    generator = ensure_rng(rng)
    ys, rows, cols = _encode_chunk(arr, params, pairs, generator)
    return ReportBatch(ys, rows, cols, params)


def encode_reports_into(
    values: Iterable[int],
    params: SketchParams,
    pairs: HashPairs,
    out: np.ndarray,
    rng: RandomState = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Fused Algorithm 1 + accumulation: encode clients straight into ``out``.

    Simulates the clients in chunks of ``chunk_size`` and folds each
    chunk's ``(y, j, l)`` reports into the ``(k, m)`` *pre-transform
    integer* accumulator ``out`` (``out[j, l] += y``) without ever holding
    the O(n) report arrays — peak transient memory is O(chunk_size)
    regardless of the population size.

    The RNG draw order within each chunk matches :func:`encode_reports`
    exactly, so for any chunking the result is bit-for-bit identical to
    encoding the same chunks with :func:`encode_reports` (sharing the
    generator) and scatter-adding each batch; with ``chunk_size >= n`` it
    is bit-for-bit the single-batch path.

    Parameters
    ----------
    values:
        One private join value per client.
    params, pairs:
        Protocol parameters and published hash pairs (as in
        :func:`encode_reports`).
    out:
        Integer accumulator of shape ``(k, m)``; modified in place.
    rng:
        Randomness source for all sampling.
    chunk_size:
        Number of clients encoded per pass.

    Returns
    -------
    int
        Number of reports folded into ``out``.
    """
    _check_pairs(params, pairs)
    if not isinstance(out, np.ndarray) or not np.issubdtype(out.dtype, np.integer):
        raise ParameterError("out must be an integer ndarray accumulator")
    if out.shape != (params.k, params.m):
        raise ParameterError(
            f"out shaped {out.shape} does not match ({params.k}, {params.m})"
        )
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size <= 0:
        raise ParameterError(f"chunk_size must be a positive int, got {chunk_size!r}")
    arr = as_value_array(values)
    # Validate the whole batch up front: a mid-stream failure must not
    # leave ``out`` holding the earlier chunks' reports (the caller's
    # accumulator would be silently corrupted but its bookkeeping not).
    if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
    generator = ensure_rng(rng)
    n = arr.size
    bucket_coeffs = pairs._bucket_coeffs
    sign_coeffs = pairs._sign_coeffs
    # Heterogeneous hash degrees (hand-built pairs) or a non-contiguous
    # accumulator take the generic encode + scatter path: identical
    # output, it merely re-derives the hashes per array.
    fused = (
        out.flags.c_contiguous and bucket_coeffs is not None and sign_coeffs is not None
    )
    for start in range(0, n, int(chunk_size)):
        chunk = arr[start : start + int(chunk_size)]
        if not fused:
            ys, rows, cols = _encode_chunk(
                chunk, params, pairs, generator, domain_checked=True
            )
            scatter_add_signed_units(out, (rows, cols), ys)
            continue
        c = chunk.size
        # Draw order is the wire contract (rows, cols, flip uniforms)
        # — the hash evaluation between the draws consumes no
        # randomness, so hoisting the flip draw keeps the stream
        # identical to :func:`encode_reports`.
        rows = generator.integers(0, params.k, size=c)
        cols = generator.integers(0, params.m, size=c)
        flips = generator.random(c) < params.flip_probability
        _fused_encode_accumulate(
            bucket_coeffs, sign_coeffs, chunk.astype(np.uint64), rows, cols,
            flips, params.m, out,
        )
    return int(n)


def encode_reports_trials_into(
    values: Iterable[int],
    params: SketchParams,
    pairs: Union[HashPairs, Sequence[HashPairs]],
    out: np.ndarray,
    rngs: Sequence[RandomState],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Fused Algorithm 1 for ``T`` independent trials in one value pass.

    Simulates the same client population ``T`` times — once per trial —
    folding trial ``t``'s reports into ``out[t]``.  Every chunk of the
    value array is loaded, range-checked and converted exactly once; the
    ``T`` trials' bucket/sign hashes are evaluated in a single gathered
    Horner pass over ``T * chunk`` elements (one coefficient matrix
    stacked per trial group, built once per call), and all ``T``
    accumulators are filled by one scatter.

    Each trial draws ``rows``, ``cols`` and flip uniforms from its *own*
    generator in exactly the order :func:`encode_reports_into` uses, so
    ``out[t]`` is bit-for-bit the accumulator of
    ``encode_reports_into(values, params, pairs[t], out_t, rngs[t],
    chunk_size)`` — the trial axis changes wall-clock, never bits.

    Parameters
    ----------
    values:
        One private join value per client (shared by every trial).
    params:
        Protocol parameters, shared by every trial.
    pairs:
        Either one :class:`HashPairs` shared by all trials or a sequence
        of ``T`` per-trial pairs (the independent-trials setting of the
        experiment harness).
    out:
        Integer accumulator of shape ``(T, k, m)``; modified in place.
    rngs:
        ``T`` per-trial randomness sources (seed or generator each).
    chunk_size:
        Number of clients encoded per pass (per trial).

    Returns
    -------
    int
        Number of clients encoded (per trial).
    """
    pairs_list = [pairs] if isinstance(pairs, HashPairs) else list(pairs)
    generators = [ensure_rng(r) for r in rngs]
    trials = len(generators)
    if trials == 0:
        raise ParameterError("need at least one trial generator")
    if len(pairs_list) == 1:
        pairs_list = pairs_list * trials
    if len(pairs_list) != trials:
        raise ParameterError(
            f"got {len(pairs_list)} hash pairs for {trials} trials; pass one "
            f"shared HashPairs or exactly one per trial"
        )
    for p in pairs_list:
        _check_pairs(params, p)
    if not isinstance(out, np.ndarray) or not np.issubdtype(out.dtype, np.integer):
        raise ParameterError("out must be an integer ndarray accumulator")
    if out.shape != (trials, params.k, params.m):
        raise ParameterError(
            f"out shaped {out.shape} does not match ({trials}, {params.k}, {params.m})"
        )
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size <= 0:
        raise ParameterError(f"chunk_size must be a positive int, got {chunk_size!r}")
    arr = as_value_array(values)
    if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
    stacked = stack_pair_coefficients(pairs_list)
    if stacked is None or not out.flags.c_contiguous:
        # Heterogeneous hash degrees (hand-built pairs): fall back to the
        # serial kernel per trial — each generator still sees its own
        # draws in the contract order, so the result is unchanged.
        for t in range(trials):
            encode_reports_into(
                arr, params, pairs_list[t], out[t], generators[t],
                chunk_size=chunk_size,
            )
        return int(arr.size)
    bucket_coeffs, sign_coeffs = stacked
    n = arr.size
    for start in range(0, n, int(chunk_size)):
        chunk = arr[start : start + int(chunk_size)]
        c = chunk.size
        rows = np.empty((trials, c), dtype=np.int64)
        cols = np.empty((trials, c), dtype=np.int64)
        for t, generator in enumerate(generators):
            rows[t] = generator.integers(0, params.k, size=c)
            cols[t] = generator.integers(0, params.m, size=c)
        flips = np.empty((trials, c), dtype=bool)
        for t, generator in enumerate(generators):
            flips[t] = generator.random(c) < params.flip_probability
        # All T trials' hashes ride one gathered kernel call (trial t's
        # polynomials sit at stacked columns t*k + j); each trial's
        # reports land in its own (k, m) accumulator.
        _fused_encode_accumulate_trials(
            bucket_coeffs, sign_coeffs, chunk.astype(np.uint64), rows, cols,
            flips, params.m, out,
        )
    return int(n)


def encode_reports_grouped_into(
    values: Iterable[int],
    pairs: HashPairs,
    epsilons: Sequence[float],
    out: np.ndarray,
    sample_rng: RandomState,
    trial_rngs: Sequence[RandomState],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Trial-group kernel: hash/sample once, perturb per (trial, epsilon).

    The opt-in fast mode of the sweep engine.  One pass draws the
    ``(j, l)`` samples and evaluates the bucket/sign/Hadamard parities of
    every client (from ``sample_rng``); each of the ``T`` trials then
    draws one uniform per client (from its own generator) and every
    epsilon thresholds those *same* uniforms at its flip probability —
    common random numbers across the epsilon axis.  ``out[t, e]``
    accumulates the grid cell of trial ``t`` under ``epsilons[e]``.

    Marginally each ``out[t, e]`` is distributed exactly like a single
    :func:`encode_reports_into` run (the shared draws are marginalised by
    drawing them); what changes is only the *cross-cell* correlation —
    trials of one group share sampling noise, epsilons of one trial share
    perturbation uniforms.  Means stay unbiased per cell; cross-trial
    averages no longer shrink the shared sampling noise, which is the
    price of hashing once.  The default sweep mode therefore remains the
    independent-trials path.

    Parameters
    ----------
    values:
        One private join value per client (shared by the whole group).
    pairs:
        The group's published hash pairs (shape ``(k, m)``).
    epsilons:
        ``E`` privacy budgets, one accumulator column each.
    out:
        C-contiguous integer accumulator of shape ``(T, E, k, m)``.
    sample_rng:
        Randomness of the shared row/column sampling.
    trial_rngs:
        ``T`` per-trial randomness sources for the flip uniforms.
    chunk_size:
        Number of clients encoded per pass.

    Returns
    -------
    int
        Number of clients encoded (per grid cell).
    """
    from ..privacy.response import flip_probability

    sampler = ensure_rng(sample_rng)
    generators = [ensure_rng(r) for r in trial_rngs]
    trials = len(generators)
    if trials == 0:
        raise ParameterError("need at least one trial generator")
    probs = np.asarray([flip_probability(e) for e in epsilons], dtype=np.float64)
    if probs.size == 0:
        raise ParameterError("need at least one epsilon")
    k, m = pairs.k, pairs.m
    if not isinstance(out, np.ndarray) or not np.issubdtype(out.dtype, np.integer):
        raise ParameterError("out must be an integer ndarray accumulator")
    if out.shape != (trials, probs.size, k, m):
        raise ParameterError(
            f"out shaped {out.shape} does not match "
            f"({trials}, {probs.size}, {k}, {m})"
        )
    if not out.flags.c_contiguous:
        raise ParameterError("out must be C-contiguous (one flat scatter per chunk)")
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size <= 0:
        raise ParameterError(f"chunk_size must be a positive int, got {chunk_size!r}")
    arr = as_value_array(values)
    if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
    num_eps = int(probs.size)
    # Factorisation that makes extra grid cells nearly free: with
    # ``s`` the unperturbed report sign and ``f = [u < p_eps]`` the flip
    # indicator, cell ``(t, e)`` accumulates ``sum s * (1 - 2 f)``
    # = ``S - 2 * F[t, e]`` where ``S = sum s`` is *shared by every cell*
    # and ``F[t, e] = sum_{u_t < p_e} s``.  Because the flip thresholds
    # are nested, an element with uniform ``u`` contributes to exactly
    # the epsilons whose ``p > u`` — so per trial one ``searchsorted``
    # bins each client into its threshold band and only the ~``p_max``
    # fraction that flips anywhere is scattered at all.  Integer sums
    # throughout: bit-identical to materialising every ``(t, e)`` report.
    order = np.argsort(probs, kind="stable")
    p_sorted = probs[order]
    shared = np.zeros(k * m, dtype=np.int64)
    bands = np.zeros((trials, num_eps, k * m), dtype=np.int64)
    use_kernel = pairs._bucket_coeffs is not None and pairs._sign_coeffs is not None
    n = arr.size
    for start in range(0, n, int(chunk_size)):
        chunk = arr[start : start + int(chunk_size)]
        c = chunk.size
        rows = sampler.integers(0, k, size=c)
        cols = sampler.integers(0, m, size=c)
        if use_kernel:
            cell, base_signs = _fused_encode_shared_pass(
                pairs._bucket_coeffs, pairs._sign_coeffs,
                chunk.astype(np.uint64), rows, cols, m,
            )
        else:
            buckets, sign_parity = pairs.bucket_and_sign_parity_rows(
                rows, chunk, domain_checked=True
            )
            base_signs = 1 - 2 * (
                sign_parity ^ sample_hadamard_parities(buckets, cols, m)
            )
            cell = rows * m + cols
        scatter_add_signed_units(shared, (cell,), base_signs)
        for t, generator in enumerate(generators):
            band = np.searchsorted(p_sorted, generator.random(c), side="right")
            flipped = band < num_eps
            if np.any(flipped):
                idx = band[flipped] * (k * m) + cell[flipped]
                scatter_add_signed_units(
                    bands[t].reshape(-1), (idx,), base_signs[flipped]
                )
    # F accumulates over ascending thresholds (band j flips every epsilon
    # with sorted position >= j); undo the sort when writing out.
    flipped_sums = np.cumsum(bands, axis=1)
    out_flat = out.reshape(trials, num_eps, k * m)
    for e_sorted, e_orig in enumerate(order):
        out_flat[:, e_orig, :] += shared[None, :] - 2 * flipped_sums[:, e_sorted, :]
    return int(n)


def _encode_chunk(
    arr: np.ndarray,
    params: SketchParams,
    pairs: HashPairs,
    generator: np.random.Generator,
    *,
    domain_checked: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vectorised Algorithm 1 pass; the draw order is the wire contract.

    Draws ``rows``, then ``cols``, then the flip uniforms — both
    :func:`encode_reports` and every chunk of :func:`encode_reports_into`
    go through here, which is what keeps the two paths bit-for-bit
    equivalent under a shared generator.
    """
    n = arr.size
    rows = generator.integers(0, params.k, size=n)
    cols = generator.integers(0, params.m, size=n)
    buckets, sign_parity = pairs.bucket_and_sign_parity_rows(
        rows, arr, domain_checked=domain_checked
    )
    hadamard_parity = sample_hadamard_parities(buckets, cols, params.m)
    flips = generator.random(n) < params.flip_probability
    # y = xi * H[h, l] * b is a product of three signs; XOR-ing their
    # parity bits computes it in integer passes without ±1 multiplies.
    ys = 1 - 2 * (sign_parity ^ hadamard_parity ^ flips)
    return ys, rows, cols


def _base_parity(
    bucket_coefficients_t: np.ndarray,
    sign_coefficients_t: np.ndarray,
    x: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    m: int,
) -> np.ndarray:
    """Each report's sign bit before the flip: sign-hash ⊕ Hadamard parity.

    The front half shared by the three fused kernels below.  ``x`` holds
    uint64 values already checked to lie in ``[0, p)``; ``rows`` / ``cols``
    are int64 draws in range; the coefficient matrices are the
    transposed ``(degree, R)`` layouts of :mod:`repro.hashing.pairs`.
    """
    buckets = reduce_mod_m(polyval_rows(bucket_coefficients_t, rows, x), m)
    sign_parity = (
        polyval_rows(sign_coefficients_t, rows, x) & np.uint64(1)
    ).astype(np.int64)
    # The AND result is freshly allocated — donate it as fold scratch;
    # indices are < m so the parity fold is log2(m)-bit bounded.
    hadamard_parity = _popcount_parity(
        np.bitwise_and(buckets, cols), bits=max(1, int(m).bit_length() - 1),
        consume=True,
    )
    return sign_parity ^ hadamard_parity


def _fused_encode_accumulate(
    bucket_coefficients_t, sign_coefficients_t, x, rows, cols, flips, m, out
) -> None:
    """One chunk of perturbed reports folded into a ``(k, m)`` sketch."""
    base_parity = _base_parity(
        bucket_coefficients_t, sign_coefficients_t, x, rows, cols, m
    )
    # y = xi * H[h, l] * b is a product of three signs; XOR-ing their
    # parity bits computes it in integer passes without ±1 multiplies.
    ys = 1 - 2 * (base_parity ^ flips)
    flat = rows * np.int64(out.shape[1]) + cols
    bincount_accumulate(out, flat, ys)


def _fused_encode_accumulate_trials(
    bucket_coefficients_t, sign_coefficients_t, x, rows, cols, flips, m, out
) -> None:
    """``T`` trials of one value chunk: ``rows``/``cols``/``flips`` are ``(T, c)``.

    Trial ``t``'s coefficient columns sit at ``t * k + rows[t, i]`` in the
    stacked ``(degree, T * k)`` matrices
    (:func:`repro.hashing.pairs.stack_pair_coefficients`); ``out`` is
    ``(T, k, m)``.  Equal to ``T`` :func:`_fused_encode_accumulate` calls
    on ``out[t]`` bit for bit.
    """
    trials, c = rows.shape
    k = out.shape[1]
    # One gathered Horner pass over T * c elements: trial t's row-j
    # polynomial sits at stacked column t * k + j.
    row_offsets = (np.arange(trials, dtype=np.int64) * k)[:, None]
    x_all = np.tile(x, trials)
    idx = (row_offsets + rows).ravel()
    base_parity = _base_parity(
        bucket_coefficients_t, sign_coefficients_t, x_all, idx, cols.ravel(), m
    )
    ys = (1 - 2 * (base_parity ^ flips.ravel())).reshape(trials, c)
    # Scatter per trial: each histogram then targets one (k, m)
    # accumulator (L2-resident) instead of one T-times-larger flat
    # block — the integer sums are identical either way.
    for t in range(trials):
        flat = rows[t] * np.int64(m) + cols[t]
        bincount_accumulate(out[t], flat, ys[t])


def _fused_encode_shared_pass(
    bucket_coefficients_t, sign_coefficients_t, x, rows, cols, m
) -> Tuple[np.ndarray, np.ndarray]:
    """The grouped mode's shared half: ``(cell, base_signs)`` before any flip.

    ``cell[i] = rows[i] * m + cols[i]`` is the int64 flat sketch index
    and ``base_signs[i]`` in ``{-1, +1}`` the unperturbed report sign.
    """
    base_parity = _base_parity(
        bucket_coefficients_t, sign_coefficients_t, x, rows, cols, m
    )
    cell = rows * np.int64(m) + cols
    return cell, 1 - 2 * base_parity


def _check_pairs(params: SketchParams, pairs: HashPairs) -> None:
    if pairs.k != params.k or pairs.m != params.m:
        raise ParameterError(
            f"hash pairs shaped ({pairs.k}, {pairs.m}) do not match params "
            f"({params.k}, {params.m})"
        )
