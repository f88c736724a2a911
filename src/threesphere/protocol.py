"""Local hidden-variable measurement protocol for photon-polarization runs.

The shared hidden variable of a run is a :class:`~.algebra.Handedness`:
the orientation of the whole even subalgebra, drawn 50/50 per trial.
Each station turns its polarizer angle into an equatorial point of the
3-sphere (a unit bivector); the two outcome functions read nothing but
their own angle and the shared orientation.  The product of the two
outcomes, taken in the basis the orientation selects, is again a
3-sphere point with the closed form

    ``cos 2(alpha - beta) + sign * sin 2(alpha - beta) * e_xy``.

The axis, outcome and closed-form functions also take arrays of radians
and of +1/-1 orientation signs, and return stacked rows; among arrays, a
:class:`PolarizerAngle` or :class:`~.algebra.Handedness` is one row.
:func:`run_trials` runs the protocol that way.  It takes the estimators'
angle arguments, two :class:`PolarizerAngle` or two radian arrays whose
broadcast pairs are the settings, and returns one row per trial, every
trial at once, as the :class:`Trials` columns ``signs``, ``alpha``,
``beta``, ``outcome_a``, ``outcome_b`` and ``product``.

Orientation sampling uses the splitmix64 generator (Steele, Lea and
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014), so
the i-th draw is a pure function of ``(seed, i)``: any contiguous block of
trials can be recomputed independently, which is what makes sharded and
single-thread runs identical.

One pass, :func:`_top_bits`, walks the stream in chunks of
:data:`SIGN_CHUNK` draws through three preallocated uint64 buffers and one
bool buffer (1.6 MB, small enough for a per-core L2 cache); two reductions
read it.  It takes the chunk starts as an argument, so threads that share
one iterator of them split a sum between them.  Each call builds its uint64
operands once, as 0-d arrays, and full chunks use the whole buffers, so a
chunk's eight ufunc calls hold the GIL only briefly and passes on several
threads overlap.  The last of them writes the draws' top bits, read as the
sign bits of their float64 view, into the bool buffer.
:func:`handedness_signs` maps those to an int64 array of signs at 8 bytes
per sign plus the buffers; :func:`handedness_sign_sum`, the estimators'
kernel, counts them in constant memory.  Buffers are sized to the first
chunk a call takes, so calls shorter than a chunk get short ones.
Positions ``start`` must be non-negative and are taken modulo the
counter's period 2**64.

The sum is the one place threads share the stream.  Given ``threads``,
``min(threads, os.cpu_count(), chunks)`` threads share it, at least one,
as :func:`stream_summary` reports: the calling thread and a pool opened for
the call claim chunk starts from one shared range until none is left, so
``k`` threads start ``k - 1`` and none of them outlives the sum.
"""

from __future__ import annotations

import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import (
    EvenElement,
    Vector3,
    _gap,
    _result,
    _signs,
    dual_bivector,
    oriented_even_product,
)

__all__ = [
    "PolarizerAngle",
    "Trials",
    "SIGN_CHUNK",
    "handedness_signs",
    "handedness_sign_sum",
    "stream_summary",
    "polarizer_axis",
    "alice_outcome",
    "bob_outcome",
    "joint_product_closed_form",
    "run_trials",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

# Draws per chunk of the stream pass; 2**14 and 2**18 both measured slower.  On
# two threads the interpreter lock, taken around each ufunc call, costs more as
# chunks shrink: the two-thread sum of 2*10**7 draws took 65-70 ms at 2**14,
# 37-42 ms at 2**15 and 32.5-33 ms at 2**16 (2-vCPU host).  Two forked processes
# summing half each took 32.5-36.6 ms, no less than the two threads' 32.8-35.8 ms,
# and a fork plus its wait alone costs about 2 ms, so a process pool would not pay.
SIGN_CHUNK = 1 << 16


def _top_bits(seed: int, firsts, end: int):
    """Sign bits of the splitmix64 draws for ``seed``, one chunk per start taken from ``firsts``.

    ``firsts`` is an iterable of chunk starts in increasing order, ``SIGN_CHUNK`` apart,
    and the chunk at ``first`` covers draws ``first .. min(first + SIGN_CHUNK, end) - 1``.
    Yields each chunk's start and a bool view, True where the draw is negative,
    overwritten by the next chunk.  The first start taken sizes the buffers,
    so a short contiguous range gets short ones.  The mixer's final
    ``z ^= z >> 31`` keeps the top bit and is skipped; ``np.signbit`` reads
    that bit through the float64 view of every bit pattern, NaNs included.
    """
    seed = operator.index(seed)  # a Python int, so a numpy seed cannot overflow the offset
    gamma, mix_1, mix_2, by_30, by_27 = (
        np.array(value, dtype=np.uint64) for value in (_GAMMA, _MIX_1, _MIX_2, 30, 27)
    )
    ramp = None
    for first in firsts:
        size = min(SIGN_CHUNK, end - first)
        if ramp is None:
            ramp = np.arange(size, dtype=np.uint64)
            ramp *= gamma  # ramp[i] = i * gamma; chunk draws are ramp + (seed + (first + 1) * gamma)
            z, t, negative = np.empty_like(ramp), np.empty_like(ramp), np.empty(size, dtype=bool)
        rs, zs, ts, ns = (
            (ramp, z, t, negative) if size == ramp.size
            else (ramp[:size], z[:size], t[:size], negative[:size])
        )
        offset = np.array((seed + (first + 1) * _GAMMA) & _MASK64, dtype=np.uint64)
        np.add(rs, offset, out=zs)
        np.right_shift(zs, by_30, out=ts)
        np.bitwise_xor(zs, ts, out=zs)
        np.multiply(zs, mix_1, out=zs)
        np.right_shift(zs, by_27, out=ts)
        np.bitwise_xor(zs, ts, out=zs)
        np.multiply(zs, mix_2, out=zs)
        np.signbit(zs.view(np.float64), out=ns)
        yield first, ns


def _checked(count, start) -> tuple:
    """``count`` and ``start`` as Python ints, so numpy integers cannot overflow the offset."""
    count, start = operator.index(count), operator.index(start)
    if count < 0 or start < 0:
        raise ValueError(f"count and start must be non-negative, got {count} and {start}")
    return count, start


def handedness_signs(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Orientation signs ``start .. start+count-1`` of the stream for ``seed``.

    Returns int64 +1/-1 values; element ``i`` depends only on ``(seed, start+i)``.
    """
    count, start = _checked(count, start)
    signs = np.empty(count, dtype=np.int64)
    for first, negative in _top_bits(seed, range(start, start + count, SIGN_CHUNK), start + count):
        flags = negative.view(np.int8)
        np.multiply(flags, -2, out=flags)  # 0 or -2, in the chunk's own buffer
        np.add(flags, 1, out=signs[first - start : first - start + flags.size])
    return signs


def stream_summary(n: int, threads: int) -> dict:
    """Threads that share one sign sum over ``n`` trials, its chunk size and its chunks.

    The threads are ``min(threads, os.cpu_count(), chunks)``, at least 1, the calling
    thread included.  ``threads`` must be an integer of at least 1.
    """
    threads = operator.index(threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    chunks = -(-n // SIGN_CHUNK)
    shards = max(1, min(threads, os.cpu_count() or 1, chunks))
    return {"shards": shards, "chunk_size": SIGN_CHUNK, "chunks": chunks}


def handedness_sign_sum(seed: int, count: int, start: int = 0, threads: int = 1) -> int:
    """Exact sum of orientation signs ``start .. start+count-1`` for ``seed``.

    Equals ``int(handedness_signs(seed, count, start).sum())``; counts the negative draws.
    The calling thread and ``stream_summary(count, threads)["shards"] - 1`` threads of a
    pool opened for this call take chunk starts from one shared iterator, each into its
    own buffers, until none is left; a thread that starts late or runs slow takes fewer
    chunks.  Each claim is one ``next()`` on a ``range`` iterator, which holds the GIL
    throughout, so no chunk is taken twice.  The totals are integers, so the sum is
    identical for every split of the chunks.  A thread whose chunk raises drains the
    iterator before re-raising, so the others stop at their next claim; the pool is
    joined before the sum returns or raises.  ``threads`` below 1 raises ``ValueError``.
    """
    count, start = _checked(count, start)
    workers = stream_summary(count, threads)["shards"] - 1
    end = start + count
    firsts = iter(range(start, end, SIGN_CHUNK))

    def negatives() -> int:
        try:
            return sum(np.count_nonzero(negative) for _, negative in _top_bits(seed, firsts, end))
        except BaseException:
            deque(firsts, maxlen=0)
            raise

    if not workers:
        return count - 2 * negatives()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = [pool.submit(negatives) for _ in range(workers)]
        return count - 2 * (negatives() + sum(part.result() for part in parts))


@dataclass(frozen=True)
class PolarizerAngle:
    """Polarizer orientation in the plane perpendicular to the beam axis.

    Everything downstream depends on the angle only through ``2*theta``,
    so shifting by half a turn changes nothing.
    """

    radians: float

    def __post_init__(self):
        if not math.isfinite(self.radians):
            raise ValueError(f"angle must be finite, got {self.radians!r}")
        object.__setattr__(self, "radians", float(self.radians))

    @classmethod
    def from_degrees(cls, degrees: float) -> "PolarizerAngle":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


def _radians(theta):
    if isinstance(theta, PolarizerAngle):
        return theta.radians
    radians = np.asarray(theta, dtype=float)
    if not np.isfinite(radians).all():
        raise ValueError("angles must be finite")
    return radians


def polarizer_axis(theta):
    """Unit axis ``(sin 2t, cos 2t, 0)`` associated with a polarizer angle."""
    two_t = 2.0 * _radians(theta)
    return _result(Vector3, (np.sin(two_t), np.cos(two_t), 0.0), theta)


def alice_outcome(alpha, handedness):
    """First station's outcome: the oriented dual of its polarizer axis.

    Reads only its own angle and the shared orientation; always an
    equatorial point of the unit 3-sphere.
    """
    return dual_bivector(handedness, polarizer_axis(alpha))


def bob_outcome(beta, handedness):
    """Second station's outcome: the negated oriented dual of its axis.

    The sign convention makes parallel polarizers multiply to +1, i.e.
    give identical outcomes.
    """
    return -dual_bivector(handedness, polarizer_axis(beta))


def joint_product_closed_form(alpha, beta, handedness):
    """Closed form of the outcome product, a point on a circle in the 3-sphere.

    Equals the direct :func:`~.algebra.oriented_even_product` of the two
    outcomes for every angle pair and either orientation.  The scalar
    part ``cos 2(alpha-beta)`` does not depend on the orientation; the
    bivector part carries the orientation sign on the ``e_xy`` axis.
    """
    d = 2.0 * (_radians(alpha) - _radians(beta))
    coeffs = (np.cos(d), 0.0, 0.0, _signs(handedness) * np.sin(d))
    return _result(EvenElement, coeffs, alpha, beta, handedness)


@dataclass(frozen=True, eq=False)
class Trials:
    """Every trial of a run as columns, in stream order.

    ``signs`` holds the ``(N,)`` int64 +1/-1 orientations, ``alpha`` and
    ``beta`` the ``(N,)`` polarizer radians, and ``outcome_a``,
    ``outcome_b`` and their ``product`` are ``(N, 4)`` even-element rows.
    """

    signs: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    product: np.ndarray


def run_trials(alpha, beta, n: int, seed: int) -> Trials:
    """Run ``n`` trials of every angle pair, all trials at once.

    The angles are two :class:`PolarizerAngle` or two radian arrays, as for
    :func:`~.correlations.joint_expectation`; the pairs of their broadcast
    shape, in C order, are the angle pairs.  Pair ``p`` takes rows and
    stream positions ``p*n .. (p+1)*n - 1``, so the same trial always sees
    the same orientation regardless of how the work is split up.  The
    direct products are cross-checked against the closed form; a
    disagreement beyond 1e-12 would mean the algebra and the trig shortcut
    have diverged, and raises ``ArithmeticError``.
    """
    if n < 1:
        raise ValueError(f"trial count must be at least 1, got {n}")
    pairs = np.broadcast_arrays(_radians(alpha), _radians(beta))
    if not pairs[0].size:
        raise ValueError("at least one angle pair is required")
    signs = handedness_signs(seed, n * pairs[0].size)
    alpha, beta = (np.repeat(column.ravel(), n) for column in pairs)
    outcome_a = alice_outcome(alpha, signs)
    outcome_b = bob_outcome(beta, signs)
    product = oriented_even_product(signs, outcome_a, outcome_b)
    if _gap(product, joint_product_closed_form(alpha, beta, signs)) > 1e-12:
        raise ArithmeticError("direct product and closed form disagree beyond 1e-12")
    return Trials(signs, alpha, beta, outcome_a, outcome_b, product)
