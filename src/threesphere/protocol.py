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

Every draw of the package is a word of one lane of that stream, the
key/counter design of Salmon et al. ("Parallel random numbers: as easy as
1, 2, 3", SC 2011).  Word ``i`` of lane ``k`` for ``seed`` is splitmix64's
output at position ``i`` from a key: the seed itself for lane 0, which is
the orientation stream bit for bit, and ``mix(seed ^ mix(k * gamma))`` for
lane ``k > 0``, where ``mix`` is splitmix64's output mixer.  There are three
views: :func:`stream_words`, the words as uint64; :func:`stream_uniform`,
``((w >> 12) + 0.5) * 2**-52``, strictly inside (0, 1); and the top bit,
which :func:`handedness_signs` and :func:`handedness_sign_sum` read.  Lane 0
of a run's seed gives the trials' orientations and the protocol suite's;
``factorize_s3_point`` draws from lane 1 of its own seed; the identity suites
draw from lanes 1 and up of the ``verify`` seed, as ``suites`` lists.  No
module uses numpy's own generators.

One kernel, :func:`_states`, computes all three views.  It writes into a
uint64 chunk of at most :data:`SIGN_CHUNK` words the splitmix64 states of
consecutive words of a key: the whole mixer but its final ``z ^= z >> 31``,
which leaves the top bit unchanged.  It adds the chunk's offset to a
read-only ``i * gamma`` ramp of ``SIGN_CHUNK`` words (512 KB, shared by every
call and thread) and mixes in place through one scratch chunk.  The uint64
operands, 0-d arrays, are built once at import, so a chunk's seven ufunc
calls hold the GIL only briefly and passes on several threads overlap.  The
ramp is built on the first draw, so a command that draws nothing, such as
``chsh``, never holds it.  :func:`stream_words` runs the kernel a chunk at
a time into slices of its result, at 8 bytes per word plus one scratch
chunk, and ends each chunk's mixer; :func:`handedness_signs` maps lane 0's
words to int64 signs in their own buffer, at the same cost.
:func:`handedness_sign_sum`, the estimators' kernel, counts the states' top
bits, read as the sign bits of their float64 view, in constant memory: two
uint64 chunks and one bool chunk per thread (1.1 MB, small enough for a
per-core L2 cache).  Chunks are sized to the
first chunk a call or thread takes, so calls shorter than a chunk get short
ones.  Positions ``start`` must be non-negative and are taken modulo the
counter's period 2**64.

The sum is the one place threads share the stream.  Given ``threads``,
``min(threads, os.cpu_count(), chunks)`` threads share it, at least one,
as :func:`stream_summary` reports: the calling thread and ``k - 1`` plain
:class:`threading.Thread` workers started for the call claim chunk starts
from one shared range until none is left, and none of them outlives the
sum.  No executor module is imported, so a threaded sum loads nothing that
a one-thread sum does not, and the calling thread builds the ramp before it
starts the workers.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from collections import deque
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
    "stream_words",
    "stream_uniform",
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
# chunks shrink: the two-thread sum of 2*10**7 draws took 50-82 ms at 2**14,
# 35-47 ms at 2**15, 29-39 ms at 2**16 and 43-51 ms at 2**18 (2-vCPU host).  Two
# forked processes summing half each took about 35 ms, no less than the two
# threads' 32-36 ms, and a fork plus its wait alone costs about 3 ms, so a process
# pool would not pay (BENCH_one_closed_form.json, comment_timings).
SIGN_CHUNK = 1 << 16


def _mix64(z: int) -> int:
    """The splitmix64 output mixer of one 64-bit Python int."""
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


def _key(seed: int, lane: int) -> int:
    """The splitmix64 state that ``lane`` of ``seed`` counts from: the seed for lane 0."""
    seed, lane = operator.index(seed) & _MASK64, operator.index(lane)
    if not 0 <= lane <= _MASK64:
        raise ValueError(f"lane must be in [0, 2**64), got {lane}")
    return _mix64(seed ^ _mix64(lane * _GAMMA & _MASK64)) if lane else seed


# The mixer's uint64 operands as 0-d arrays, built once: gamma, the two multipliers
# and the shifts.  Nothing writes to them, so every call and thread shares them.
_OPERANDS = tuple(np.array(v, dtype=np.uint64) for v in (_GAMMA, _MIX_1, _MIX_2, 30, 27, 31))


@functools.cache
def _ramp() -> np.ndarray:
    """``i * gamma`` for ``i < SIGN_CHUNK``, built in place on the first draw, then read-only.

    Word ``first + i`` of a key counts from the state ``key + (first + 1 + i) * gamma``,
    one offset added to the ramp.  Every later call and thread shares this one array.
    """
    ramp = np.arange(SIGN_CHUNK, dtype=np.uint64)
    ramp *= _OPERANDS[0]
    ramp.flags.writeable = False
    return ramp


def _states(key: int, first: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Writes into ``z`` the splitmix64 states of words ``first ..`` from ``key``; returns ``z``.

    A state is the whole mixer but its final ``z ^= z >> 31``, which leaves the top
    bit unchanged.  ``z`` holds at most ``SIGN_CHUNK`` words and ``t`` is scratch of
    its size.  This is the one array copy of the mixer.
    """
    _, mix_1, mix_2, by_30, by_27, _ = _OPERANDS
    np.add(_ramp()[: z.size], np.uint64((key + (first + 1) * _GAMMA) & _MASK64), out=z)
    np.right_shift(z, by_30, out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, mix_1, out=z)
    np.right_shift(z, by_27, out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, mix_2, out=z)
    return z


def _checked(count, start) -> tuple:
    """``count`` and ``start`` as Python ints, so numpy integers cannot overflow the offset."""
    count, start = operator.index(count), operator.index(start)
    if count < 0 or start < 0:
        raise ValueError(f"count and start must be non-negative, got {count} and {start}")
    return count, start


def handedness_signs(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Orientation signs ``start .. start+count-1`` of the stream for ``seed``.

    Returns int64 +1/-1 values; element ``i`` depends only on ``(seed, start+i)``.
    They are ``1 - 2 * (w >> 63)`` of the lane-0 words ``w`` of :func:`stream_words`,
    computed in the words' own buffer as an arithmetic shift to 0 or -1, then ``| 1``.
    """
    signs = stream_words(seed, 0, start, count).view(np.int64)
    signs >>= 63
    signs |= 1
    return signs


def stream_words(seed: int, lane: int, start: int, count: int) -> np.ndarray:
    """Words ``start .. start+count-1`` of ``lane`` of the stream for ``seed``, as uint64.

    Element ``i`` depends only on ``(seed, lane, start+i)``: it is splitmix64's
    output at position ``start+i`` from the lane's key, the seed itself for lane 0
    and ``mix(seed ^ mix(lane * gamma))`` above.  Lane 0 is the orientation
    stream; its words' top bits are :func:`handedness_signs`.  :func:`_states`
    writes the words a chunk at a time into slices of the result, through one
    scratch chunk.  ``lane`` must be in [0, 2**64), ``start`` and ``count``
    non-negative.
    """
    count, start = _checked(count, start)
    key, by_31 = _key(seed, lane), _OPERANDS[5]
    words = np.empty(count, dtype=np.uint64)
    scratch = np.empty(min(count, SIGN_CHUNK), dtype=np.uint64)
    for first in range(0, count, SIGN_CHUNK):
        z = words[first : first + SIGN_CHUNK]
        t = scratch[: z.size]
        _states(key, start + first, z, t)
        np.right_shift(z, by_31, out=t)
        np.bitwise_xor(z, t, out=z)
    return words


def _uniform(words: np.ndarray) -> np.ndarray:
    """``((w >> 12) + 0.5) * 2**-52`` of uint64 ``words``, as a float64 view of their buffer.

    The top 52 bits under the exponent of 1.0 give ``1 + m * 2**-52`` exactly,
    and subtracting ``1 - 2**-53`` from that is exact (Sterbenz).  Every value
    is a half-integer multiple of ``2**-52``, strictly inside (0, 1), so
    ``2u - 1`` is never 0.  The top 53 bits over ``2**-53`` would round the
    top word's value up to 1.
    """
    np.right_shift(words, np.uint64(12), out=words)
    np.bitwise_or(words, np.uint64(0x3FF0000000000000), out=words)
    floats = words.view(np.float64)
    floats -= 1.0 - 2.0**-53
    return floats


def stream_uniform(seed: int, lane: int, start: int, count: int) -> np.ndarray:
    """The uniform view of :func:`stream_words`: float64 ``((w >> 12) + 0.5) * 2**-52``.

    Values lie strictly inside (0, 1) and are computed in the words' own buffer.
    """
    return _uniform(stream_words(seed, lane, start, count))


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
    The calling thread and ``stream_summary(count, threads)["shards"] - 1`` worker threads
    started for this call take chunk starts from one shared iterator, each into its own
    buffers, until none is left; a thread that starts late or runs slow takes fewer
    chunks.  Each claim is one ``next()`` on a ``range`` iterator, which holds the GIL
    throughout, so no chunk is taken twice.  The totals are integers, so the sum is
    identical for every split of the chunks.  A thread whose chunk raises drains the
    iterator, so the others stop at their next claim; a worker keeps its count or its
    exception in its own slot.  Every worker that started is joined before the sum
    returns or raises; it raises the caller's own exception if there is one, else the
    first worker's.  If a worker fails to start, the caller drains the iterator itself.
    ``threads`` below 1 raises ``ValueError``.
    """
    count, start = _checked(count, start)
    workers = stream_summary(count, threads)["shards"] - 1
    key, end = _key(seed, 0), start + count
    firsts = iter(range(start, end, SIGN_CHUNK))

    def negatives() -> int:
        total, z = 0, None
        try:
            for first in firsts:
                size = min(SIGN_CHUNK, end - first)
                if z is None:  # sized to the thread's first chunk, which no later one exceeds
                    z, t, negative = (np.empty(size, dtype) for dtype in (np.uint64, np.uint64, bool))
                states = _states(key, first, z[:size], t[:size])
                # np.signbit reads the top bit of every bit pattern's float64 view, NaNs included.
                total += np.count_nonzero(np.signbit(states.view(np.float64), out=negative[:size]))
            return total
        except BaseException:
            deque(firsts, maxlen=0)
            raise

    if not workers:
        return count - 2 * negatives()
    parts = [0] * workers  # each worker's count, or the exception it caught

    def work(slot: int) -> None:
        try:
            parts[slot] = negatives()
        except BaseException as exc:  # kept for the caller, never reported by the thread
            parts[slot] = exc

    _ramp()  # built here, so the threads never race to build it
    started = []
    try:
        for slot in range(workers):
            thread = threading.Thread(target=work, args=(slot,))
            thread.start()
            started.append(thread)
        total = negatives()
    finally:
        deque(firsts, maxlen=0)  # empty already, unless a thread failed to start
        for thread in started:
            thread.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    return count - 2 * (total + sum(parts))


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
