"""Seeded identity suites: each check reports its worst residual.

These back the ``verify`` command.  A check is a batch of random
instances of one algebraic or topological contract; the residual is the
largest absolute coefficient deviation seen, compared against a fixed
tolerance.

A suite is one ``block(start, size)`` function, drawing each kind of
instance once per block of :data:`BLOCK` rows, and one ordered ``(name,
tolerance)`` table; a check keeps its worst residual over the blocks.
The products are bilinear with integer structure constants, so the six
bilinear algebra checks (dot-plus-wedge split, basis rule, generic
identity, even closure, associativity, orientation flip) are exact on the
basis, computed once per suite call, and sample only their first block,
for rounding; the basis rule samples nothing.  The quartic norm check and
every topology and protocol check sample every instance; the equatorial
witness, bilinear too, also takes its exact residual on the 9 pairs of unit
vectors once per suite call.
The protocol block also reads its part of the orientation stream twice
and sums it with the kernel behind ``simulate`` and ``scan``; the
balance check is that kernel's one sum over the whole stream.

Every instance is drawn from the suite seed's splitmix64 lanes
(``protocol.stream_words``), not from a second generator.  The protocol
block's outcomes take the orientations of lane 0, the stream it checks.
Each other draw has a lane of its own: the algebra block's uniform
coordinates, the topology block's unit rows (Marsaglia's rejection
constructions, one pair of lanes per block) and its factorization seed, and
the protocol block's angles.  A block's draws depend only on the seed, the
block's first instance and its size, so a given ``--samples`` and ``--seed``
always check the same instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    LEFT_HANDED,
    RIGHT_HANDED,
    _gap,
    bivector_identity_residual,
    dual_bivector,
    even_product,
    geometric_product,
    oriented_even_product,
    wedge,
)
from .protocol import (
    alice_outcome,
    bob_outcome,
    handedness_sign_sum,
    handedness_signs,
    joint_product_closed_form,
    stream_uniform,
    stream_words,
)
from .topology import (
    NorthPoleError,
    S2Point,
    _random_unit_rows,
    factorize_s3_point,
    s2_nonclosure_witness,
    stereographic_project,
    stereographic_unproject,
)

__all__ = ["BLOCK", "PropertyCheck", "algebra_suite", "topology_suite", "protocol_suite", "SUITES"]

# Instances per kernel call.  Each doubling halves the kernel calls and raises
# the suites' memory: at 10**4 samples, blocks of 2**11 rows instead of 2**10
# about doubled each suite's tracemalloc peak (BENCH_verify_suites.json), and
# blocks of 2**12 rows, with the suites on two threads, raised the benchmark's
# verify-suites peak resident memory by 2.5 MB (BENCH_verify_threads.json).
# Drawing only the factors used lowered the topology peak (BENCH_verify_exact.json).
# Blocks of 10**4 rows peaked 4.7 MB higher in resident memory than blocks of 2**10
# (BENCH_one_closed_form.json, comment_timings).
BLOCK = 1 << 12

# Lanes of the suite seed.  Lane 0 is the orientation stream, which the protocol
# suite reads; every other draw has a lane of its own.  A draw of w words per
# instance reads words start*w .. (start + size)*w - 1 of its lane for the block of
# size instances from start.  Topology block b takes its unit rows, drawn by
# rejection, whole from lanes _SPHERES + 2b and _SPHERES + 2b + 1.
_TRIPLES, _SIGNS, _VECTORS, _EVENS, _ANGLES, _FACTOR_SEEDS, _SPHERES = range(1, 8)

# Coefficient positions of the scalar and the three bivectors in a multivector row.
_EVEN = [0, 4, 5, 6]
_ODD = [1, 2, 3, 7]


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _worst(samples: int, block) -> list:
    """Per-check maxima of ``block(start, size)``'s residuals over the blocks of ``samples``.

    ``np.max`` keeps a NaN residual, which then fails its check.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    starts = range(0, samples, BLOCK)
    return np.max([block(start, min(BLOCK, samples - start)) for start in starts], axis=0).tolist()


def _checks(residuals, *table) -> list:
    return [PropertyCheck(name, worst, tol) for (name, tol), worst in zip(table, residuals)]


def _rows(seed: int, lane: int, start: int, size: int, *shape: int) -> np.ndarray:
    """Uniforms in (-1, 1) as ``shape[:-1] + (size, shape[-1])`` rows, for ``size`` instances.

    The block of instances from ``start`` reads words ``start * w`` to
    ``(start + size) * w - 1`` of ``lane``, ``w`` the product of ``shape``, as a
    coefficient-major ``shape + (size,)`` block, so each row column is
    contiguous.  ``2u - 1`` is never 0, so its sign is +1 or -1.
    """
    width = math.prod(shape)
    square = stream_uniform(seed, lane, start * width, size * width)
    square *= 2.0
    square -= 1.0
    return np.moveaxis(square.reshape(shape + (size,)), -1, -2)


def _split_gap(a, b) -> float:
    vectors = np.zeros((2,) + a.shape[:-1] + (8,))
    vectors[..., 1:4] = a, b
    dot_plus_wedge = wedge(*vectors)
    dot_plus_wedge[..., 0] += np.sum(a * b, axis=-1)
    return _gap(geometric_product(*vectors), dot_plus_wedge)


def _closure_gap(p, q, pq) -> float:
    embedded = np.zeros((2,) + p.shape[:-1] + (8,))
    embedded[..., _EVEN] = p, q
    full = geometric_product(*embedded)
    return max(_gap(full[..., _ODD], 0.0), _gap(pq, full[..., _EVEN]))


def _associativity_gap(m, n, p) -> float:
    mn_p = geometric_product(geometric_product(m, n), p)
    return _gap(mn_p, geometric_product(m, geometric_product(n, p)))


def _flip_gap(a) -> float:
    return _gap(dual_bivector(LEFT_HANDED, a) + dual_bivector(RIGHT_HANDED, a), 0.0)


def _witness_gap(a, b) -> float:
    """Gap between the scalar of the equatorial product of ``a`` and ``b`` and minus their dot."""
    return _gap(s2_nonclosure_witness(a, b)[:, 0], -np.sum(a * b, axis=1))


def _basis_residuals() -> tuple:
    """The algebra checks' residuals on basis inputs, in table order; the norm check reads 0.

    The products are bilinear with integer structure constants, so each of
    the six identities, linear in every argument, holds for every input iff
    it holds on the basis: all 512 triples of blades, the 9 pairs of unit vectors, the 18
    (sign, e_j, e_k) duals, the 16 pairs of even blades and the 3 flips.
    Every input is 0 or +-1, so correct kernels give exactly 0.  The
    residuals go through the live kernels on each call, so a changed
    table or kernel is always seen.
    """
    blades, units, evens = np.eye(8), np.eye(3), np.eye(4)
    i, j, k = np.indices((8, 8, 8)).reshape(3, -1)
    associativity = _associativity_gap(blades[i], blades[j], blades[k])
    j, k = np.indices((3, 3)).reshape(2, -1)
    split = _split_gap(units[j], units[k])
    signs = np.repeat([1.0, -1.0], 9)
    rule = _gap(bivector_identity_residual(signs, units[np.tile(j, 2)], units[np.tile(k, 2)]), 0.0)
    j, k = np.indices((4, 4)).reshape(2, -1)
    closure = _closure_gap(evens[j], evens[k], even_product(evens[j], evens[k]))
    return (split, rule, rule, closure, 0.0, associativity, _flip_gap(units))


def algebra_suite(samples: int = 1000, seed: int = 0) -> list:
    def block(start, size):
        # Only the first block samples the bilinear checks.  Each draw's
        # residuals are taken, and its rows dropped, before the next draw.
        split = generic = closure = associativity = flip = 0.0
        if start == 0:
            associativity = _associativity_gap(*10.0 * _rows(seed, _TRIPLES, 0, size, 3, 8))
            signs = np.sign(_rows(seed, _SIGNS, 0, size, 1)[:, 0])
            a, b = _rows(seed, _VECTORS, 0, size, 2, 3)
            split = _split_gap(a, b)
            generic = _gap(bivector_identity_residual(signs, a, b), 0.0)
            flip = _flip_gap(a)
            del a, b
        p, q = _rows(seed, _EVENS, start, size, 2, 4)
        pq = even_product(p, q)
        if start == 0:
            closure = _closure_gap(p, q, pq)
        norm = np.linalg.norm
        multiplicative = _gap(norm(pq, axis=1), norm(p, axis=1) * norm(q, axis=1))
        return split, 0.0, generic, closure, multiplicative, associativity, flip

    return _checks(
        np.maximum(_basis_residuals(), _worst(samples, block)).tolist(),
        ("vector product splits into dot plus wedge", 1e-12),
        ("basis bivector products follow the orientation rule", 1e-12),
        ("generic oriented bivector identity", 1e-12),
        ("even subalgebra closes and matches the full product", 1e-12),
        ("norm is multiplicative on the even part", 1e-12),
        ("geometric product associates", 1e-10),
        ("orientation flip negates the dual exactly", 0.0),
    )


def topology_suite(samples: int = 1000, seed: int = 0) -> list:
    try:
        stereographic_project(S2Point(0.0, 0.0, 1.0))
        pole_accepted = 1.0
    except NorthPoleError:
        pole_accepted = 0.0

    # The witness scalar is bilinear, so its residual on the 9 pairs of unit
    # vectors, taken through the live kernels, holds it exactly for every input.
    # It and the pole check are fixed instances, combined once with the blocks'.
    basis_witness = _witness_gap(*np.eye(3)[np.indices((3, 3)).reshape(2, -1)])
    fixed = (0.0, pole_accepted, 0.0, 0.0, basis_witness, 0.0)

    # Instance i splits its target into 1 + i % 8 factors.  Block b is factorized
    # in one call, under the seed of word b of its lane, and multiplied back over
    # all its slots; the identities padding the shorter rows multiply exactly.
    def block(start, size):
        lanes = _SPHERES + 2 * (start // BLOCK)
        a, b = _random_unit_rows(seed, lanes, 3, 2 * size).reshape(2, size, 3)
        a[a[:, 2] > 1.0 - 1e-6, 2] *= -1.0
        round_trip = _gap(stereographic_unproject(stereographic_project(a)), a)
        witness = _witness_gap(a, b)
        del a, b
        p, q = _random_unit_rows(seed, lanes + 1, 4, 2 * size).reshape(2, size, 4)
        closure = _gap(np.sum(even_product(p, q) ** 2, axis=1), 1.0)
        counts = 1 + (start + np.arange(size)) % 8
        factor_seed = int(stream_words(seed, _FACTOR_SEEDS, start // BLOCK, 1)[0])
        factors = factorize_s3_point(p, counts, seed=factor_seed)
        multiplied_back = _gap(functools.reduce(even_product, factors.swapaxes(0, 1)), p)
        del p, q
        # Squares summed in place, in the order np.einsum takes over C-ordered rows
        # with two-lane float64 SIMD: the residual keeps its bits in either layout
        # and allocates no temporaries.  Nothing reads the factors after this.
        s, b_yz, b_zx, b_xy = np.moveaxis(np.square(factors, out=factors), -1, 0)
        s += b_zx
        b_yz += b_xy
        s += b_yz
        unit = _gap(s, 1.0)
        return round_trip, 0.0, multiplied_back, unit, witness, closure

    return _checks(
        np.maximum(fixed, _worst(samples, block)).tolist(),
        ("stereographic round trip returns to the point", 1e-12),
        ("north pole is rejected by the projection", 0.0),
        ("factors multiply back to the target", 1e-9),
        ("every factor lies on the unit 3-sphere", 1e-12),
        ("equatorial product scalar equals minus the dot", 1e-12),
        ("the 3-sphere closes under multiplication", 1e-12),
    )


def protocol_suite(samples: int = 1000, seed: int = 0) -> list:
    # Each instance's outcomes take the orientation its stream position holds.
    def block(start, size):
        alpha, beta = 2.0 * math.pi * _rows(seed, _ANGLES, start, size, 2).T
        signs = handedness_signs(seed, size, start)
        alice = alice_outcome(alpha, signs)
        direct = oriented_even_product(signs, alice, bob_outcome(beta, signs))
        sum_gap = abs(int(signs.sum()) - handedness_sign_sum(seed, size, start))
        return (
            _gap(direct, joint_product_closed_form(alpha, beta, signs)),
            max(_gap(alice[:, 0], 0.0), _gap(np.sum(alice * alice, axis=1), 1.0)),
            _gap(np.sum(direct * direct, axis=1), 1.0),
            _gap(alice, alice_outcome(alpha + math.pi, signs)),
            max(_gap(signs, handedness_signs(seed, size, start)), sum_gap),
        )

    return _checks(
        [*_worst(samples, block), abs(handedness_sign_sum(seed, samples)) / samples],
        ("closed form matches the direct outcome product", 1e-12),
        ("outcomes sit on the equator of the 3-sphere", 1e-12),
        ("outcome products stay on the 3-sphere", 1e-12),
        ("outcomes are invariant under a half-turn", 1e-12),
        ("orientation stream repeats for a fixed seed", 0.0),
        # A 4-sigma two-sided bound: correct code fails it on about 6.3e-5 of seeds,
        # e.g. --samples 10000 --seed 603456513 (sign sum -406, residual 4.06e-2).
        ("orientation samples are balanced within 4/sqrt(n)", 4.0 / math.sqrt(samples)),
    )


SUITES = {
    "algebra": algebra_suite,
    "topology": topology_suite,
    "protocol": protocol_suite,
}
