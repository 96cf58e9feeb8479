"""Shared random generators and helpers for arrangement test suites."""

from __future__ import annotations

import itertools
import random

from arrfree.arrangement import Hyperplane, Multiarrangement, is_locally_heavy, rank, restriction_flats
from arrfree.dspace import _primitive_forms, _systems


# the bundled fixtures that parse as arrangements (not the sweep template)
FIXTURES = ["boolean", "boolean_234", "braid", "example1_a1_m0_2", "example52", "generic4", "rank4_flag"]


def full_system(forms, mults, degree):
    """The rows and monomials of the full system in the input coordinates,
    from the one builder `dspace._systems` with every coordinate at
    multiplicity 0 and every form giving rows.  It is not the system that
    `derivation_basis` solves, where the coordinate hyperplanes drop
    unknowns in place of their rows."""
    fs = _primitive_forms(forms, mults)
    rows, monos, _ = next(_systems([0] * len(fs[0]), list(zip(fs, mults)), (degree,)))
    return rows, monos


def type_b_normals(n: int) -> list[list[int]]:
    """Normals of the Coxeter arrangement B_n: x_i and x_i -+ x_j."""
    out = [[int(i == k) for k in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        for s in (-1, 1):
            out.append([1 if k == i else s if k == j else 0 for k in range(n)])
    return out


def random_normals(rng: random.Random, dim: int, count: int, entry: int = 2) -> list[tuple]:
    """Distinct canonicalized normals with entries in [-entry, entry]."""
    seen = set()
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 2000:
            break
        coeffs = [rng.randint(-entry, entry) for _ in range(dim)]
        if all(c == 0 for c in coeffs):
            continue
        h = Hyperplane.from_coeffs(coeffs)
        if h.normal in seen:
            continue
        seen.add(h.normal)
        out.append(h)
    return out


def random_multiarrangement(
    rng: random.Random,
    dim: int = 3,
    max_planes: int = 6,
    max_mult: int = 4,
    min_planes: int = 3,
    entry: int = 2,
) -> Multiarrangement:
    n = rng.randint(min_planes, max_planes)
    planes = random_normals(rng, dim, n, entry)
    mult = tuple(rng.randint(1, max_mult) for _ in planes)
    return Multiarrangement(dim, tuple(planes), mult)


def random_simple_rank3(rng: random.Random, max_planes: int = 6) -> Multiarrangement:
    while True:
        n = rng.randint(4, max_planes)
        planes = random_normals(rng, 3, n)
        if len(planes) < 4:
            continue
        a = Multiarrangement(3, tuple(planes), (1,) * len(planes))
        if rank(a) == 3:
            return a


def force_locally_heavy(a: Multiarrangement, i0: int, rng: random.Random) -> Multiarrangement:
    """Raise m(i0) until it dominates every size->=3 flat through it."""
    needed = 1
    for f in restriction_flats(a, i0):
        if len(f.members) >= 3:
            needed = max(needed, sum(a.mult[k] for k in f.members if k != i0))
    out = a.with_mult(i0, needed + rng.randint(0, 2))
    assert is_locally_heavy(out, i0)
    return out


def euler_restriction(a: Multiarrangement, i0: int) -> Multiarrangement:
    """(A^H, m*): the restriction carrying flat-wise Euler multiplicities."""
    from arrfree.arrangement import euler_ziegler_multiplicity
    from arrfree.rank2 import euler_multiplicity_at_flat, project_to_rank2

    out = euler_ziegler_multiplicity(a, i0)
    for k, flat in enumerate(restriction_flats(a, i0)):
        inst = project_to_rank2(a, flat)
        h0pos = inst.source.index(i0)
        out = out.with_mult(k, euler_multiplicity_at_flat(inst, h0pos))
    return out


def cyclic_garbage(call) -> list:
    """The objects that only the cycle collector could free after call():
    with gc.DEBUG_SAVEALL they land in gc.garbage instead of being freed."""
    import gc

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
