"""Hand-made mutants of `src/arrfree`, each with the test that must kill it.

    python tests/mutants.py            # from the root of a checkout

The script copies the checkout into a temporary directory and first runs
every listed killing test there, unmutated: they must pass, or a kill would
prove nothing.  Then it applies one mutant at a time, a replacement of one
exact text that occurs once in its file, and runs that mutant's killing
test.  Only if that test passes does it run the whole tier-1 suite with
`pytest -x`, less `tests/test_mutants.py`, which no mutated file passes.  A
mutant survives when both pass.  The mutants run one after
another, never in parallel, and each is undone before the next.  The exit
status is 0 when every mutant is killed, 1 when one survives, and 2 when a
mutant no longer applies or a killing test fails unmutated.

The tier-1 suite does not run this script, since a surviving mutant costs a
whole run of the suite; `tests/test_mutants.py` checks that every old text
still occurs exactly once.  A change that adds a rule or rewrites a kernel
adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the root of the checkout
    old: str  # exact text, occurring once in the file
    new: str
    killer: str  # pytest node id of the test that must fail on the mutant


MUTANTS = (
    # the pair walk forgets the pairs of a flat of three or more, so a later
    # member groups them again into a second, smaller flat
    Mutant(
        "src/arrfree/arrangement.py",
        "paired[z] |= bits",
        "pass",
        "tests/test_codim2_flats.py::test_flat_table_matches_pairwise_reference",
    ),
    # local heaviness turns strict: 2*m(H) = |m_X| is no longer heavy
    Mutant(
        "src/arrfree/arrangement.py",
        "if 2 * mult[x] < total:",
        "if 2 * mult[x] <= total:",
        "tests/test_certify.py::test_is_locally_heavy",
    ),
    # the rank >= 4 branch of the two-locally-heavy rule takes any rank-3
    # flat under both hyperplanes, reducible or not, and calls the boolean
    # arrangement of rank 4 NonFree; the verifier runs the same function
    Mutant(
        "src/arrfree/certify.py",
        "if reducibility(loc).irreducible:",
        "if True:",
        "tests/test_certify.py::test_two_locally_heavy_rank4_needs_an_irreducible_rank3_flat",
    ),
    # the rank >= 4 branch of the two-locally-heavy rule reads the first
    # codim-2 flat through h, not the one that also holds l, and tries the
    # rank-3 flats over it
    Mutant(
        "src/arrfree/certify.py",
        "x = next(f for f in restriction_flats(a, h) if l in f.members)",
        "x = restriction_flats(a, h)[0]",
        "tests/test_certify.py::test_two_locally_heavy_matches_the_whole_level_search",
    ),
    # the same branch tries only the first rank-3 flat over the pair's
    # codim-2 flat, and misses an irreducible one after a reducible one
    Mutant(
        "src/arrfree/certify.py",
        "for f in _flats_over(a, x):",
        "for f in _flats_over(a, x)[:1]:",
        "tests/test_certify.py::test_two_locally_heavy_matches_the_whole_level_search",
    ),
    # localization accepts a member set whose normals span fewer or more
    # dimensions than the flat's codimension, as long as it is closed
    Mutant(
        "src/arrfree/arrangement.py",
        "if r != x.codim or () in groups:",
        "if () in groups:",
        "tests/test_arrangement.py::test_localization_rejects_foreign_flat",
    ),
    # the verifier accepts a Free payload whose top-level exponents differ
    # from the re-derived ones
    Mutant(
        "src/arrfree/certify.py",
        'if payload.get("exponents") is not None and list(v.exponents) != list(payload["exponents"]):',
        "if False:",
        "tests/test_certify.py::test_verifier_mutation_fuzz",
    ),
    # the verifier runs the Hilbert test up to whatever cap a
    # HilbertObstruction node cites, before the node comparison refuses it
    Mutant(
        "src/arrfree/certify.py",
        "refusal = _cap_refusal(ess.dim, cap)\n",
        "refusal = None\n",
        "tests/test_certify.py::test_verifier_refuses_an_out_of_range_cap_before_any_solve",
    ),
    # the two-locally-heavy rule forgets the flats it rejected and
    # localizes a flat again for every pair above it
    Mutant(
        "src/arrfree/certify.py",
        "tried.add(f.members)",
        "pass",
        "tests/test_certify.py::test_two_locally_heavy_localizes_each_flat_once",
    ),
    # a restriction row with no lines calls none of its points heavy
    Mutant(
        "src/arrfree/arrangement.py",
        "if lines else list(range(n))",
        "if lines else []",
        "tests/test_restriction_heavy.py::test_restriction_rows_match_the_reference_row_step",
    ),
    # Saito's point test takes (1, ..., 1) even where it lies on a
    # hyperplane, so Q(p) = 0 there
    Mutant(
        "src/arrfree/oracle.py",
        "if all(values):",
        "if True:",
        "tests/test_saito_integer.py::test_point_lies_off_every_hyperplane",
    ),
    # the point test calls a nonzero determinant dependent and a zero one
    # a basis
    Mutant(
        "src/arrfree/oracle.py",
        "    if not det:",
        "    if det:",
        "tests/test_saito_integer.py::test_a4_power_sums_are_a_basis",
    ),
    # the point test drops its guard.  On members of D(A,m) it is
    # equivalent: by Saito's lemma det M = c*Q with c an integer (Gauss's
    # lemma), so Q(p) divides det M(p) at every point.  Only a membership
    # test that accepts a non-member can tell, so the killing test makes it
    # accept one
    Mutant(
        "src/arrfree/oracle.py",
        "if det % q_at:",
        "if False:",
        "tests/test_saito_integer.py::test_point_guard_refutes_a_non_member",
    ),
    # Saito's criterion takes any degree sum.  Unsound: x_1*theta_1 with
    # A4's other power sums are members whose determinant x_1*Q(A,m) is
    # nonzero at the point, so the point test calls them a basis
    Mutant(
        "src/arrfree/oracle.py",
        "if sum(degrees) != a.total_mult:",
        "if False:",
        "tests/test_saito_integer.py::test_a4_det_is_multiple",
    ),
    # the member selection behind `localization`, `deletion` and the
    # two-locally-heavy rule takes the first hyperplanes, not the chosen ones
    Mutant(
        "src/arrfree/arrangement.py",
        "tuple(a.hyperplanes[i] for i in idx),",
        "a.hyperplanes[: len(idx)],",
        "tests/test_arrangement.py::test_localization_example1_triple",
    ),
)

# Mutants that change no behaviour, with the argument; listed so that they
# are not tried again, nor dropped silently.
EQUIVALENT = (
    # `_flag_verdict` compares lhs = b2(A) with rhs = sum of v_i*v_j over the
    # flag's values.  At every level the away-b2 is at least the
    # restriction's b2, and these inequalities telescope to lhs >= rhs, so
    # lhs <= rhs holds exactly when lhs == rhs.
    Mutant("src/arrfree/certify.py", "if lhs == rhs:", "if lhs <= rhs:", ""),
)


def _ignore(directory: str, names: list[str]) -> set[str]:
    skip = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}
    if Path(directory).name == "perfbench":
        skip.add("out")
    return skip.intersection(names) | {n for n in names if n.endswith(".egg-info")}


def _pytest(copy: Path, *args: str) -> bool:
    """Whether pytest passes on the copy, with its `src` first on the path."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode == 0


def main() -> int:
    for m in MUTANTS + EQUIVALENT:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.path}: {m.old!r} occurs {count} times, not once", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="arrfree-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        if not _pytest(copy, *sorted({m.killer for m in MUTANTS})):
            print("a killing test fails on the unmutated checkout", file=sys.stderr)
            return 2
        survivors = []
        for m in MUTANTS:
            target = copy / m.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                if not _pytest(copy, m.killer):
                    outcome = "killed"
                # test_mutants.py fails on every mutant, whose old text is gone
                elif not _pytest(copy, "--ignore=tests/test_mutants.py"):
                    outcome = f"killed by the suite, not by {m.killer}"
                else:
                    outcome = "SURVIVED"
                    survivors.append(m)
            finally:
                target.write_text(text, encoding="utf-8")
            print(f"{outcome}: {m.path}: {m.old.strip()!r} -> {m.new.strip()!r}", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed; {len(EQUIVALENT)} listed as equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
