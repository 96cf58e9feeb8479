"""Bundled example arrangements: the shipped JSON files, and builders that load them."""

from __future__ import annotations

from dataclasses import replace
from importlib import resources

from .arrangement import Multiarrangement, parse


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped fixture JSON (e.g. 'braid.json')."""
    ref = resources.files("arrfree") / "fixtures" / name
    return str(ref)


def load(name: str) -> Multiarrangement:
    ref = resources.files("arrfree") / "fixtures" / name
    return parse(ref.read_text(encoding="utf-8"))


def boolean3(m=(1, 1, 1)) -> Multiarrangement:
    """Coordinate hyperplanes x, y, z with the given multiplicities."""
    return replace(load("boolean.json"), mult=tuple(m))


def braid3() -> Multiarrangement:
    """The six rank-3 braid hyperplanes x, y, z, x-y, x-z, y-z."""
    return load("braid.json")


def example_a3(a: int, m0: int) -> Multiarrangement:
    """x^a (x-y)^a (x-z)^a y^a (y-z)^a z^{m0} on the braid arrangement."""
    return replace(load("example1_a1_m0_2.json"), mult=(a, a, a, a, a, m0))


def example52() -> Multiarrangement:
    """x (x-y)^2 (x-z) y (y-z) z^2: irreducible rank 3 with two locally heavy
    hyperplanes."""
    return load("example52.json")


def rank4_flag_example() -> Multiarrangement:
    """Ten hyperplanes in K^4 admitting the locally heavy flag through w."""
    return load("rank4_flag.json")


def generic4() -> Multiarrangement:
    """Four planes in general position in K^3; every hyperplane is generic."""
    return load("generic4.json")
