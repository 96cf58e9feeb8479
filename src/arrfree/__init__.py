"""arrfree: exact combinatorial invariants and freeness certificates for
hyperplane multiarrangements."""

from .arrangement import (
    Flat,
    Hyperplane,
    Multiarrangement,
    ParseError,
    deletion,
    essentialize,
    euler_ziegler_multiplicity,
    intersection_lattice,
    is_locally_heavy,
    localization,
    parse,
    parse_file,
    rank,
    reducibility,
    restriction_flats,
)
from .betti import BettiReport, b2_away, b2_multi, b2_simple
from .certify import (
    CertifyOptions,
    Flag,
    Verdict,
    certify,
    certify_flag,
    certify_locally_heavy,
    find_locally_heavy_flags,
    is_generic_hyperplane,
    nonfree_generic,
    nonfree_two_locally_heavy,
    verify_certificate,
)
from .oracle import (
    Derivation,
    derivation_space_dim,
    hilbert_freeness_test,
    saito_check,
)
from .rank2 import Rank2Instance, euler_multiplicity_at_flat, project_to_rank2, rank2_exponents

__version__ = "0.1.0"
