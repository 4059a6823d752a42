"""Exact arithmetic for lattice-boson pairings and their expansions.

Two small integrable lattice models — a strongly coupled "phase" boson
chain and its one-parameter deformation — admit closed determinant
formulas for scalar products and correlation functions, with symmetric
polynomials (Schur, skew Schur, Hall-Littlewood) as expansion
coefficients.  This package evaluates both sides of those identities
over exact rationals and checks them against a brute-force
occupation-basis oracle, so every formula is machine-verified rather
than trusted.

Layout:

- algebra_core: rationals, one-variable polynomials, truncated
  multivariate series, exact determinants.
- partitions: integer-partition combinatorics and box enumerations.
- symfunc: Schur / skew Schur / Hall-Littlewood evaluation,
  Kostka-Foulkes tables, deformed kernels.
- miwa: power-sum (Miwa) times of point sets and their Q-twist.
- phase_model: determinant and partition-sum forms of the undeformed
  pairings, correlations, and skew pairings.
- qboson_model: the four deformed representations and the Schur-basis
  coefficient matrix of the deformed pairing.
- fock_oracle: string operators applied site by site to occupation
  vectors, and vacuum-coefficient pairings (the arbiter).
- bethe: numerical on-shell equation solvers (the only inexact module).
- cli / suites: command-line front end and named verification suites.
"""

from .algebra_core import QPoly, TruncatedSeries
from .partitions import Partition
from .phase_model import BoxSpec
from .qboson_model import QBosonSpec

__all__ = [
    "QPoly",
    "TruncatedSeries",
    "Partition",
    "BoxSpec",
    "QBosonSpec",
]

__version__ = "0.1.0"
