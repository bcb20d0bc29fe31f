"""Exact q-series reconstruction of orbifold curve counts.

The package recomputes, in exact rational arithmetic, the genus-zero and
genus-one generating series of the orbifold projective lines with four Z/2
points and three Z/3 points, together with machine-checked certificates for
every identity the computation leans on: associativity of the quantum
product, eta-quotient and theta closed forms, the Halphen system, a
Schwarzian-type equation, and the modular identities tying everything to
the j-invariant.
"""

__version__ = "0.1.0"
