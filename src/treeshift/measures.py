"""Finitely atomic measures on the nonnegative half-line and their transforms.

All integrals against these measures are finite sums, so every quantity the
criteria consume (moments of any integer power, masses of single atoms) is
computed exactly when the atom data is rational.  Negative-power moments of
a measure with an atom at 0 are +inf; the transforms that need 1/s-integrals
treat that as a hard error instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence, Tuple

from .errors import (
    MassExceedsOneError,
    NotInDomainError,
    NotNormalizableError,
    ZeroAtomError,
    ZeroMomentError,
)
from .rationals import INF, ONE, ZERO, Scalar, as_scalar


class _PowerSums:
    """Power sums m_0, m_1, ... of exact atoms (s_i, w_i), extended on demand.

    With L and B the lcms of the location and mass denominators, P_i = s_i L
    and A_i = w_i B are integers and m_n = sum_i A_i P_i^n / (B L^n): one
    integer product per atom and one Fraction per new order.
    """

    def __init__(self, atoms):
        self.step = math.lcm(*(s.denominator for s, _ in atoms))
        self.den = math.lcm(*(w.denominator for _, w in atoms))
        self.bases = [s.numerator * (self.step // s.denominator) for s, _ in atoms]
        self.weights = self.terms = [w.numerator * (self.den // w.denominator) for _, w in atoms]
        self.sums = [Fraction(sum(self.terms), self.den)]

    def __getitem__(self, n: int) -> Fraction:
        while len(self.sums) <= n:
            self.terms = [a * p for a, p in zip(self.terms, self.bases)]
            self.den *= self.step
            self.sums.append(Fraction(sum(self.terms), self.den))
        return self.sums[n]


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite list of (location, mass) atoms, sorted by location.

    Locations are pairwise distinct and nonnegative, masses strictly
    positive.  The empty tuple is the zero measure.
    """

    atoms: Tuple[Tuple[Scalar, Scalar], ...]

    @staticmethod
    def from_atoms(pairs: Iterable[Tuple[object, object]]) -> "AtomicMeasure":
        """Coerce, merge coincident locations, sort, and validate."""
        merged: dict = {}
        order: list = []
        for loc, mass in pairs:
            loc = as_scalar(loc)
            mass = as_scalar(mass)
            if loc < 0:
                raise ValueError(f"atom location {loc} is negative")
            if loc in merged:
                merged[loc] = merged[loc] + mass
            else:
                merged[loc] = mass
                order.append(loc)
        atoms = []
        for loc in sorted(order):
            mass = merged[loc]
            if mass == 0:
                continue
            if mass < 0:
                raise ValueError(f"atom at {loc} has nonpositive mass {mass}")
            atoms.append((loc, mass))
        return AtomicMeasure(tuple(atoms))

    @staticmethod
    def point_mass(loc) -> "AtomicMeasure":
        return AtomicMeasure.from_atoms([(loc, ONE)])

    def __iter__(self):
        return iter(self.atoms)

    @cached_property
    def _masses(self) -> dict:
        return dict(self.atoms)

    def mass_at(self, loc) -> Scalar:
        # Fraction, int and float keys hash alike when they are equal
        return self._masses.get(as_scalar(loc), ZERO)

    def total_mass(self) -> Scalar:
        """Exact masses by one lcm-scaled integer sum, float ones by the running sum."""
        if not self.is_exact():
            return sum((w for _, w in self.atoms), ZERO)
        ratios = [w.as_integer_ratio() for _, w in self.atoms]
        den = math.lcm(*(d for _, d in ratios))
        num = sum(n * (den // d) for n, d in ratios)
        return ONE if num == den else Fraction(num, den)

    def has_zero_atom(self) -> bool:
        return 0 in self._masses

    def is_exact(self) -> bool:
        return all(isinstance(x, Fraction) for atom in self.atoms for x in atom)

    def is_probability(self, tol: float = 0.0) -> bool:
        total = self.total_mass()
        if self.is_exact():
            return total == 1
        return abs(float(total) - 1.0) <= tol

    @cached_property
    def _ascending(self):
        """The power sums m_0, m_1, ... of an exact measure; None for a float one."""
        return _PowerSums(self.atoms) if self.is_exact() else None

    @cached_property
    def _descending(self):
        """m_0, m_{-1}, ... of an exact measure with no atom at 0."""
        return _PowerSums([(1 / s, w) for s, w in self.atoms])

    def moment(self, n: int) -> Scalar:
        """The n-th power moment; +inf when n < 0 and an atom sits at 0."""
        if n < 0 and self.has_zero_atom():
            return INF
        if self._ascending is not None:
            return self._ascending[n] if n >= 0 else self._descending[-n]
        total = ZERO
        for s, w in self.atoms:
            if n == 0:
                total = total + w
            elif s == 0:
                continue  # 0**n = 0 for n > 0
            else:
                total = total + w * s ** n
        return total

    def tilted(self, n: int, mass: Scalar = ONE) -> "AtomicMeasure":
        """mass * s^n dmu / m_n for any integer n: every s^n-weighted measure is formed here.

        A positive rescaling of the atoms, so no ``from_atoms``.  For n >= 1 the factor
        s^n drops an atom at 0; for n < 0 an atom at 0 is an error.  A zero mass, or a
        vanishing m_n, gives the zero measure.
        """
        if n < 0 and self.has_zero_atom():
            raise ZeroAtomError("measure has an atom at 0, so its negative-power integrals diverge")
        mass = as_scalar(mass)
        if mass == 0:
            return AtomicMeasure(())
        if self._ascending is None or not isinstance(mass, Fraction):
            norm = self.moment(n)   # a float mass may underflow to 0, which from_atoms would drop
            return AtomicMeasure(tuple((s, m) for s, w in self.atoms
                                       if (s or n <= 0) and (m := mass * w * s ** n / norm) != 0))
        table = self._ascending if n >= 0 else self._descending
        terms = [a * p ** abs(n) for a, p in zip(table.weights, table.bases)]
        num, den = mass.numerator, mass.denominator * sum(terms)
        return AtomicMeasure(tuple((s, Fraction(num * a, den)) for (s, _), a in zip(self.atoms, terms) if a))

    def with_defect(self, eps) -> "AtomicMeasure":
        """This measure plus the defect mass eps at 0."""
        return AtomicMeasure.from_atoms(self.atoms + ((ZERO, eps),)) if eps != 0 else self


def mixture(measures: Sequence[AtomicMeasure], weights: Sequence) -> AtomicMeasure:
    """sum_i e_i mu_i: coincident atoms merge, and a zero weight drops its measure."""
    return AtomicMeasure.from_atoms((s, e * w) for mu, e in zip(measures, map(as_scalar, weights))
                                    for s, w in mu.atoms)


def moments_of(mu: AtomicMeasure, n: int) -> Scalar:
    """Power moment of any integer order, as an extended nonnegative real."""
    return mu.moment(n)


def moment_ratio_rule(mu: AtomicMeasure) -> Callable[[int], Scalar]:
    """The ray weight rule j -> m_{j-1}(mu) / m_{j-2}(mu) for j >= 2, cached.

    Squared weights (i, 2), (i, 3), ... given by this rule telescope, so the
    product of the first n of them is m_n(mu) / m_0(mu).  Raises
    :class:`ZeroMomentError` when a moment it needs vanishes.
    """

    @cache
    def ratio(j: int) -> Scalar:
        num, den = mu.moment(j - 1), mu.moment(j - 2)
        if num == 0 or den == 0:
            raise ZeroMomentError(j - 1 if num == 0 else j - 2)
        return num / den

    return ratio


def _validate_branch_measures(measures: Sequence[AtomicMeasure]) -> None:
    for i, mu in enumerate(measures, 1):
        if not mu.is_probability(tol=1e-9):
            raise ValueError(f"branch measure {i} is not a probability measure")
        if mu.has_zero_atom():
            raise ZeroAtomError(
                f"branch measure {i} has an atom at 0; its negative-power integrals diverge "
                f"and the consistency condition cannot hold"
            )


def parent_measure_from_child(mu: AtomicMeasure, lambda_w_sq) -> AtomicMeasure:
    """Upward transform along a single-child edge with squared weight lambda_w_sq.

    Sends a representing measure of the child's orbit sequence (with finite
    1/s-integral bounded by 1/lambda_w_sq) to a representing measure of the
    parent's: lambda_w_sq (1/s) dmu, the tilt of mu by -1 with mass
    lambda_w_sq * m_{-1}, plus the mass defect at 0.  Inverse of
    :func:`child_measure_from_parent`.
    """
    lam = as_scalar(lambda_w_sq)
    if lam <= 0:
        raise ValueError("squared weight must be positive")
    if not mu.is_probability(tol=1e-9):
        raise ValueError(f"input measure must be a probability measure; total mass is {mu.total_mass()}")
    if mu.has_zero_atom():
        raise ZeroAtomError(
            "measure has an atom at 0, so its 1/s-integral is infinite; "
            "the bounded-integral condition fails"
        )
    inv = mu.moment(-1)
    if lam * inv > 1:
        raise NotInDomainError(lam * inv, 1)
    return mu.tilted(-1, lam * inv).with_defect(1 - lam * inv)


def child_measure_from_parent(rho: AtomicMeasure, lambda_w_sq) -> AtomicMeasure:
    """Downward transform: s drho / lambda_w_sq, the tilt of rho by 1.

    The atom of rho at 0 is annihilated.  Requires the first moment of rho
    to equal lambda_w_sq, so the result is a probability measure.
    """
    lam = as_scalar(lambda_w_sq)
    if lam <= 0:
        raise ValueError("squared weight must be positive")
    first = rho.moment(1)
    if rho.is_exact() and isinstance(lam, Fraction):
        if first != lam:
            raise NotNormalizableError(first, lam)
    elif abs(float(first) - float(lam)) > 1e-9 * max(1.0, abs(float(lam))):
        raise NotNormalizableError(first, lam)
    return rho.tilted(1)


def root_measure_from_branches(mus: Sequence[AtomicMeasure],
                               entry_weight_sq: Sequence,
                               left_weight_sq: Sequence,
                               eps=None) -> AtomicMeasure:
    """Assemble the root vertex's measure from the branch measures.

    With stem length kappa = len(left_weight_sq), P the product of the
    squared stem weights and e_i the squared entry weights, the root carries
    P sum_i e_i s^-(kappa+1) dmu_i, the tilt of the mixture sum_i e_i mu_i
    by -(kappa+1), plus the defect (1 - total) at 0.  ``eps`` may pin the
    defect explicitly, in which case the total mass must come out exactly 1.
    """
    if len(mus) != len(entry_weight_sq):
        raise ValueError("one entry weight per branch measure is required")
    kappa = len(left_weight_sq)
    if kappa < 1:
        raise ValueError("at least one stem weight is required")
    _validate_branch_measures(mus)
    P = math.prod(map(as_scalar, left_weight_sq), start=ONE)
    mix = mixture(mus, entry_weight_sq)
    body = mix.tilted(-(kappa + 1), P * mix.moment(-(kappa + 1)))
    total = body.total_mass()
    if eps is None:
        defect = 1 - total
        if defect < 0:
            raise MassExceedsOneError(total)
    else:
        defect = as_scalar(eps)
        if defect < 0:
            raise ValueError("explicit defect mass must be nonnegative")
        if total + defect != 1:
            raise MassExceedsOneError(total + defect)
    return body.with_defect(defect)
