"""Finite-order Stieltjes moment tests, determinacy evidence, and recovery.

Verdicts are three-valued with an explicit order: a passing Hankel test is
"consistent up to N", never a proof of the full moment property, unless an
exact representing measure is exhibited.  A failing test is a certificate,
carried as a concrete principal submatrix with negative determinant.

The default arithmetic is exact rational: Hankel matrices of moment
sequences (Hilbert-like matrices) are notoriously ill-conditioned, and the
exact sign test keeps desk-scale results bit-reproducible.  Floating mode
falls back to a symmetric-eigenvalue lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (
    MeasureRecoveryError,
    NegativeEntryError,
    WindowTooSmallError,
    ZeroEntryError,
)
from .measures import AtomicMeasure
from .rationals import (
    ONE,
    ZERO,
    Scalar,
    all_exact,
    as_scalar,
    carleman_term,
    format_human,
)

DEFAULT_PSD_TOL = 1e-9


@dataclass(frozen=True)
class MomentSequence:
    """Finite prefix (t_0, ..., t_N) of a nonnegative sequence."""

    values: Tuple[Scalar, ...]
    origin: str = ""

    def __post_init__(self):
        for i, v in enumerate(self.values):
            if v < 0:
                raise NegativeEntryError(i, v)

    @staticmethod
    def coerce(seq, origin: str = "") -> "MomentSequence":
        if isinstance(seq, MomentSequence):
            return seq
        return MomentSequence(tuple(as_scalar(v) for v in seq), origin=origin)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def is_exact(self) -> bool:
        return all_exact(self.values)

    def as_floats(self) -> "MomentSequence":
        return MomentSequence(tuple(float(v) for v in self.values), origin=self.origin)


@dataclass(frozen=True)
class TwoSidedMomentSequence:
    """Window t_lo, ..., t_hi of a two-sided positive sequence (lo <= 0 <= hi)."""

    lo: int
    values: Tuple[Scalar, ...]
    origin: str = ""

    def __post_init__(self):
        if self.lo > 0:
            raise ValueError("window must contain index 0")
        if self.lo + len(self.values) - 1 < 0:
            raise ValueError("window must contain index 0")
        for i, v in enumerate(self.values):
            if v <= 0:
                raise NegativeEntryError(self.lo + i, v, needs="strictly positive")

    @staticmethod
    def from_map(mapping, origin: str = "") -> "TwoSidedMomentSequence":
        idx = sorted(mapping)
        if idx != list(range(idx[0], idx[-1] + 1)):
            raise ValueError("two-sided window has gaps")
        return TwoSidedMomentSequence(
            idx[0], tuple(as_scalar(mapping[i]) for i in idx), origin=origin
        )

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __getitem__(self, n: int) -> Scalar:
        if not self.lo <= n <= self.hi:
            raise IndexError(n)
        return self.values[n - self.lo]

    def shifted(self, k: int) -> MomentSequence:
        """The one-sided sequence (t_{-k}, t_{-k+1}, ...)."""
        if k > -self.lo:
            raise WindowTooSmallError(-self.lo, k)
        return MomentSequence(
            self.values[-k - self.lo:],
            origin=f"{self.origin} shifted by {k}".strip(),
        )


@dataclass(frozen=True)
class HankelWitness:
    """A principal submatrix of a Hankel form with negative determinant."""

    kind: str                     # "hankel" (t_{i+j}) or "hankel_shifted" (t_{i+j+1})
    indices: Tuple[int, ...]      # row/col indices into the Hankel matrix
    entries: Tuple[Tuple[Scalar, ...], ...]
    det: Optional[Scalar]         # exact determinant (None in floating mode)
    min_eigenvalue: Optional[float] = None
    two_sided_shift: Optional[int] = None

    @property
    def order(self) -> int:
        return max(self.indices)

    def describe(self) -> str:
        rows = "; ".join(
            "[" + ", ".join(format_human(x) for x in row) + "]" for row in self.entries
        )
        label = self.kind
        if self.two_sided_shift is not None:
            label += f" (shift {self.two_sided_shift})"
        if self.det is not None:
            return f"{label} minor {list(self.indices)} = [{rows}] has det {format_human(self.det)}"
        return f"{label} has min eigenvalue {self.min_eigenvalue}"


@dataclass(frozen=True)
class StieltjesVerdict:
    """Violated / ConsistentUpTo(N) / ExactlyRepresented, with the evidence."""

    kind: str                     # "violated" | "consistent" | "represented"
    upto: int
    witness: Optional[HankelWitness] = None
    measure: Optional[AtomicMeasure] = None
    shifts_checked: Tuple[int, ...] = ()

    @property
    def violated(self) -> bool:
        return self.kind == "violated"

    @property
    def order(self) -> Optional[int]:
        return self.witness.order if self.witness else None


def hankel_matrix(values: Sequence[Scalar], offset: int, size: int):
    return [[values[i + j + offset] for j in range(size)] for i in range(size)]


def _forward_eliminate(a) -> int:
    """Gaussian elimination with partial pivoting on the rows ``a``, in place.

    Brings the leading square block to upper triangular form (entries below
    the diagonal are left stale, never zeroed) and returns the sign of the
    row permutation, or 0 when the block is singular.
    """
    n = len(a)
    sign = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col]
        for r in range(col + 1, n):
            row = a[r]
            if row[col] == 0:
                continue
            factor = row[col] / pivot[col]
            a[r] = row[:col + 1] + [x - factor * y for x, y in zip(row[col + 1:], pivot[col + 1:])]
    return sign


def det_exact(matrix) -> Fraction:
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    a = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in matrix]
    det = Fraction(_forward_eliminate(a))
    if det:
        for i in range(len(a)):
            det *= a[i][i]
    return det


def solve_exact(matrix, rhs):
    """Solve A x = b over Fractions; raises ValueError when singular."""
    n = len(matrix)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if _forward_eliminate(a) == 0:
        raise ValueError("singular system")
    x = [ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc = acc - a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def psd_violation_exact(matrix) -> Optional[Tuple[int, ...]]:
    """Indices of a principal submatrix with negative determinant, or None.

    Symmetric elimination with diagonal pivoting: a negative diagonal entry
    of the running Schur complement, or a zero diagonal with a nonzero
    residual row, closes a witness together with the pivots used so far.
    Each step computes the O(m) diagonal of the next complement before its
    O(m^2) update, so the step that exposes a negative entry skips the update.
    """
    n = len(matrix)
    bad = next((r for r in range(n) if matrix[r][r] < 0), None)
    if bad is not None:
        return (bad,)
    idx = list(range(n))
    a = [list(row) for row in matrix]
    pivots: list = []
    while idx:
        m = len(idx)
        p = next((r for r in range(m) if a[r][r] > 0), None)
        if p is None:
            # all remaining diagonal entries are zero
            for r in range(m):
                for c in range(r + 1, m):
                    if a[r][c] != 0:
                        return tuple(sorted(pivots + [idx[r], idx[c]]))
            return None
        piv = a[p][p]
        keep = [r for r in range(m) if r != p]
        col = [a[r][p] for r in keep]
        scaled = [x / piv for x in col]
        pivots.append(idx[p])
        idx = [idx[r] for r in keep]
        diag = [a[r][r] - x * y for r, x, y in zip(keep, col, scaled)]
        bad = next((i for i, x in enumerate(diag) if x < 0), None)
        if bad is not None:
            return tuple(sorted(pivots + [idx[bad]]))
        # the complement stays symmetric: build its upper triangle and mirror it
        b = [[None] * (m - 1) for _ in keep]
        for i, r in enumerate(keep):
            row, x, out = a[r], col[i], b[i]
            out[i] = diag[i]
            for j in range(i + 1, m - 1):
                out[j] = b[j][i] = row[keep[j]] - x * scaled[j]
        a = b
    return None


def _qd_stop(t) -> Optional[Tuple[int, Scalar]]:
    """Where the quotient-difference pass on t_0..t_N stops, or None if it never does.

    The Stieltjes continued fraction t_0 / (1 - c_1 z / (1 - c_2 z / ...)) of
    t_0..t_N has c_{2k-1} = q_k^(0) and c_{2k} = e_k^(0) in Rutishauser's
    quotient-difference rhombus, and every leading principal minor of
    (t_{i+j}) and (t_{i+j+1}) is a product of powers of t_0 and c_1..c_N
    (Wall 1948): with t_0 > 0, c_1..c_{2k-2} > 0 make the leading k x k
    block of (t_{i+j}) positive definite and c_1..c_{2k-1} > 0 that of
    (t_{i+j+1}).  The rhombus grows one anti-diagonal per entry t_d, from
    q_1^(d-1) = t_d / t_{d-1} down to c_d, and stops at the first entry
    x <= 0 with (d, x) (with (0, t_0) when t_0 <= 0): every entry of the
    anti-diagonals before d, hence c_1..c_{d-1}, is then positive.  None
    means every entry, hence every c_j, is positive, which proves both forms
    positive definite.  The entries with superscript n are the coefficients
    of the shifted sequence (t_n, t_{n+1}, ...), so on a positive definite
    prefix all of them are positive, and a stop means "not proven", never
    "violated".
    """
    if t[0] <= 0:
        return 0, t[0]
    prev: list = []   # anti-diagonal of t_{d-1}: q_1^(d-2), e_1^(d-3), q_2^(d-4), ...
    for d in range(1, len(t)):
        cur: list = []
        for i in range(d):
            if i == 0:
                x = t[d] / t[d - 1]
            elif i % 2:   # e_k^(n) = q_k^(n+1) - q_k^(n) + e_{k-1}^(n+1)
                x = cur[i - 1] - prev[i - 1]
                if i > 1:
                    x += prev[i - 2]
            else:         # q_{k+1}^(n) = q_k^(n+1) e_k^(n+1) / e_k^(n)
                x = prev[i - 2] * cur[i - 1] / prev[i - 1]
            if x <= 0:
                return d, x
            cur.append(x)
        prev = cur
    return None


def _qd_positive(t) -> bool:
    """True when the quotient-difference pass proves both Hankel forms positive definite."""
    return _qd_stop(t) is None


def _finite_rank_consistent(t, d: int) -> bool:
    """True when t_0..t_N, whose qd pass stopped at anti-diagonal d, is proven finite-rank PSD.

    Let k = ceil(d / 2).  The anti-diagonals before d are positive, so
    c_1..c_{2k-2} > 0 make H_k = (t_{i+j})_{i,j<k} positive definite; solve
    H_k c = (t_k, ..., t_{2k-1}) (2k - 1 <= d, inside the prefix).  If
    t_{m+k} = sum_l c_l t_{m+l} holds for m = 0..N-k, then every row of
    either form past row k - 1 is the same combination of the rows before
    it (all entries involved are t_0..t_N), so (t_{i+j}) = P^T H_k P and
    (t_{i+j+1}) = P^T H'_k P for one matrix P, with H'_k = (t_{i+j+1})_{i,j<k}.
    For d = 2k, c_{2k-1} > 0 too, so H'_k is positive definite and both
    forms are PSD.  For d = 2k - 1 (the case of an atom at 0) only H'_{k-1}
    is known positive definite; there c_0 = 0 is required, so t_{m+1} obeys
    the order k - 1 recurrence with coefficients c_1..c_{k-1} and
    (t_{i+j+1}) = Q^T H'_{k-1} Q is PSD as well.  Either way the prefix is
    consistent.  False means "not proven".
    """
    k = (d + 1) // 2
    if k == 0:
        return False
    c = solve_exact(hankel_matrix(t, 0, k), t[k:2 * k])
    if d % 2 and c[0] != 0:
        return False
    return all(t[m + k] == sum(x * y for x, y in zip(c, t[m:m + k]))
               for m in range(len(t) - k))


def _symmetric_det(matrix) -> Fraction:
    """Determinant of a symmetric matrix by elimination in index order.

    Each step divides the pivot row once and updates only the upper
    triangle of the trailing block, about half the work of ``det_exact``;
    a zero pivot hands the whole matrix to ``det_exact``, which pivots by
    rows.  It shares no code with ``psd_violation_exact``, so it re-verifies
    what that elimination found.
    """
    a = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in matrix]
    n = len(a)
    det = ONE
    for k in range(n):
        row = a[k]
        piv = row[k]
        if piv == 0:
            return det_exact(matrix)
        det *= piv
        scaled = [x / piv for x in row[k + 1:]]
        for i in range(k + 1, n):
            x = row[i]
            if x:
                rest = a[i]
                rest[i:] = [y - x * s for y, s in zip(rest[i:], scaled[i - k - 1:])]
    return det


def _witness_from_indices(kind, matrix, indices, shift=None) -> HankelWitness:
    sub = tuple(tuple(matrix[r][c] for c in indices) for r in indices)
    det = _symmetric_det(sub)
    if det >= 0:  # the elimination guarantees a negative principal minor
        raise AssertionError(f"witness minor {indices} has determinant {det}")
    return HankelWitness(kind=kind, indices=tuple(indices), entries=sub, det=det,
                         two_sided_shift=shift)


def psd_violation_float(matrix, tol: float, kind: str) -> Optional[HankelWitness]:
    import numpy as np

    arr = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    if arr.size == 0:
        return None
    eigvals = np.linalg.eigvalsh(arr)
    trace = float(np.trace(arr))
    bound = -tol * (trace if trace > 0 else 1.0)
    low = float(eigvals.min())
    if low >= bound:
        return None
    return HankelWitness(
        kind=kind,
        indices=tuple(range(arr.shape[0])),
        entries=tuple(tuple(row) for row in matrix),
        det=None,
        min_eigenvalue=low,
    )


def resolve_mode(values, mode: str) -> str:
    if mode == "auto":
        return "exact" if all_exact(values) else "float"
    if mode == "exact":
        if not all_exact(values):
            raise ValueError("exact mode requires rational inputs throughout")
        return "exact"
    if mode == "float":
        return "float"
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def stieltjes_check(t, mode: str = "auto", tol: float = DEFAULT_PSD_TOL) -> StieltjesVerdict:
    """Test both Hankel forms (t_{i+j}) and (t_{i+j+1}) for positive semidefiniteness.

    Both conditions are necessary for every truncation of a Stieltjes moment
    sequence; a failure of either is a certificate of non-membership, and it
    stays a certificate under any extension of the sequence.  In exact mode
    the O(N^2) quotient-difference pass decides positive definite prefixes,
    and a pass that stops on a zero entry is followed by the finite-rank
    proof of ``_finite_rank_consistent``; the elimination runs only when
    neither proves the prefix consistent, and finds the witness.
    """
    t = MomentSequence.coerce(t)
    n = len(t)
    if n < 1:
        raise ValueError("need at least t_0")
    arith = resolve_mode(t.values, mode)
    values = t.values if arith == "exact" else tuple(float(v) for v in t.values)
    N = n - 1
    if arith == "exact":
        stop = _qd_stop(values)
        if stop is None or (stop[1] == 0 and _finite_rank_consistent(values, stop[0])):
            return StieltjesVerdict(kind="consistent", upto=N)
    layouts = [("hankel", 0, N // 2 + 1)]
    if N >= 1:
        layouts.append(("hankel_shifted", 1, (N - 1) // 2 + 1))
    for kind, offset, size in layouts:
        matrix = hankel_matrix(values, offset, size)
        if arith == "exact":
            bad = psd_violation_exact(matrix)
            if bad is not None:
                witness = _witness_from_indices(kind, matrix, bad)
                return StieltjesVerdict(kind="violated", upto=N, witness=witness)
        else:
            witness = psd_violation_float(matrix, tol, kind)
            if witness is not None:
                return StieltjesVerdict(kind="violated", upto=N, witness=witness)
    return StieltjesVerdict(kind="consistent", upto=N)


def two_sided_stieltjes_check(ts: TwoSidedMomentSequence, K: Optional[int] = None,
                              mode: str = "auto", tol: float = DEFAULT_PSD_TOL) -> StieltjesVerdict:
    """Run the one-sided check on every shifted sequence (t_{-k}, t_{-k+1}, ...).

    A two-sided sequence is a moment window of a measure on (0, inf) exactly
    when every left shift is Stieltjes; k ranges over 0..K here, bounded by
    the window.  In exact mode one quotient-difference pass over the longest
    shift (t_{-K}, ...) comes first: its rhombus entries with superscript
    n >= K - k are the whole rhombus of shift k, so a pass with every entry
    positive proves every shift positive definite at once.  Otherwise each
    shift is checked in turn, and the first violated one gives the witness.
    """
    if K is None:
        K = -ts.lo
    if K < 0:
        raise ValueError(f"window must be nonnegative, got {K}")
    if K > -ts.lo:
        raise WindowTooSmallError(-ts.lo, K)
    if resolve_mode(ts.values, mode) == "exact" and _qd_positive(ts.shifted(K).values):
        return StieltjesVerdict(kind="consistent", upto=ts.hi, shifts_checked=tuple(range(K + 1)))
    shifts = []
    for k in range(K + 1):
        verdict = stieltjes_check(ts.shifted(k), mode=mode, tol=tol)
        shifts.append(k)
        if verdict.violated:
            witness = replace(verdict.witness, two_sided_shift=k)
            return StieltjesVerdict(kind="violated", upto=ts.hi, witness=witness,
                                    shifts_checked=tuple(shifts))
    return StieltjesVerdict(kind="consistent", upto=ts.hi, shifts_checked=tuple(shifts))


# -- atomic-measure recovery --------------------------------------------------


# trial division enumerates the divisors of |a0|, |an| up to 10**10 and no further
_MAX_TRIAL_DIVISIONS = 10 ** 5


def _rational_root_candidates(a0: int, an: int, cap: int = 4000):
    """Candidate roots p/q with p | a0 and q | an, both signs, lowest terms.

    None when a coefficient is too large to trial-divide within
    ``_MAX_TRIAL_DIVISIONS`` steps or has more than ``cap`` divisors.
    """

    def divisors(n: int):
        n = abs(n)
        if n == 0 or math.isqrt(n) > _MAX_TRIAL_DIVISIONS:
            return None
        out = []
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                out.append(d)
                if d != n // d:
                    out.append(n // d)
                if len(out) > cap:
                    return None
        return sorted(out)

    ps = divisors(a0)
    qs = divisors(an)
    if ps is None or qs is None or len(ps) * len(qs) > cap:
        return None
    cands = set()
    for p in ps:
        for q in qs:
            if math.gcd(p, q) == 1:
                cands.add(Fraction(p, q))
                cands.add(Fraction(-p, q))
    return sorted(cands)


def _eval_int_poly(coeffs, p: int, q: int) -> int:
    """q**deg * poly(p/q) for an integer coefficient list (ascending)."""
    deg = len(coeffs) - 1
    total = 0
    qpow = 1
    for k in range(deg, -1, -1):
        total = total * p + coeffs[k] * qpow
        qpow *= q
    return total


def _deflate(poly, root):
    """Synthetic division of an ascending coefficient list by (x - root)."""
    out = [ZERO] * (len(poly) - 1)
    acc = ZERO
    for k in range(len(poly) - 1, 0, -1):
        acc = poly[k] + acc * root
        out[k - 1] = acc
    return out


def _float_root_hints(poly) -> list:
    """Rational candidates reconstructed from floating roots, unverified."""
    import numpy as np

    try:
        arr = np.array([float(c) for c in poly], dtype=float)
        roots = np.polynomial.polynomial.polyroots(arr)
    except Exception:
        return []
    hints = []
    for r in roots:
        if abs(r.imag) > 1e-6 * (1.0 + abs(r.real)):
            continue
        for den in (1, 10, 100, 10 ** 4, 10 ** 8):
            hints.append(Fraction(r.real).limit_denominator(den))
    return hints


def _rational_roots_monic(coeffs) -> Optional[list]:
    """All roots of a monic rational polynomial, if it splits over Q.

    ``coeffs`` is the full ascending list including the leading 1.  Candidate
    roots come first from floating hints, then from the divisor enumeration
    of the rational root theorem; every accepted root is verified exactly.
    Returns None when the polynomial does not factor completely over Q (the
    caller then falls back to validated floating recovery).
    """
    poly = [Fraction(c) for c in coeffs]
    roots = []
    while len(poly) > 1:
        if poly[0] == 0:
            roots.append(ZERO)
            poly = poly[1:]
            continue
        denom_lcm = 1
        for c in poly:
            denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in poly]
        root = None
        for cand in _float_root_hints(poly):
            if _eval_int_poly(ints, cand.numerator, cand.denominator) == 0:
                root = cand
                break
        if root is None:
            cands = _rational_root_candidates(ints[0], ints[-1])
            if cands is None:
                return None
            for cand in cands:
                if _eval_int_poly(ints, cand.numerator, cand.denominator) == 0:
                    root = cand
                    break
        if root is None:
            return None
        roots.append(root)
        poly = _deflate(poly, root)
    return roots


def recover_atomic_measure(t, m: int, mode: str = "auto",
                           tol: float = 1e-8) -> AtomicMeasure:
    """Recover the unique measure with at most m atoms generating t_0..t_{2m-1}.

    Rank detection on the leading Hankel minors picks the atom count m',
    the degree-m' kernel polynomial supplies the locations, and a
    Vandermonde solve supplies the masses.  Rejections (rank mismatch,
    nonreal or negative locations, nonpositive masses) all mean the prefix
    is not generated by an m-atomic nonnegative measure.
    """
    t = MomentSequence.coerce(t)
    if m < 1:
        raise ValueError("atom bound must be >= 1")
    if len(t) < 2 * m:
        raise ValueError(f"need at least {2 * m} moments to resolve {m} atoms")
    arith = resolve_mode(t.values, mode)
    if arith == "exact":
        measure = _recover_exact(t, m)
    else:
        measure = _recover_float(t, m, tol)
    _verify_recovery(t, m, measure, arith, tol)
    return measure


def _hankel_rank(values, m: int, singular) -> int:
    rank = 0
    for k in range(1, m + 1):
        h = hankel_matrix(values, 0, k)
        if singular(h):
            break
        rank = k
    return rank


def _recover_exact(t: MomentSequence, m: int) -> AtomicMeasure:
    values = t.values
    rank = _hankel_rank(values, m, lambda h: det_exact(h) == 0)
    if rank == 0:
        return AtomicMeasure(())
    h = hankel_matrix(values, 0, rank)
    rhs = [values[rank + j] for j in range(rank)]
    c = solve_exact(h, rhs)
    poly = [-ci for ci in c] + [ONE]
    roots = _rational_roots_monic(poly)
    if roots is None:
        # validated floating fallback; the final moment check guards it
        return _recover_float(t.as_floats(), m, 1e-8, rank=rank)
    return _measure_from_roots(values, roots)


def _measure_from_roots(values, roots) -> AtomicMeasure:
    for r in roots:
        if isinstance(r, complex):
            raise MeasureRecoveryError("nonreal_roots", f"location {r}")
        if r < 0:
            raise MeasureRecoveryError("negative_location", f"location {format_human(r)}")
    if len(set(roots)) != len(roots):
        raise MeasureRecoveryError("rank_deficient", "repeated atom locations")
    rank = len(roots)
    vand = [[roots[j] ** i for j in range(rank)] for i in range(rank)]
    try:
        weights = solve_exact(vand, list(values[:rank]))
    except ValueError as exc:
        raise MeasureRecoveryError("rank_deficient", str(exc)) from exc
    for r, w in zip(roots, weights):
        if w <= 0:
            raise MeasureRecoveryError(
                "negative_mass", f"mass {format_human(w)} at {format_human(r)}"
            )
    return AtomicMeasure.from_atoms(zip(roots, weights))


def _recover_float(t: MomentSequence, m: int, tol: float, rank: Optional[int] = None) -> AtomicMeasure:
    import numpy as np

    values = [float(v) for v in t.values]
    scale = max(abs(v) for v in values) or 1.0
    if rank is None:
        def singular(h):
            arr = np.array(h, dtype=float)
            sv = np.linalg.svd(arr, compute_uv=False)
            return sv[-1] <= 1e-10 * max(sv[0], scale)
        rank = _hankel_rank(values, m, singular)
    if rank == 0:
        return AtomicMeasure(())
    h = np.array(hankel_matrix(values, 0, rank), dtype=float)
    rhs = np.array([values[rank + j] for j in range(rank)], dtype=float)
    try:
        c = np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError as exc:
        raise MeasureRecoveryError("rank_deficient", str(exc)) from exc
    poly = np.concatenate([-c, [1.0]])
    roots = np.polynomial.polynomial.polyroots(poly)
    locs = []
    for r in roots:
        if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
            raise MeasureRecoveryError("nonreal_roots", f"location {r}")
        x = float(r.real)
        if x < -1e-12:
            raise MeasureRecoveryError("negative_location", f"location {x}")
        locs.append(max(x, 0.0))
    locs.sort()
    vand = np.array([[loc ** i for loc in locs] for i in range(rank)], dtype=float)
    try:
        weights = np.linalg.solve(vand, np.array(values[:rank], dtype=float))
    except np.linalg.LinAlgError as exc:
        raise MeasureRecoveryError("rank_deficient", str(exc)) from exc
    for loc, w in zip(locs, weights):
        if w <= 0:
            raise MeasureRecoveryError("negative_mass", f"mass {w} at {loc}")
    return AtomicMeasure.from_atoms(zip(locs, weights))


def _verify_recovery(t: MomentSequence, m: int, measure: AtomicMeasure,
                     arith: str, tol: float) -> None:
    # every supplied moment must be reproduced, not just the 2m used to fit;
    # extra entries are what expose an atom count beyond the bound
    for n in range(len(t.values)):
        got = measure.moment(n)
        want = t.values[n]
        if arith == "exact" and measure.is_exact():
            ok = got == want
        else:
            ok = abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))
        if not ok:
            raise MeasureRecoveryError(
                "rank_deficient",
                f"recovered moments disagree at order {n}: {format_human(got)} vs {format_human(want)}",
            )


def represent(t, m_max: int, mode: str = "auto", tol: float = 1e-8) -> Optional[AtomicMeasure]:
    """Try to exhibit an atomic measure reproducing the whole prefix, else None."""
    t = MomentSequence.coerce(t)
    m = min(m_max, len(t) // 2)
    if m < 1:
        return None
    try:
        # recovery already checks every moment of the prefix, not just the 2m it fits
        return recover_atomic_measure(t, m, mode=mode, tol=tol)
    except MeasureRecoveryError:
        return None


# -- determinacy evidence -----------------------------------------------------


def carleman_partial_sum(t, N: Optional[int] = None) -> float:
    """Partial sum S_N of t_n**(-1/(2n)) for n = 1..N.

    Pure evidence: divergence of the full series is a sufficient condition
    for determinacy but is not decidable from a prefix, and reports must
    say so.
    """
    t = MomentSequence.coerce(t)
    if N is None:
        N = len(t) - 1
    if N < 0:
        raise ValueError(f"number of terms must be nonnegative, got {N}")
    if N > len(t) - 1:
        raise ValueError(f"sequence has {len(t) - 1} usable terms, {N} requested")
    total = 0.0
    for n in range(1, N + 1):
        if t[n] == 0:
            raise ZeroEntryError(n)
        total += carleman_term(t[n], n)
    return total


@dataclass(frozen=True)
class DeterminacyVerdict:
    kind: str                      # "determinate_exact" | "carleman_evidence" | "unknown"
    partial_sum: Optional[float] = None
    terms: int = 0
    note: str = ""


def determinacy_verdict(source) -> DeterminacyVerdict:
    """Determinacy evidence for a measure or a moment prefix.

    Finitely atomic measures are compactly supported, hence determinate;
    for a bare prefix only the Carleman partial sum can be reported.
    """
    if isinstance(source, AtomicMeasure):
        return DeterminacyVerdict(
            kind="determinate_exact",
            note="finitely atomic measure: compactly supported, hence determinate",
        )
    t = MomentSequence.coerce(source)
    N = len(t) - 1
    if any(t[n] == 0 for n in range(1, N + 1)):
        return DeterminacyVerdict(kind="unknown", note="vanishing entries; partial sum undefined")
    s = carleman_partial_sum(t, N)
    return DeterminacyVerdict(
        kind="carleman_evidence",
        partial_sum=s,
        terms=N,
        note=f"partial sum S_{N} = {s:.6g} over {N} terms; divergence is not decidable from a prefix",
    )
