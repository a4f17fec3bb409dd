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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import MeasureRecoveryError, NegativeEntryError, WindowTooSmallError, ZeroEntryError
from .measures import AtomicMeasure
from .rationals import ZERO, Scalar, as_scalar, carleman_term, format_human, to_float

DEFAULT_PSD_TOL = 1e-9


def _scan(values, lo: int = 0, strict: bool = False) -> bool:
    """Whether every entry is a Fraction, in one pass that raises NegativeEntryError (t_{lo + i})
    at the first entry < 0, or <= 0 when ``strict``; a Fraction's sign is its numerator's."""
    exact = True
    for i, v in enumerate(values):
        if isinstance(v, Fraction):
            x = v.numerator
        else:
            x, exact = v, False
        if x <= 0 if strict else x < 0:
            raise NegativeEntryError(lo + i, v, "strictly positive" if strict else "nonnegative")
    return exact


@dataclass(frozen=True)
class MomentSequence:
    """Finite prefix (t_0, ..., t_N) of a nonnegative sequence."""

    values: Tuple[Scalar, ...]
    exact: bool = field(init=False, repr=False, compare=False)   # every entry a Fraction

    def __post_init__(self):
        object.__setattr__(self, "exact", _scan(self.values))

    @staticmethod
    def coerce(seq) -> "MomentSequence":
        if isinstance(seq, MomentSequence):
            return seq
        return MomentSequence(tuple(map(as_scalar, seq)))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class TwoSidedMomentSequence:
    """Window t_lo, ..., t_hi of a two-sided positive sequence (lo <= 0 <= hi)."""

    lo: int
    values: Tuple[Scalar, ...]
    exact: bool = field(init=False, repr=False, compare=False)   # every entry a Fraction

    def __post_init__(self):
        if self.lo > 0 or self.lo + len(self.values) - 1 < 0:
            raise ValueError("window must contain index 0")
        object.__setattr__(self, "exact", _scan(self.values, self.lo, strict=True))

    @staticmethod
    def from_map(mapping) -> "TwoSidedMomentSequence":
        idx = sorted(mapping)
        if idx != list(range(idx[0], idx[-1] + 1)):
            raise ValueError("two-sided window has gaps")
        return TwoSidedMomentSequence(idx[0], tuple(as_scalar(mapping[i]) for i in idx))

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def shifted(self, k: int) -> MomentSequence:
        """The one-sided sequence (t_{-k}, t_{-k+1}, ...)."""
        if k > -self.lo:
            raise WindowTooSmallError(-self.lo, k)
        return MomentSequence(self.values[-k - self.lo:])


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
        rows = "; ".join("[" + ", ".join(format_human(x) for x in row) + "]" for row in self.entries)
        label = self.kind
        if self.two_sided_shift is not None:
            label += f" (shift {self.two_sided_shift})"
        if self.det is not None:
            return f"{label} minor {list(self.indices)} = [{rows}] has det {format_human(self.det)}"
        return f"{label} has min eigenvalue {self.min_eigenvalue}"


@dataclass(frozen=True)
class StieltjesVerdict:
    """Violated / ConsistentUpTo(N), with the evidence."""

    kind: str                     # "violated" | "consistent"
    upto: int
    witness: Optional[HankelWitness] = None
    shifts_checked: Tuple[int, ...] = ()

    @property
    def violated(self) -> bool:
        return self.kind == "violated"


def hankel_matrix(values: Sequence[Scalar], offset: int, size: int):
    return [[values[i + j + offset] for j in range(size)] for i in range(size)]


def det_exact(matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination on an integer matrix.

    Row i is scaled by the lcm L_i of its denominators (a large denominator
    then scales one row, not all of them), and Bareiss's steps
    a_rc <- (a_rc a_kk - a_rk a_kc) / a_{k-1,k-1} divide exactly, so every
    entry stays an integer minor of the scaled matrix and no step takes a
    gcd.  A zero pivot swaps in the first row below with a nonzero entry in
    its column; det = +-a_nn / (L_0 ... L_{n-1}).  Only the columns right of
    each pivot are updated; the entries below the diagonal are left stale,
    never zeroed.
    """
    a = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in matrix]
    scales = [math.lcm(*(x.denominator for x in row)) for row in a]
    a = [[x.numerator * (L // x.denominator) for x in row] for L, row in zip(scales, a)]
    n, sign, prev = len(a), 1, 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col]
        p = pivot[col]
        for r in range(col + 1, n):
            row = a[r]
            x = row[col]
            a[r] = row[:col + 1] + [(y * p - x * z) // prev for y, z in zip(row[col + 1:], pivot[col + 1:])]
        prev = p
    return Fraction(sign * prev, math.prod(scales))


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


def _qd_columns(t):
    """Columns q_1, e_1, q_2, e_2, ... of Rutishauser's quotient-difference rhombus of t_0..t_N.

    The Stieltjes continued fraction t_0 / (1 - c_1 z / (1 - c_2 z / ...)) of
    t_0..t_N has c_{2k-1} = q_k^(0) and c_{2k} = e_k^(0), the first entries
    of the columns.  Column q_1 lists q_1^(n) = t_{n+1} / t_n, n = 0..N-1, and
    each next column, one entry shorter, comes from the two before it,
    whatever the signs of the entries:
    e_k^(n) = q_k^(n+1) - q_k^(n) + e_{k-1}^(n+1) (e_0 = 0) and
    q_{k+1}^(n) = q_k^(n+1) e_k^(n+1) / e_k^(n).  An entry is an integer pair
    (p, q) in lowest terms with q > 0, one gcd per entry, so its sign is
    its numerator's.  The columns stop before one that would divide by an
    exact zero (t_0..t_{N-1}, or an e entry other than its column's last).
    It serves only ``_wall_det``, which re-verifies witnesses apart from
    Chebyshev's table.
    """
    gcd = math.gcd
    pairs = [(x.numerator, x.denominator) for x in t]
    if not all(p for p, _ in pairs[:-1]):
        return
    q = []
    for (a, b), (c, d) in zip(pairs[1:], pairs):
        p, r = a * d, b * c
        g = gcd(p, r) if r > 0 else -gcd(p, r)
        q.append((p // g, r // g))
    e = [(0, 1)] * len(t)   # e_0
    while q:
        yield q
        col = []   # e_k^(n) = q_k^(n+1) - q_k^(n) + e_{k-1}^(n+1)
        for (a, b), (c, d), (x, y) in zip(q[1:], q, e[1:]):
            p, r = (a * d - c * b) * y + x * b * d, b * d * y
            g = gcd(p, r)
            col.append((p // g, r // g))
        e = col
        if not e:
            return
        yield e
        if not all(x for x, _ in e[:-1]):
            return
        col = []   # q_{k+1}^(n) = q_k^(n+1) e_k^(n+1) / e_k^(n)
        for (a, b), (c, d), (x, y) in zip(q[1:], e[1:], e):
            p, r = a * c * y, b * d * x
            g = gcd(p, r) if r > 0 else -gcd(p, r)
            col.append((p // g, r // g))
        q = col


def _wall_det(s) -> Optional[Scalar]:
    """det (s_{i+j})_{i,j<k} from s_0..s_{2k-2} by Wall's formula, or None.

    det = s_0^k prod_{i=1}^{k-1} (c_{2i-1} c_{2i})^(k-i) with c_1..c_{2k-2}
    the S-fraction coefficients, the first entries of the 2k - 2 columns of
    ``_qd_columns`` (Wall 1948), taken from their integer pairs as one
    numerator and one denominator, so the one Fraction is made at the end.
    The rhombus rules are rational identities, so the product is the
    determinant whenever no divisor was zero; None when the columns stopped
    on a zero divisor.
    """
    k = (len(s) + 1) // 2
    c = [col[0] for col in _qd_columns(s[:2 * k - 1])]
    if len(c) < 2 * k - 2:
        return None
    num, den = s[0].numerator ** k, s[0].denominator ** k
    for i in range(1, k):
        (p1, q1), (p2, q2) = c[2 * i - 2], c[2 * i - 1]
        num *= (p1 * p2) ** (k - i)
        den *= (q1 * q2) ** (k - i)
    return Fraction(num, den)


def _lowest(p: int, q: int) -> Tuple[int, int]:
    """p / q (q > 0) in lowest terms."""
    g = math.gcd(p, q)
    return p // g, q // g


def _chebyshev(t, n: int):
    """Chebyshev's table of t_0..t_N up to row n, or to the first row with h_k <= 0.

    With L(x^j) = t_j, row k lists sigma_{k,l} = L(pi_k x^l), l = k..N-k, for
    the monic orthogonal polynomials pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1}
    of L (pi_0 = 1; sigma_{k,l} = 0 for l < k).  h_k = sigma_{k,k} = L(pi_k^2)
    is det H_{k+1} / det H_k, the k-th pivot of (t_{i+j}).  Each row costs O(N)
    (Gautschi 2004, section 2.1): sigma_{k+1,l} = sigma_{k,l+1} - alpha_k sigma_{k,l}
    - beta_k sigma_{k-1,l}, alpha_k = sigma_{k,k+1} / h_k - sigma_{k-1,k} / h_{k-1},
    beta_k = h_k / h_{k-1}.  Rows are kept fraction-free: rows[k] is the
    primitive integer vector with sigma_{k,k+i} = rows[k][i] / D_k, D_k > 0 (any D_k
    for an all-zero row).  dens[k] = D_k, alpha_k and beta_k are integer pairs p / q
    in lowest terms with q > 0, one gcd each.  Returns (rows, dens, alpha, beta).
    """
    den = math.lcm(*(x.denominator for x in t))
    # a row -1 of (1, 0, 0, ...) with scale 1 makes the first step the general one
    row0 = [x.numerator * (den // x.denominator) for x in t]
    rows, dens = [[1] + [0] * len(t), row0], [(1, 1), (den, 1)]
    alpha, beta = [], []
    while len(rows) <= n + 1 and rows[-1][0] > 0:
        v, u = rows[-2:]   # u0 v0 D_k sigma_{k+1,l} = u0 v0 u_{l+1} - (u1 v0 - v1 u0) u_l - u0^2 v_l
        a, b, c = u[0] * v[0], u[1] * v[0] - v[1] * u[0], u[0] * u[0]
        e = math.gcd(a, b, c)   # most of the next row's content, taken out before the O(N) products
        a, b, c = a // e, b // e, c // e
        nxt = [a * y - b * x - c * z for x, y, z in zip(u[1:], u[2:], v[2:])]
        g = math.gcd(*nxt) or 1
        rows.append([x // g for x in nxt] if g > 1 else nxt)
        (p0, q0), (p1, q1) = dens[-2:]   # beta_k = h_k / h_{k-1} with h_k = u0 / D_k
        alpha.append(_lowest(b, a))
        beta.append(_lowest(u[0] * p0 * q1, v[0] * q0 * p1))
        dens.append(_lowest(a * p1, q1 * g))
    return rows[1:], dens[1:], alpha, beta


def _first_step(t, n: int) -> Optional[Tuple[int, int]]:
    """(0, r) for the first r < n with t_0 t_{2r} < t_r^2 when t_0 != 0, else None.

    The elimination's first step on (t_{i+j})_{i,j<n}, in O(n) integer products.
    """
    if not t[0]:
        return None
    a, b = t[0].numerator, t[0].denominator
    r = next((r for r in range(1, n) if a * t[2 * r].numerator * t[r].denominator ** 2
              < b * t[r].numerator ** 2 * t[2 * r].denominator), None)
    return None if r is None else (0, r)


def _form_violation(t, depth: Optional[int] = None):
    """What ``psd_violation_exact`` returns on (t_{i+j})_{i,j<n}, n = N // 2 + 1, and the table.

    The elimination's first step needs no table: its witness (0, r) from
    ``_first_step`` is returned with no table (None).  Otherwise Chebyshev's
    table ``_chebyshev(t, depth)`` (depth >= n - 1, default n - 1) decides,
    and is returned with the verdict.  It stops at the first h_K <= 0.  Every h_k > 0 (k < n): the
    form is positive definite.  h_K = 0 and sigma_{K,l} = 0 for
    l = K..2n-2-K: every entry up to the form's last one, t_{2n-2}, obeys
    the recurrence of pi_K, so the form is P^T H_K P with H_K positive
    definite, hence PSD.  h_K < 0: h_0..h_{K-1} > 0, so the elimination
    pivots rows 0..K-1 in index order, and after pivots 0..j-1 the diagonal
    entry r of its Schur complement is d_j(r) = t_{2r} - sum_{i<j} sigma_{i,r}^2 / h_i.
    Its witness is {0..j-1, r} for the first j, and in it the first r, with
    d_j(r) < 0.  Each d_j(r) falls as j grows (every h_i > 0), and
    d_r(r) = h_r > 0 for r < K, so only the columns r >= K can turn
    negative, and d_K(K) = h_K < 0 does.  Column r = K..n-1 is scanned over
    j = 1..K, and past the first witness found only below its j, so the
    scan costs (n - K) K entries, not the K n - K^2 / 2 of the rows r < K
    too.  The sums are integer pairs in lowest terms with a positive
    denominator, one gcd per entry, so an entry is negative when its
    numerator is.  Only a zero pivot with a nonzero sigma row goes to the
    elimination itself.
    """
    n = (len(t) + 1) // 2
    bad = _first_step(t, n)
    if bad is not None:
        return bad, None
    table = _chebyshev(t, n - 1 if depth is None else depth)
    rows, dens = table[:2]
    K = next((k for k, row in enumerate(rows[:n]) if row[0] <= 0), None)
    if K is None:
        return None, table
    if rows[K][0] == 0:
        finite_rank = not any(rows[K][:2 * (n - K) - 1])
        return (None if finite_rank else psd_violation_exact(hankel_matrix(t, 0, n))), table
    gcd = math.gcd
    # sigma_{i,r}^2 / h_i = rows[i][r-i]^2 / scale_i, scale_i = rows[i][0] dens[i] = sp / sq > 0
    scales = [(row[0] * dp, dq) for row, (dp, dq) in zip(rows[:K], dens)]
    best = K + 1   # the smallest j with a negative entry so far
    for r in range(K, n):
        num, den = t[2 * r].numerator, t[2 * r].denominator
        for i, (row, (sp, sq)) in enumerate(zip(rows[:best - 1], scales)):
            x = row[r - i]
            p, q = num * sp - den * sq * x * x, den * sp
            if p < 0:
                best, witness = i + 1, (*range(i + 1), r)
                break
            g = gcd(p, q)
            num, den = p // g, q // g
    if best > K:
        raise AssertionError(f"h_{K} < 0 but no Schur complement diagonal is negative")
    return witness, table


def _pi_at_zero(table, n: int) -> list:
    """q_1..q_n, q_j = (-1)^j pi_j(0), as far as ``table`` reaches: q_{j+1} = alpha_j q_j - beta_j q_{j-1},
    each an integer pair in lowest terms with a positive denominator, so its sign is its numerator's."""
    _, _, alpha, beta = table
    q = [(0, 1), (1, 1)]   # q_{-1}, q_0, q_1, ...
    for (ap, aq), (bp, bq) in zip(alpha[:n], beta):
        (p0, q0), (p1, q1) = q[-2:]
        q.append(_lowest(ap * p1 * bq * q0 - bp * p0 * aq * q1, aq * q1 * bq * q0))
    return q[2:]


def _shifted_proven(table, N: int) -> bool:
    """True when the table of t_0..t_N proves (t_{i+j+1})_{i,j<n}, n = (N + 1) // 2, PSD.

    ``table`` is ``_chebyshev(t, n)``.  For the leading blocks H_j of
    (t_{i+j}) and H'_j of (t_{i+j+1}), det H'_j = det H_j q_j with
    q_j = (-1)^j pi_j(0) from ``_pi_at_zero``, O(1) per order.  With every h_k > 0 (k < n), q_1..q_n > 0 proves the
    form positive definite, and q_1..q_{n-1} > 0 with q_n = 0 proves it PSD
    (its last Schur complement is 0).  Where the table stopped at h_K = 0
    (K < n), sigma_{K,l} = 0 for l = K..2n-1-K means t_{m+1} obeys the
    recurrence of pi_K through the form's last entry, so the form is
    Q^T H'_K Q, PSD when q_1..q_K > 0; and when q_K = 0 (an atom at 0),
    pi_K / x gives Q^T H'_{K-1} Q, PSD when q_1..q_{K-1} > 0.  False means
    "not proven".
    """
    n = (N + 1) // 2
    rows, q = table[0], _pi_at_zero(table, n)
    K = len(q)
    if K < n and (rows[K][0] or any(rows[K][:2 * (n - K)])):
        return False
    if q and not q[-1][0]:
        q.pop()
    return all(p > 0 for p, _ in q)


def _window_proven(s) -> bool:
    """True when Chebyshev's table of s_0..s_N to row (N + 1) // 2 proves s_0..s_N
    the moments of a measure mu on [0, inf); False means "not proven".

    Both Hankel forms positive definite (every h_k > 0 and q_1..q_n > 0,
    ``_pi_at_zero``): mu exists (Curto and Fialkow, Houston J. Math. 17, 1991).
    A stop at h_r = 0 with sigma_{r,l} = 0 through l = N - r, and q_1..q_r > 0:
    the Gauss rule G on the zeros of pi_r agrees with L(x^j) = s_j below
    degree 2r, and both vanish on pi_r x^l for l <= N - r, hence on every
    multiple of pi_r of degree <= N, so L = G there (divide by pi_r); and
    det H'_r = det(V^T diag(x_i w_i) V) > 0 puts G's nodes x_i in (0, inf).
    For s = (t_{-K}, ..., t_hi), shift k holds the moments of x^{K-k} dmu, so
    every shift is PSD.  q_n = 0 or q_r = 0 (an atom at 0) is not proven, nor
    is a first h_r < 0 or a first h_r = 0 with a nonzero sigma row; a witness
    of the elimination's first step (``_first_step``) skips the table.
    """
    N = len(s) - 1
    if _first_step(s, N // 2 + 1) is not None:
        return False
    table = _chebyshev(s, (N + 1) // 2)
    rows = table[0]
    r = next((k for k, row in enumerate(rows[:N // 2 + 1]) if row[0] <= 0), None)
    return (r is None or not any(rows[r])) and all(p > 0 for p, _ in _pi_at_zero(table, (N + 1) // 2))


def _witness_from_indices(kind, values, offset: int, indices, shift=None) -> HankelWitness:
    """The witness on the principal minor ``indices`` of (values[i + j + offset]), its det re-verified.

    Only the minor's |indices|^2 entries are read, never the whole form.  A
    leading minor {0..k-1} of a Hankel form is the Hankel matrix of its own
    entries s_0..s_{2k-2}, so its rows are slices of them, and ``_wall_det``
    takes its determinant from their quotient-difference rhombus; any other
    minor, or a rhombus that meets a zero divisor, goes to ``det_exact``.
    Neither shares code with Chebyshev's table or the elimination that
    found the witness.
    """
    k, det = len(indices), None
    if tuple(indices) == tuple(range(k)):
        s = tuple(values[offset:offset + 2 * k - 1])
        sub = tuple(s[r:r + k] for r in range(k))
        det = _wall_det(s)
    else:
        sub = tuple(tuple(values[r + c + offset] for c in indices) for r in indices)
    if det is None:
        det = det_exact(sub)
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
    return HankelWitness(kind=kind, indices=tuple(range(arr.shape[0])),
                         entries=tuple(tuple(row) for row in matrix), det=None, min_eigenvalue=low)


def resolve_mode(exact: bool, mode: str) -> str:
    """The arithmetic for a sequence whose entries are all Fractions exactly when ``exact``."""
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    if mode == "exact" and not exact:
        raise ValueError("exact mode requires rational inputs throughout")
    return "exact" if exact and mode != "float" else "float"


def stieltjes_check(t, mode: str = "auto", tol: float = DEFAULT_PSD_TOL) -> StieltjesVerdict:
    """Test both Hankel forms (t_{i+j}) and (t_{i+j+1}) for positive semidefiniteness.

    Both conditions are necessary for every truncation of a Stieltjes moment
    sequence; a failure of either is a certificate of non-membership, and it
    stays a certificate under any extension of the sequence.  In exact mode
    one Chebyshev table of t_0..t_N, O(N^2) operations, decides (t_{i+j}):
    positive definite, finite rank, or the elimination's witness by Schur
    diagonal sums (``_form_violation``); the same table's pi_j(0) signs
    decide (t_{i+j+1}) when they can (``_shifted_proven``), and else a
    table of t_1..t_N does.  The witness is the one the elimination alone
    would find, and its determinant is re-verified independently.
    """
    t = MomentSequence.coerce(t)
    if len(t) < 1:
        raise ValueError("need at least t_0")
    witness = _violation(t.values, resolve_mode(t.exact, mode), tol)
    return StieltjesVerdict(kind="consistent" if witness is None else "violated",
                            upto=len(t) - 1, witness=witness)


def _violation(values, arith: str, tol: float, shifted: bool = True) -> Optional[HankelWitness]:
    """The witness of (t_{i+j}), then of (t_{i+j+1}) unless ``shifted`` is False, or None."""
    N = len(values) - 1
    if arith == "exact":
        bad, table = _form_violation(values, (N + 1) // 2)
        if bad is not None:
            return _witness_from_indices("hankel", values, 0, bad)
        if shifted and N >= 1 and not _shifted_proven(table, N):
            bad, _ = _form_violation(values[1:])
            if bad is not None:
                return _witness_from_indices("hankel_shifted", values, 1, bad)
        return None
    values = tuple(to_float(v, f"t_{i}") for i, v in enumerate(values))
    forms = (("hankel", 0), ("hankel_shifted", 1)) if shifted and N >= 1 else (("hankel", 0),)
    for kind, offset in forms:
        witness = psd_violation_float(hankel_matrix(values, offset, (N - offset) // 2 + 1), tol, kind)
        if witness is not None:
            return witness
    return None


def two_sided_stieltjes_check(ts: TwoSidedMomentSequence, K: Optional[int] = None,
                              mode: str = "auto", tol: float = DEFAULT_PSD_TOL) -> StieltjesVerdict:
    """Run the one-sided check on every shifted sequence (t_{-k}, t_{-k+1}, ...).

    A two-sided sequence is a moment window of a measure on (0, inf) exactly
    when every left shift is Stieltjes; k ranges over 0..K here, bounded by
    the window.  In exact mode one Chebyshev table of the longest shift
    (t_{-K}, ..., t_hi) comes first, and when it proves that shift the moment
    sequence of a measure on [0, inf) (``_window_proven``), every shift
    passes at once.  Otherwise each shift is checked in turn, and the first
    violated one gives the witness.  The form (t_{i+j+1}) of shift k is the
    form (t_{i+j}) of shift k - 1, which has passed, so shifts k >= 1 check
    (t_{i+j}) alone.  In exact mode with K >= 2, once shift 0 has passed, a
    table of shift K - 1 comes next: if it proves shift K - 1 the moments of
    a measure mu, shift k holds the moments of s^(K-1-k) dmu, so shifts
    1..K-1 pass, and the loop goes on at shift K.  A window violated at
    shift 0 thus costs what it did without the proof, and any other window
    at most that one table more.  Every route gives the per-shift loop's
    verdict, witness and shifts_checked.
    """
    if K is None:
        K = -ts.lo
    if K < 0:
        raise ValueError(f"window must be nonnegative, got {K}")
    if K > -ts.lo:
        raise WindowTooSmallError(-ts.lo, K)
    exact = resolve_mode(ts.exact, mode) == "exact"
    if exact and _window_proven(ts.shifted(K).values):
        return StieltjesVerdict(kind="consistent", upto=ts.hi, shifts_checked=tuple(range(K + 1)))
    k = 0
    while k <= K:
        shift = ts.shifted(k)
        values, arith = shift.values, resolve_mode(shift.exact, mode)
        if arith == "float":   # name an entry beyond float range by its window index
            values = tuple(to_float(v, f"t_{n}") for n, v in enumerate(values, -k))
        witness = _violation(values, arith, tol, shifted=k == 0)
        if witness is not None:
            witness = replace(witness, two_sided_shift=k)
            return StieltjesVerdict(kind="violated", upto=ts.hi, witness=witness,
                                    shifts_checked=tuple(range(k + 1)))
        k = K if k == 0 and K > 1 and exact and _window_proven(ts.shifted(K - 1).values) else k + 1
    return StieltjesVerdict(kind="consistent", upto=ts.hi, shifts_checked=tuple(range(K + 1)))


# -- atomic-measure recovery --------------------------------------------------


def _eval_int_poly(coeffs, p: int, q: int) -> int:
    """q**deg * poly(p/q) for an integer coefficient list (ascending)."""
    total, qpow = 0, 1
    for c in reversed(coeffs):
        total = total * p + c * qpow
        qpow *= q
    return total


def _narrow(s, a: int, b: int, k: int, scale: int) -> Tuple[int, int, int]:
    """Shrink (a / 2**k, b / 2**k], which holds exactly one root of squarefree s, below 1 / scale.

    Each step tries Newton's step from the right end on a grid 2**g times
    finer, keeping the cell it lands in if s changes sign across it (g then
    doubles: Abbott's quadratic interval refinement), and else bisects.  It
    stops early, with the root at the right end, when s vanishes there.  A
    cell already narrow enough comes back as it is, with s not evaluated.
    """
    if scale * (b - a) < 1 << k:
        return a, b, k
    slope = [i * c for i, c in enumerate(s)][1:]
    at_hi, g = _eval_int_poly(s, b, 1 << k), 1
    while at_hi and scale * (b - a) >= 1 << k:
        d = _eval_int_poly(slope, b, 1 << k)
        c = ((b * d - at_hi) << g) // d if d else b << g   # Newton's step from b, on the grid
        if a << g <= c < b << g:
            left, right = (_eval_int_poly(s, x, 1 << (k + g)) for x in (c, c + 1))
            if right == 0 or left and (left > 0) != (at_hi > 0) == (right > 0):   # sign change
                a, b, k, at_hi, g = c, c + 1, k + g, right, 2 * g
                continue
        mid, k, g = a + b, k + 1, 1
        at_mid = _eval_int_poly(s, mid, 1 << k)
        if at_mid == 0 or (at_mid > 0) == (at_hi > 0):
            a, b, at_hi = 2 * a, mid, at_mid
        else:
            a, b = mid, 2 * b
    return a, b, k


def _isolated_rational_root(s, a: int, b: int, k: int):
    """The root of squarefree primitive s isolated in (a / 2**k, b / 2**k] if rational, else None,
    and the narrowed interval.

    A rational root of s is c / lead for an integer c (its denominator divides
    lead), so below width 1 / lead the one multiple of 1 / lead inside is the
    only candidate.  Below width 2**-64 the fraction closest to the midpoint with
    denominator at most 2**31 is tried first: such fractions lie at least
    2**-62 apart, so that one is the root if any of them is.
    """
    lead = s[-1]
    for scale in (1 << 64, lead):
        last = lead <= scale
        a, b, k = _narrow(s, a, b, k, min(scale, lead))
        if not _eval_int_poly(s, b, 1 << k):
            return Fraction(b, 1 << k), (a, b, k)
        # the largest multiple of 1 / lead <= b / 2**k, or the fraction closest to the midpoint
        cand = (Fraction((b * lead) >> k, lead) if last
                else Fraction(a + b, 1 << (k + 1)).limit_denominator(1 << 31))
        if a < cand * (1 << k) <= b and _eval_int_poly(s, cand.numerator, cand.denominator) == 0:
            return cand, (a, b, k)
        if last:
            return None, (a, b, k)


def _sign_changes(vals) -> int:
    signs = [v > 0 for v in vals if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _christoffel(chain, weights, scale: int, p: int, q: int) -> Tuple[int, int]:
    """(num, den) with num / den = 1 / sum_{j<n} pi_j(p / q)**2 / h_j, the Christoffel number.

    chain[j] is pi_j in primitive integer form, pi_j = chain[j] / chain[j][-1], and
    weights[j] / scale = 1 / (chain[j][-1]**2 h_j), so the sum stays in integers.
    """
    n = len(weights)
    total = sum(w * (_eval_int_poly(c, p, q) * q ** (n - 1 - j)) ** 2
                for j, (c, w) in enumerate(zip(chain, weights)))
    return scale * q ** (2 * n - 2), total


def _as_float(num: int, den: int) -> float:
    """num / den (den > 0) rounded to the nearest float, when that float is 0 or normal."""
    scale = num.bit_length() - den.bit_length()   # 2**(scale-1) < |num / den| < 2**(scale+1)
    if num and not -1021 <= scale <= 1022:
        raise MeasureRecoveryError("outside_float_range",
                                   f"a node or mass near 2**{scale} does not fit a float")
    return num / den


def _float_atom(chain, weights, scale: int, a: int, b: int, k: int) -> Tuple[float, float]:
    """The nearest floats to the irrational node in (a / 2**k, b / 2**k] and to its mass.

    The interval is narrowed below 2**-bits and its ends rounded out to that
    grid, with bits doubling until both ends give the same floats; past ``limit``
    (a mass halfway between two floats never settles) the right end decides.
    """
    s, bits = chain[-1], 64
    limit = 1024 + 4 * max(map(abs, s)).bit_length()
    while True:
        a, b, k = _narrow(s, a, b, k, 1 << bits)
        cut = max(k - bits, 0)
        q = 1 << (k - cut)
        lo, hi = ((_as_float(x, q), _as_float(*_christoffel(chain, weights, scale, x, q)))
                  for x in (a >> cut, -(-b >> cut)))
        if lo == hi or bits > limit:
            return hi
        bits *= 2


def recover_atomic_measure(t, m: int, mode: str = "auto",
                           tol: float = 1e-8) -> AtomicMeasure:
    """Recover the unique measure with at most m atoms generating t_0..t_{2m-1}.

    Exact mode decides on Chebyshev's table alone: an h_j < 0 (j < m) rules
    out every positive measure ("negative_mass"); the rank is the first j
    with h_j = 0, or m, and the measure sits on the zeros of pi_rank with the
    Christoffel numbers as masses, so a zero below 0 ("negative_location",
    by the sign changes of pi_rank..pi_0 at 0) or a nonzero sigma_{rank,l}
    (a missed moment, "rank_deficient") rejects, and otherwise it exists.
    Rational zeros give it exactly; else every atom is the nearest float,
    or "outside_float_range" when floats cannot hold it.  Float mode fits
    the kernel with numpy.  Either way every supplied moment is re-checked.
    """
    t = MomentSequence.coerce(t)
    if m < 1:
        raise ValueError("atom bound must be >= 1")
    if len(t) < 2 * m:
        raise ValueError(f"need at least {2 * m} moments to resolve {m} atoms")
    arith = resolve_mode(t.exact, mode)
    measure = _recover_exact(t, m) if arith == "exact" else _recover_float(t, m)
    _verify_recovery(t, m, measure, arith, tol)
    return measure


def _recover_exact(t: MomentSequence, m: int) -> AtomicMeasure:
    values = t.values
    rows, dens, alpha, beta = _chebyshev(values, m)
    rank = len(rows) - 1
    dp, dq = dens[rank]
    if rank < m and rows[rank][0] < 0:
        h = Fraction(rows[rank][0] * dq, dp)
        raise MeasureRecoveryError("negative_mass", f"h_{rank} = {format_human(h)} < 0")
    # pi_0..pi_rank in primitive integer form (positive leads; pi_-1 = 0): the recurrence times
    # aq bq lead(pi_j) lead(pi_{j-1}) stays in integers
    chain, prev = [[1]], [0]
    for (ap, aq), (bp, bq) in zip(alpha, beta):
        poly = chain[-1]
        u, w = bq * (prev[-1] or 1), bp * aq * poly[-1]
        nxt = [u * (aq * x - ap * y) - w * z for x, y, z in zip([0] + poly, poly + [0], prev + [0, 0])]
        g, prev = math.gcd(*nxt), poly
        chain.append([c // g for c in nxt])
    # pi_rank..pi_0 has V(x) sign changes at x, one per (real, simple) zero of pi_rank above x
    below = rank - _sign_changes([c[0] for c in chain]) - (chain[-1][0] == 0)
    if below:
        raise MeasureRecoveryError("negative_location", f"{below} of {rank} locations below 0")
    miss = next((i for i, x in enumerate(rows[rank]) if x), None)
    if miss is not None:
        n = 2 * rank + miss
        raise MeasureRecoveryError(
            "rank_deficient",
            f"recovered moments disagree at order {n}: "
            f"{format_human(values[n] - Fraction(rows[rank][miss] * dq, dp))} vs {format_human(values[n])}",
        )
    if rank == 0:
        return AtomicMeasure(())
    weights = [_lowest(p, q * c[-1] ** 2 * row[0]) for c, row, (p, q) in zip(chain, rows[:rank], dens)]
    scale = math.lcm(*(q for _, q in weights))
    weights = [p * (scale // q) for p, q in weights]
    s = chain[-1]   # its zeros are >= 0, so bisecting (-1, 2**e] by V isolates each one
    e = (max(map(abs, s)) // s[-1] + 1).bit_length()   # |zero| < 1 + max |s_i / lead|
    nodes, stack = [], [(-1, 1 << e, 0, rank, 0)]
    while stack:   # left halves are popped first, so the nodes come out ascending
        a, b, k, va, vb = stack.pop()
        if va - vb == 1:
            nodes.append(_isolated_rational_root(s, a, b, k))
        elif va > vb:
            vm = _sign_changes([_eval_int_poly(c, a + b, 1 << (k + 1)) for c in chain])
            stack += [(a + b, 2 * b, k + 1, vm, vb), (2 * a, a + b, k + 1, va, vm)]
    atoms = [x if x is None else (x, Fraction(*_christoffel(chain, weights, scale, x.numerator,
                                                             x.denominator))) for x, _ in nodes]
    if None not in atoms:
        return AtomicMeasure.from_atoms(atoms)
    return AtomicMeasure(tuple(
        tuple(_as_float(v.numerator, v.denominator) for v in atom) if atom
        else _float_atom(chain, weights, scale, *cell) for atom, (_, cell) in zip(atoms, nodes)))


def _recover_float(t: MomentSequence, m: int) -> AtomicMeasure:
    import numpy as np

    values = [to_float(v, f"t_{i}") for i, v in enumerate(t.values)]
    scale = max(abs(v) for v in values) or 1.0
    rank = 0
    while rank < m:
        sv = np.linalg.svd(np.array(hankel_matrix(values, 0, rank + 1)), compute_uv=False)
        if sv[-1] <= 1e-10 * max(sv[0], scale):
            break
        rank += 1
    if rank == 0:
        return AtomicMeasure(())
    try:
        c = np.linalg.solve(np.array(hankel_matrix(values, 0, rank), dtype=float),
                            np.array(values[rank:2 * rank], dtype=float))
    except np.linalg.LinAlgError as exc:
        raise MeasureRecoveryError("rank_deficient", str(exc)) from exc
    roots = np.polynomial.polynomial.polyroots(np.concatenate([-c, [1.0]]))
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
    reason, exact, slack = "rank_deficient", arith == "exact" and measure.is_exact(), Fraction(tol)
    if arith == "exact" and not exact:
        # floats standing for a measure proven to exist: checked by their exact
        # values (no moment overflows), and a miss is theirs
        reason = "outside_float_range"
        measure = AtomicMeasure(tuple((Fraction(s), Fraction(w)) for s, w in measure.atoms))
    for n, want in enumerate(t.values):
        got = measure.moment(n)
        if not (got == want if exact else abs(got - want) <= slack * max(1, abs(want))):
            raise MeasureRecoveryError(reason, f"recovered moments disagree at order {n}: "
                                               f"{format_human(got)} vs {format_human(want)}")


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
        return DeterminacyVerdict(kind="determinate_exact",
                                  note="finitely atomic measure: compactly supported, hence determinate")
    t = MomentSequence.coerce(source)
    N = len(t) - 1
    if any(t[n] == 0 for n in range(1, N + 1)):
        return DeterminacyVerdict(kind="unknown", note="vanishing entries; partial sum undefined")
    s = carleman_partial_sum(t, N)
    return DeterminacyVerdict(kind="carleman_evidence", partial_sum=s, terms=N, note=f"partial sum S_{N} = "
                              f"{s:.6g} over {N} terms; divergence is not decidable from a prefix")
