"""Seeded input generation for every workload.

Everything a workload feeds the program comes from here, from the seed
alone: the same (workload, seed, scale) always yields the same inputs.
Each input carries the answer known by construction, which the workload
checks the program's output against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Optional

import exact

# Input sizes per scale.  "full" is what the benchmark measures; "tiny"
# keeps the same shapes small enough for the self-tests.
SIZES = {
    "full": {
        "fullrank_N": (80, 88), "hilbert_N": 160,
        "atomic_N": (80, 100, 120, 160), "shallow_N": (160,) * 11,
        "deep_N": (80, 84), "two_sided": ((10, 40), (10, 32)),
        "branch_N": 200, "system_depth": (200, 300, 200), "necessary_N": 40,
        "recover_extra": 2, "reduce": (12, 12), "edge_depth": 11, "edge_width": 400,
        "cli_depth": 40, "cli_window": 10,
    },
    "tiny": {
        "fullrank_N": (8, 10), "hilbert_N": 12,
        "atomic_N": (8, 10, 12, 12), "shallow_N": (12, 12),
        "deep_N": (8, 10), "two_sided": ((3, 6), (4, 6)),
        "branch_N": 12, "system_depth": (14, 16, 14), "necessary_N": 12,
        "recover_extra": 2, "reduce": (3, 6), "edge_depth": 4, "edge_width": 12,
        "cli_depth": 8, "cli_window": 3,
    },
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


# -- measures and sequences ------------------------------------------------------


def random_atoms(rng: random.Random, count: int):
    """``count`` (at most 4) atoms at distinct p/4 with p in {25, 27, 29, 31}, masses summing to 1.

    The numerators have almost the same size, so the bit growth of moments,
    and with it the cost of every operation on them, hardly varies by seed.
    """
    locs = sorted(F(p, 4) for p in rng.sample(range(25, 32, 2), count))
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    return [(loc, F(w, total)) for loc, w in zip(locs, raw)]


def atom_moment(atoms, n: int) -> F:
    return sum((w * s ** n for s, w in atoms), F(0))


def beta_moments(p: F, q: F, a: F, N: int):
    """Moments 0..N of Beta(p, q) stretched to [0, a]: Hilbert-like and full rank."""
    out = [F(1)]
    m = F(1)
    for k in range(N):
        m = m * a * (p + k) / (p + q + k)
        out.append(m)
    return out


def random_beta(rng: random.Random):
    """Half-integer p and q and a power-of-two stretch: one bit-growth profile for every seed."""
    return F(rng.choice((1, 3, 5)), 2), F(rng.choice((1, 3, 5)), 2), rng.choice((F(1), F(2)))


@dataclass
class HankelCase:
    """One stieltjes_check / two_sided_stieltjes_check input with its known verdict."""

    cls: str                  # fullrank | atomic | violated_shallow | violated_deep | two_sided
    values: tuple             # the one-sided sequence, or the two-sided window values
    K: Optional[int] = None   # two-sided: the window's left extent (lo = -K)
    violated: bool = False
    witness_kind: str = "hankel"
    witness_indices: tuple = ()
    witness_shift: Optional[int] = None

    @property
    def N(self) -> int:
        return len(self.values) - 1 - (self.K or 0)


def hankel_cases(seed: int, scale: str = "full"):
    rng = rng_for("hankel-exact", seed)
    sz = SIZES[scale]
    cases = []
    for N in sz["fullrank_N"]:
        cases.append(HankelCase("fullrank", tuple(beta_moments(*random_beta(rng), N))))
    # the classical 1/(n+1) moments, Beta(1, 1) on [0, 1]
    cases.append(HankelCase("fullrank", tuple(F(1, n + 1) for n in range(sz["hilbert_N"] + 1))))
    for count, N in enumerate(sz["atomic_N"], 1):
        atoms = random_atoms(rng, count)
        cases.append(HankelCase("atomic", tuple(atom_moment(atoms, n) for n in range(N + 1))))
    for N in sz["shallow_N"]:
        # t_{2k} := t_k^2 / (2 t_0) makes the minor on rows {0, k} negative,
        # and the first elimination step exposes it
        t = beta_moments(*random_beta(rng), N)
        k = rng.randint(1, N // 2)
        t[2 * k] = t[k] * t[k] / (2 * t[0])
        cases.append(HankelCase("violated_shallow", tuple(t), violated=True,
                                witness_indices=(0, k)))
    for N in sz["deep_N"]:
        cases.append(_deep_violation(rng, N))
    for i, (K, N) in enumerate(sz["two_sided"]):
        cases.append(two_sided_case(rng, K, N, violated=i % 2 == 1))
    return cases


def _deep_violation(rng: random.Random, N: int) -> HankelCase:
    """Only the top leading minor negative: move t_N (N even) between two Schur values.

    With d the last diagonal after eliminating every other row and d' its
    value one row earlier (d' > d), t_N - (d + d')/2 leaves the last
    diagonal at (d' - d)/2 > 0 until the final step and at (d - d')/2 < 0
    after it, so the witness is the whole Hankel form.
    """
    N -= N % 2
    t = beta_moments(*random_beta(rng), N)
    n = N // 2
    _, last = exact.leading_pivots(exact.hankel(t, 0, n + 1))
    d, d_prev = last[-1], last[-2]
    t[N] = t[N] - (d + d_prev) / 2
    return HankelCase("violated_deep", tuple(t), violated=True,
                      witness_indices=tuple(range(n + 1)))


def two_sided_case(rng: random.Random, K: int, N: int, violated: bool) -> HankelCase:
    """Window t_{-K}..t_N of Beta(p, q) with p > K, so the negative moments exist.

    The violated variant lowers t_{-K} so that only the last shift fails, on
    its leading 2x2 minor, after every earlier shift has been checked.
    """
    p = K + 1 + F(rng.choice((1, 3, 5)), 2)
    q = F(rng.choice((1, 3, 5)), 2)
    pos = [F(1)]
    for k in range(N):
        pos.append(pos[-1] * (p + k) / (p + q + k))
    neg = [F(1)]
    for j in range(1, K + 1):
        neg.append(neg[-1] * (p + q - j) / (p - j))
    values = [neg[j] for j in range(K, 0, -1)] + pos
    case = HankelCase("two_sided", tuple(values), K=K)
    if violated:
        values[0] = values[1] * values[1] / (2 * values[2])
        case = HankelCase("two_sided", tuple(values), K=K, violated=True,
                          witness_indices=(0, 1), witness_shift=K)
    return case


# -- one-branching-vertex instances ----------------------------------------------


@dataclass
class BranchInstance:
    """A one-branching-vertex shift given by its data, with its known verdict.

    The entry weights are ``share_i / m_{-1}(mu_i)``, so the entry sum is the
    sum of the shares; the stem weights make every stem equality hold, and
    the last finite stem weight leaves slack ``theta`` in the final
    inequality.  ``violate`` scales the first entry weight up, which breaks
    the entry-sum condition (``zgod`` / ``zgodp``) first.
    """

    eta: int
    kappa: object             # int >= 0, or "inf"
    atoms: list               # per branch: [(location, mass), ...]
    entry_sq: list
    stem_sq: list = field(default_factory=list)   # sq(0), sq(-1), ...; len kappa or the stem window
    violated: bool = False

    @property
    def case(self) -> str:
        return "i" if self.kappa == 0 else ("iv" if self.kappa == "inf" else "ii")

    @property
    def first_failure(self) -> Optional[str]:
        if not self.violated:
            return None
        return "zgod" if self.kappa == 0 else "zgodp"


def neg_moment(atoms, k: int) -> F:
    return sum((w / s ** k for s, w in atoms), F(0))


def branch_instance(rng: random.Random, eta: int, kappa, violate: bool = False,
                    stem_window: int = 30, first_count: int = 1) -> BranchInstance:
    """Branch i gets 1 + (first_count - 1 + i) % 4 atoms, so the atom counts are fixed by position."""
    atoms = [random_atoms(rng, 1 + (first_count - 1 + i) % 4) for i in range(eta)]
    raw = [rng.randint(1, 5) for _ in range(eta)]
    shares = [F(r, sum(raw)) for r in raw]
    if kappa == 0 and not violate:
        shares = [s * rng.choice((F(1), F(3, 4), F(1, 2))) for s in shares]
    entry = [s / neg_moment(a, 1) for s, a in zip(shares, atoms)]

    def E(k):
        return sum((e * neg_moment(a, k) for e, a in zip(entry, atoms)), F(0))

    stem = []
    if kappa != 0:
        length = stem_window if kappa == "inf" else kappa
        P_prev = F(1)
        for l in range(1, length + 1):
            P = 1 / E(l + 1)
            if l == length and kappa != "inf":
                P = P * rng.choice((F(1), F(1, 2), F(2, 3)))
            stem.append(P / P_prev)
            P_prev = P
    if violate:
        entry[0] = entry[0] * F(rng.randint(11, 20), 10)
    return BranchInstance(eta, kappa, atoms, entry, stem, violated=violate)


def irrational_pair(rng: random.Random, extra: int):
    """Moments of atoms a +- sqrt(b) (equal masses) mixed with ``extra`` rational atoms.

    The moments are rational, but the kernel polynomial has the irrational
    factor x^2 - 2ax + a^2 - b, so recovery must take the floating route.
    a - sqrt(b) > 9 keeps the pair clear of the rational atoms (at most
    31/4), so that route is well conditioned.
    Returns (moments of order 0..2m+1, m, [(location, mass)] as floats).
    """
    a = F(rng.randint(12, 14))
    b = F(rng.choice((2, 3, 5, 6, 7)))
    lam = F(rng.randint(1, 3), 4) if extra else F(1)
    others = random_atoms(rng, extra) if extra else []
    m = 2 + extra
    pair = [F(1), a]
    for n in range(2, 2 * m + 2):
        pair.append(2 * a * pair[-1] - (a * a - b) * pair[-2])
    values = [lam * pair[n] + (1 - lam) * atom_moment(others, n) for n in range(2 * m + 2)]
    root = float(b) ** 0.5
    expect = [(float(a) - root, float(lam) / 2), (float(a) + root, float(lam) / 2)]
    expect += [(float(s), float((1 - lam) * w)) for s, w in others]
    return values, m, sorted(expect)


def wide_tree(rng: random.Random, depth: int, width: int):
    """Random finite rooted tree: 2-3 children per vertex, at most ``width`` per level.

    Returns (edges, sq weights by vertex).  Vertices are integers, root 0.
    """
    edges = []
    sq = {}
    frontier = [0]
    nxt_id = 1
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for _ in range(rng.randint(2, 3)):
                if len(nxt) >= width:
                    break
                edges.append((v, nxt_id))
                sq[nxt_id] = F(rng.randrange(1, 16, 2), 4)
                nxt.append(nxt_id)
                nxt_id += 1
        frontier = nxt
    return edges, sq
