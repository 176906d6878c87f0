"""Closed-form profile evaluators, applicability gate, and design comparison.

The comparison verdict is deliberately one-sided: equal profiles yield
"inconclusive", never "isomorphic", because intersection profiles are not a
complete invariant (the three partition families of F_{11^3} share one
profile yet lie in distinct isomorphism classes).  Closed-form evaluators
merge coinciding keys by summing multiplicities, since the published tables
implicitly assume the four key polynomials are pairwise distinct.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .arith import wieferich
from .cyclotomy import order_two_numbers
from .designs import IntersectionProfile, check_profile, profile_via_differences
from .families import DifferenceFamily
from .galois_ring import GaloisRing


# ---------------------------------------------------------------------------
# closed-form profiles for the developed cyclotomic families of F_{p^2r}
# ---------------------------------------------------------------------------

def _merge(profile: dict, key: int, mult: int) -> None:
    profile[key] = profile.get(key, 0) + mult


def wilson_profile_closed_form(p: int, r: int) -> IntersectionProfile:
    """Profile of the developed e = p^r + 1 cyclotomic family, in closed form."""
    t = p ** r
    if t < 3:
        raise ValueError("require p^r >= 3")
    prof: dict[int, int] = {}
    _merge(prof, 0, (3 * t ** 5 + t ** 4 - 2 * t ** 3) // 2)
    _merge(prof, 1, (t ** 6 - t ** 5 - t ** 4 + t ** 3) // 2)
    _merge(prof, t - 2, (t ** 4 - t ** 2) // 2)
    return IntersectionProfile(prof)


def wilson_half_profile_closed_form(p: int, r: int) -> IntersectionProfile:
    """Profile of the developed e = 2(p^r + 1) cyclotomic family, in closed form.

    The nontrivial keys read the order-2 numbers of F_{p^r}, each with
    multiplicity (t^4 - t^2)/2; keys that collide (e.g. the value 1 at
    p^r = 7 or 9) merge by adding multiplicities.
    """
    if p == 2:
        raise ValueError("require odd p")
    t = p ** r
    if t < 5:
        raise ValueError("require p^r >= 5")
    prof: dict[int, int] = {}
    _merge(prof, 0, (3 * t ** 6 + 9 * t ** 5 + t ** 4 - 3 * t ** 3 + 2 * t ** 2) // 2)
    _merge(prof, 1, (t ** 6 - t ** 5 - t ** 4 + t ** 3) // 2)
    for row in order_two_numbers(t):
        for n in row:
            _merge(prof, n, (t ** 4 - t ** 2) // 2)
    return IntersectionProfile(prof)


# ---------------------------------------------------------------------------
# applicability gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateReport:
    """The fields in order are the keys of `ddf gate`'s JSON."""

    p: int
    r: int
    p_odd: bool
    mod24: int  # residue of p^r - 1 mod 24
    wieferich: bool
    applies: bool
    reasons: tuple[str, ...]


def gate(p: int, r: int) -> GateReport:
    """Does the profile-separation guarantee cover GR(p^2, r) vs F_{p^2r}?

    Applies exactly when p is odd, p is not Wieferich, and 24 divides
    p^r - 1; the reasons list names each failed clause.
    """
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    p_odd = p % 2 == 1
    mod24 = (pow(p, r, 24) - 1) % 24
    wf = wieferich(p)
    reasons = []
    if not p_odd:
        reasons.append("p is even")
    if wf:
        reasons.append("p is a Wieferich prime")
    if mod24 != 0:
        reasons.append(f"p^r - 1 = {mod24} (mod 24), not 0")
    applies = p_odd and not wf and mod24 == 0
    return GateReport(p=p, r=r, p_odd=p_odd, mod24=mod24, wieferich=wf,
                      applies=applies, reasons=tuple(reasons))


# ---------------------------------------------------------------------------
# coset tallies and multiplicity bounds in GR(p^2, r)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetCountReport:
    delta_squares: tuple[int, int]  # (square cosets, non-square cosets) in ΔT_S*
    squares_minus_nonsquares: tuple[int, int]  # same tallies for T_S* - T_N*
    expected_delta: tuple[int, int]
    expected_cross: tuple[int, int]
    matches: bool


def sn_coset_counts(ring: GaloisRing) -> CosetCountReport:
    """Tally square vs non-square cosets making up ΔT_S* and T_S* - T_N*.

    Both multisets are unions of full cosets of T_S*; the multiplicity of
    each difference d comes from one count over all pairs, and the tally
    divides each parity's total by the coset size.  The expected tallies
    read the order-2 numbers (i, j) of F_{p^r}: ΔT_S* has ((0,0), (1,0)),
    and T_S* - T_N* has ((1,1), (0,1)), since s - s' = s'(z - 1) with
    z = s/s'.
    """
    squares, non_squares = ring.square_split()
    size = len(squares)

    def tally(counts) -> tuple[int, int]:
        d = np.flatnonzero(counts)
        odd = ring.coset_parity(d) == 1
        by_parity = int(counts[d[~odd]].sum()), int(counts[d[odd]].sum())
        if any(c % size for c in by_parity):
            raise AssertionError("difference multiset is not a union of cosets")
        return by_parity[0] // size, by_parity[1] // size

    delta = tally(ring.group.difference_counts(squares, squares))
    cross = tally(ring.group.difference_counts(squares, non_squares))
    (n00, n01), (n10, n11) = order_two_numbers(ring.teich_size)
    expected_delta, expected_cross = (n00, n10), (n11, n01)
    return CosetCountReport(delta_squares=delta, squares_minus_nonsquares=cross,
                            expected_delta=expected_delta, expected_cross=expected_cross,
                            matches=delta == expected_delta and cross == expected_cross)


@dataclass(frozen=True)
class BoundReport:
    """Exact multiplicities of the in-scope differences, against strict bounds.

    The scope follows p^r mod 4: for residue 1 the square differences of
    ΔT_S* outside 2T_S*, for residue 3 the differences of T_S* - T_N*
    outside 2T_S*.  The verdict asserts 1 < N_d < upper for every in-scope
    d; the upper bound only binds when the matching mod-24 condition holds.
    """

    multiset: str
    residue4: int
    upper_bound: int
    upper_applicable: bool
    multiplicities: dict  # in-scope d -> N_d
    min_over_scope: int | None
    max_over_scope: int | None
    lemma_lower_ok: bool  # N_d > 1 for every d outside 2T_S*, any parity
    verdict: bool


def bound_report(ring: GaloisRing) -> BoundReport:
    p, t = ring.p, ring.teich_size
    if p == 2:
        raise ValueError("bounds require odd p")
    if wieferich(p):
        raise ValueError("bounds require a non-Wieferich prime")
    g = ring.group
    squares, non_squares = ring.square_split()
    residue4 = t % 4
    if residue4 == 1:
        counts = g.difference_counts(squares, squares)
        upper = order_two_numbers(t)[0][0]
        upper_applicable = (t - 1) % 24 == 0
        name = "delta-squares"
    else:
        counts = g.difference_counts(squares, non_squares)
        upper = order_two_numbers(t)[0][1]
        upper_applicable = (t - 1) % 24 == 18
        name = "squares-minus-nonsquares"
    two_coset = g.add_arrays(squares, squares)  # 2 * T_S*
    counts[two_coset] = 0  # only d outside 2 * T_S* are bounded
    d = np.flatnonzero(counts)
    lemma_lower_ok = bool((counts[d] > 1).all())
    if residue4 == 1:
        d = d[ring.coset_parity(d) == 0]
    n = counts[d]
    lo, hi = (int(n.min()), int(n.max())) if n.size else (None, None)
    # the in-scope d lie outside 2 * T_S*, so lemma_lower_ok gives 1 < N_d
    verdict = lemma_lower_ok and not (upper_applicable and (n >= upper).any())
    return BoundReport(multiset=name, residue4=residue4, upper_bound=upper,
                       upper_applicable=upper_applicable,
                       multiplicities=dict(zip(d.tolist(), n.tolist())),
                       min_over_scope=lo, max_over_scope=hi,
                       lemma_lower_ok=lemma_lower_ok, verdict=verdict)


# ---------------------------------------------------------------------------
# comparison verdict and certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonResult:
    status: str  # "nonisomorphic" | "inconclusive"
    witness: int | None
    profile_a: IntersectionProfile
    profile_b: IntersectionProfile


def compare_designs(fam_a: DifferenceFamily, fam_b: DifferenceFamily) -> ComparisonResult:
    """Compare developed designs by their exact intersection profiles.

    Any key-set or multiplicity difference certifies nonisomorphism with the
    smallest differing key as witness; equal profiles are inconclusive
    (profiles are not a complete invariant).  Both profiles must satisfy the
    2-design identities for the declared lambda (ProfileCheckError if not).
    """
    if (fam_a.v, fam_a.b, fam_a.k) != (fam_b.v, fam_b.b, fam_b.k):
        raise ValueError("families must share (v, b, k)")
    pa = profile_via_differences(fam_a)
    pb = profile_via_differences(fam_b)
    for fam, prof in ((fam_a, pa), (fam_b, pb)):
        check_profile(prof, fam.v, fam.b, fam.k, fam.lam)
    keys_a, keys_b = set(pa.counts), set(pb.counts)
    sym = keys_a ^ keys_b
    if sym:
        return ComparisonResult("nonisomorphic", min(sym), pa, pb)
    diff = [n for n in sorted(keys_a) if pa.counts[n] != pb.counts[n]]
    if diff:
        return ComparisonResult("nonisomorphic", diff[0], pa, pb)
    return ComparisonResult("inconclusive", None, pa, pb)


def certificate(p: int, r: int, fam_a: DifferenceFamily, fam_b: DifferenceFamily,
                result: ComparisonResult, gate_report: GateReport,
                tool_version: str) -> dict:
    """JSON-ready nonisomorphism certificate with a fixed field order."""
    return {
        "parameters": {
            "p": p,
            "r": r,
            "v": fam_a.v,
            "b": fam_a.b,
            "k": fam_a.k,
            "lambda": fam_a.lam,
            "family_a": fam_a.name,
            "family_b": fam_b.name,
        },
        "gate": {key: value for key, value in asdict(gate_report).items()
                 if key not in ("p", "r")},
        "profile_a": result.profile_a.to_dict(),
        "profile_b": result.profile_b.to_dict(),
        "verdict": result.status,
        "witness": result.witness,
        "tool_version": tool_version,
    }
