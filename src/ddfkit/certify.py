"""Closed-form profile evaluators, applicability gate, and design comparison.

The comparison verdict is deliberately one-sided: equal profiles yield
"inconclusive", never "isomorphic", because intersection profiles are not a
complete invariant (the three partition families of F_{11^3} share one
profile yet lie in distinct isomorphism classes).  Closed-form evaluators
merge coinciding keys by summing multiplicities, since the published tables
implicitly assume the four key polynomials are pairwise distinct.

Two routes reach a verdict, by one rule (verdict).  compare_constructions
takes the four coset constructions (wilson, wilson-half, gr-teichmuller,
gr-squares) by name and counts their cells from tables of size t
(residue.weighted_cells): no family, no table of t^2 entries and no
multiplier search.  Each profile must satisfy the 2-design identities,
the wilson profiles must equal their closed forms, and a witness that only
a ring profile holds is re-counted in one cell whose two blocks are built
by ring products.  compare_designs takes any two families through the
difference route (designs.profile_via_differences), with the identities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .arith import wieferich
from .cyclotomy import order_two_numbers
from . import _kernels, residue
from .designs import (IntersectionProfile, check_profile, profile_from_cells,
                      profile_via_differences)
from .errors import ProfileCheckError
from .families import DifferenceFamily
from .galois_ring import GaloisRing, build_ring


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

# For s != s' in T*, s - s' = s'(z - 1) with z = s/s' = xi^m != 1, and
# xi^m - 1 = xi^(e_m)*(1 + p*gamma_m) (residue.ring_tables).  As s' runs
# over T_S* (m even) or T_N* (m odd), s'(xi^m - 1) runs over the whole coset
# xi^(e_m + shift + 2j)*(1 + p*gamma_m) of T_S*, shift 0 for ΔT_S* and 1 for
# T_S* - T_N*.  So each multiset is a union of cosets of T_S*, one per m,
# labelled ((e_m + shift) mod 2, gamma_m); the units split into these
# 2t disjoint cosets, and each d has the multiplicity of its label: a
# count over t - 2 values of m, with no difference formed.


@dataclass(frozen=True)
class CosetCountReport:
    delta_squares: tuple[int, int]  # (square cosets, non-square cosets) in ΔT_S*
    squares_minus_nonsquares: tuple[int, int]  # same tallies for T_S* - T_N*
    expected_delta: tuple[int, int]
    expected_cross: tuple[int, int]
    matches: bool


def _minus_one_labels(ring: GaloisRing) -> tuple[np.ndarray, np.ndarray]:
    """(e, k) over m in [0, t - 1), entry 0 unused: xi^m - 1 =
    xi^(e[m])*(1 + p*teichmuller[k[m]]), read from residue.ring_tables.

    Raises AssertionError unless each e_m is log(g^m - 1) = log(-1) +
    Z[m - log(-1)] by the Zech table of F_t, as the residue of xi^m - 1 is
    g^m - 1: O(t).  gamma_m has log G[m], or is 0 at the sentinel 2n.
    """
    tabs = residue.ring_tables(ring)
    F = residue.residue_field(ring.p, ring.r)
    n = F.n
    m = np.arange(1, n)
    if not np.array_equal(tabs.e[1:], (F.minus_one + F.zech[m - F.minus_one + n]) % n):
        raise AssertionError("xi^m - 1 is not xi^(e_m)*(1 + p*gamma_m) with e_m = log(g^m - 1)")
    return tabs.e, np.where(tabs.G == 2 * n, 0, tabs.G + 1)


def _label_counts(ring: GaloisRing, e: np.ndarray, k: np.ndarray, shift: int) -> np.ndarray:
    """(2, t) counts of the coset labels (parity, T index of gamma) over
    the m of ΔT_S* (shift 0: m even, m != 0) or of T_S* - T_N* (shift 1:
    m odd): one bincount of ((e_m + shift) mod 2, k_m) into 2t cells."""
    t = ring.teich_size
    m = np.arange(2 - shift, t - 1, 2)
    return np.bincount((e[m] + shift) % 2 * t + k[m], minlength=2 * t).reshape(2, t)


def sn_coset_counts(ring: GaloisRing) -> CosetCountReport:
    """Tally square vs non-square cosets making up ΔT_S* and T_S* - T_N*.

    Each m contributes one coset of T_S*, of parity (e_m + shift) mod 2
    (see _label_counts), so a tally counts the m of each parity.  The
    expected tallies read the order-2 numbers (i, j) of F_{p^r}: ΔT_S* has
    ((0,0), (1,0)), and T_S* - T_N* has ((1,1), (0,1)).  Requires odd p and
    p^r >= 5, as GaloisRing.square_split does.
    """
    ring.square_split()  # refuses p = 2 and p^r < 5
    e, k = _minus_one_labels(ring)
    delta, cross = (tuple(_label_counts(ring, e, k, shift).sum(axis=1).tolist())
                    for shift in (0, 1))
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


def _coset_elements(ring: GaloisRing, squares: np.ndarray, parity: np.ndarray,
                    index: np.ndarray, counts: np.ndarray) -> dict:
    """{d: N} over the cosets xi^parity*(1 + p*teichmuller[index])*T_S*,
    each d taking its coset's count, keys ascending; the cosets' elements
    are formed by mul_arrays, about _kernels._CHUNK at a time."""
    factors = ring.mul_arrays(ring.teichmuller[1 + parity], ring.group.add_arrays(
        1, ring.mul_arrays(ring.p, ring.teichmuller[index])))
    keys = np.empty((factors.size, squares.size), dtype=np.int64)
    for lo, hi in _kernels.row_ranges(factors.size, squares.size):
        keys[lo:hi] = ring.mul_arrays(factors[lo:hi, None], squares)
    order = np.argsort(keys, axis=None)
    values = np.repeat(counts, squares.size)[order]
    return dict(zip(keys.ravel()[order].tolist(), values.tolist()))


def bound_report(ring: GaloisRing) -> BoundReport:
    """N_d over the in-scope cosets of T_S* (see _label_counts), every
    element of a coset taking its label's count.  2*T_S* is the coset of
    2 = -(xi^(n/2) - 1) = xi^(n/2 + e_(n/2))*(1 + p*gamma_(n/2)), as
    -1 = xi^(n/2) with n = p^r - 1.  Requires odd, non-Wieferich p and
    p^r >= 5."""
    p, t = ring.p, ring.teich_size
    if p == 2:
        raise ValueError("bounds require odd p")
    if wieferich(p):
        raise ValueError("bounds require a non-Wieferich prime")
    squares, _ = ring.square_split()
    residue4 = t % 4
    if residue4 == 1:
        shift = 0
        upper = order_two_numbers(t)[0][0]
        upper_applicable = (t - 1) % 24 == 0
        name = "delta-squares"
    else:
        shift = 1
        upper = order_two_numbers(t)[0][1]
        upper_applicable = (t - 1) % 24 == 18
        name = "squares-minus-nonsquares"
    e, k = _minus_one_labels(ring)
    cells = _label_counts(ring, e, k, shift)
    half = (t - 1) // 2
    cells[(half + e[half]) % 2, k[half]] = 0  # only d outside 2 * T_S* are bounded
    lemma_lower_ok = bool((cells[cells > 0] > 1).all())
    if residue4 == 1:
        cells[1] = 0  # the square cosets alone are in scope
    parity, index = np.nonzero(cells)
    n = cells[parity, index]
    lo, hi = (int(n.min()), int(n.max())) if n.size else (None, None)
    # the in-scope d lie outside 2 * T_S*, so lemma_lower_ok gives 1 < N_d
    verdict = lemma_lower_ok and not (upper_applicable and (n >= upper).any())
    return BoundReport(multiset=name, residue4=residue4, upper_bound=upper,
                       upper_applicable=upper_applicable,
                       multiplicities=_coset_elements(ring, squares, parity, index, n),
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


def verdict(pa: IntersectionProfile, pb: IntersectionProfile) -> ComparisonResult:
    """The verdict on two profiles, by the one rule both routes use.

    A key in one profile only certifies nonisomorphism, with the smallest
    such key as witness; else the first key, ascending, whose
    multiplicities differ; equal profiles are inconclusive (profiles are
    not a complete invariant).
    """
    keys_a, keys_b = set(pa.counts), set(pb.counts)
    sym = keys_a ^ keys_b
    if sym:
        return ComparisonResult("nonisomorphic", min(sym), pa, pb)
    diff = [n for n in sorted(keys_a) if pa.counts[n] != pb.counts[n]]
    if diff:
        return ComparisonResult("nonisomorphic", diff[0], pa, pb)
    return ComparisonResult("inconclusive", None, pa, pb)


def _check_shapes(a, b) -> None:
    if (a.v, a.b, a.k) != (b.v, b.b, b.k):
        raise ValueError("families must share (v, b, k)")


def compare_designs(fam_a: DifferenceFamily, fam_b: DifferenceFamily) -> ComparisonResult:
    """Compare developed designs by their exact intersection profiles from
    the difference route (see verdict).  Both profiles must satisfy the
    2-design identities for the declared lambda (ProfileCheckError if not).
    """
    _check_shapes(fam_a, fam_b)
    pa = profile_via_differences(fam_a)
    pb = profile_via_differences(fam_b)
    for fam, prof in ((fam_a, pa), (fam_b, pb)):
        check_profile(prof, fam.v, fam.b, fam.k, fam.lam)
    return verdict(pa, pb)


CLOSED_FORMS = {"wilson": wilson_profile_closed_form,
                "wilson-half": wilson_half_profile_closed_form}


def construction_profile(c: residue.Construction) -> IntersectionProfile:
    """The profile of a coset construction from its cells on tables of size
    t (residue.weighted_cells), checked against the 2-design identities
    and, for wilson and wilson-half, against its closed form
    (ProfileCheckError if either fails)."""
    profile = profile_from_cells(residue.weighted_cells(c), c.v)
    check_profile(profile, c.v, c.b, c.k, c.lam)
    closed = CLOSED_FORMS.get(c.name)
    if closed is not None and profile != closed(c.p, c.r):
        raise ProfileCheckError(f"the {c.name} profile at t = {c.t} is not its closed form")
    return profile


def compare_constructions(a: residue.Construction,
                          b: residue.Construction) -> ComparisonResult:
    """Compare two coset constructions (see residue.construction) by their
    profiles from tables of size t (see construction_profile and verdict).

    A witness that one profile holds and the other lacks, held by a ring
    profile, is re-counted in one cell (see check_witness_cell).
    """
    _check_shapes(a, b)
    result = verdict(construction_profile(a), construction_profile(b))
    w = result.witness
    for c, own, other in ((a, result.profile_a, result.profile_b),
                          (b, result.profile_b, result.profile_a)):
        if c.name.startswith("gr-") and w in own.counts and w not in other.counts:
            check_witness_cell(c, w)
    return result


def _ring_blocks(ring: GaloisRing, c: residue.Construction, indices) -> np.ndarray:
    """Blocks of a ring construction by ring products, one row each: block
    part*(t + 1) + a is (1 + p*alpha)*H_part for alpha of index a < t in T
    order, and p*H_part at a = t; one mul_arrays forms every row."""
    part, a = np.divmod(np.asarray(indices), c.t + 1)
    units = ring.teichmuller[1:]  # xi^m, so the square classes are m even and m odd
    subgroups = units[None, :] if c.name == "gr-teichmuller" else \
        np.stack((units[0::2], units[1::2]))[part]
    principal = ring.group.add_arrays(1, ring.mul_arrays(ring.p, ring.teichmuller[a % c.t]))
    factor = np.where(a == c.t, ring.p, principal)
    return ring.mul_arrays(factor[:, None], subgroups)


def check_witness_cell(c: residue.Construction, witness: int) -> None:
    """Find one cell (i, j, d) with N_d(i, j) = witness on the tables of
    size t of a ring construction (residue.find_cell), build D_i and D_j by
    ring products, and raise ProfileCheckError unless |D_i & (D_j + d)| =
    witness: O(k) ring work.  The blocks are disjoint, so a witness 0 with
    no cell at d = 1 or p is the cell (0, 1, 0)."""
    cell = residue.find_cell(c, witness)
    if cell is None and witness != 0:
        raise ProfileCheckError(f"no cell of {c.name} holds the witness {witness}")
    i, j, d = cell or (0, 1, 0)
    ring = build_ring(c.p, c.r)
    block_i, block_j = _ring_blocks(ring, c, (i, j))
    # Python sets: np.intersect1d would import numpy.ma, about 30 ms
    met = len(set(block_i.tolist()) & set(ring.group.add_arrays(block_j, d).tolist()))
    if met != witness:
        raise ProfileCheckError(f"the witness {witness} of {c.name} is not re-counted: "
                                f"|D_{i} & (D_{j} + {d})| = {met}")


def certificate(p: int, r: int, fam_a, fam_b, result: ComparisonResult,
                gate_report: GateReport, tool_version: str) -> dict:
    """JSON-ready nonisomorphism certificate with a fixed field order;
    `fam_a` and `fam_b` give v, b, k, lam and name: two DifferenceFamily
    or two residue.Construction."""
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
