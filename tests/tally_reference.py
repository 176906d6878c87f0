"""Array references for the ring coset tallies and multiplicity bounds.

difference_counts bincounts u - w over all pairs of two arrays of ring
or field elements; reference_coset_counts and reference_bound_report
form every Teichmüller difference that certify.sn_coset_counts and
certify.bound_report define, ((t - 1)/2)^2 of them, and sort them into
cosets by GaloisRing.coset_parity: O(t^2) time and memory, against the
library's count over the decompositions of xi^m - 1.  Each returns the
library's report type, so the two compare with ==.
"""

import numpy as np

from ddfkit.arith import wieferich
from ddfkit.certify import BoundReport, CosetCountReport
from ddfkit.cyclotomy import order_two_numbers


def difference_counts(group, left, right) -> np.ndarray:
    """counts[d] = #{(u, w) in left x right : u - w = d}, pairs u = w left out."""
    d = group.sub_arrays(np.asarray(left)[:, None], np.asarray(right)[None, :])
    counts = np.bincount(d.ravel(), minlength=group.order)
    counts[0] = 0  # u - w = 0 exactly when u = w
    return counts


def reference_coset_counts(ring) -> CosetCountReport:
    """sn_coset_counts by one count over all pairs: each parity's total
    divided by the coset size, which must divide it."""
    squares, non_squares = ring.square_split()
    size = len(squares)

    def tally(counts) -> tuple[int, int]:
        d = np.flatnonzero(counts)
        odd = ring.coset_parity(d) == 1
        by_parity = int(counts[d[~odd]].sum()), int(counts[d[odd]].sum())
        if any(c % size for c in by_parity):
            raise AssertionError("difference multiset is not a union of cosets")
        return by_parity[0] // size, by_parity[1] // size

    delta = tally(difference_counts(ring.group, squares, squares))
    cross = tally(difference_counts(ring.group, squares, non_squares))
    (n00, n01), (n10, n11) = order_two_numbers(ring.teich_size)
    expected_delta, expected_cross = (n00, n10), (n11, n01)
    return CosetCountReport(delta_squares=delta, squares_minus_nonsquares=cross,
                            expected_delta=expected_delta, expected_cross=expected_cross,
                            matches=delta == expected_delta and cross == expected_cross)


def reference_bound_report(ring) -> BoundReport:
    """bound_report by one count over all pairs, with 2*T_S* formed as the
    sums s + s."""
    p, t = ring.p, ring.teich_size
    if p == 2:
        raise ValueError("bounds require odd p")
    if wieferich(p):
        raise ValueError("bounds require a non-Wieferich prime")
    g = ring.group
    squares, non_squares = ring.square_split()
    residue4 = t % 4
    if residue4 == 1:
        counts = difference_counts(g, squares, squares)
        upper = order_two_numbers(t)[0][0]
        upper_applicable = (t - 1) % 24 == 0
        name = "delta-squares"
    else:
        counts = difference_counts(g, squares, non_squares)
        upper = order_two_numbers(t)[0][1]
        upper_applicable = (t - 1) % 24 == 18
        name = "squares-minus-nonsquares"
    counts[g.add_arrays(squares, squares)] = 0  # only d outside 2 * T_S* are bounded
    d = np.flatnonzero(counts)
    lemma_lower_ok = bool((counts[d] > 1).all())
    if residue4 == 1:
        d = d[ring.coset_parity(d) == 0]
    n = counts[d]
    lo, hi = (int(n.min()), int(n.max())) if n.size else (None, None)
    verdict = lemma_lower_ok and not (upper_applicable and (n >= upper).any())
    return BoundReport(multiset=name, residue4=residue4, upper_bound=upper,
                       upper_applicable=upper_applicable,
                       multiplicities=dict(zip(d.tolist(), n.tolist())),
                       min_over_scope=lo, max_over_scope=hi,
                       lemma_lower_ok=lemma_lower_ok, verdict=verdict)
