"""Closed-form profiles, gate, coset tallies, bounds, comparison verdicts."""

import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from ddfkit import (bound_report, build_field, build_ring, certificate,
                    compare_designs, davis_family, feng_families, gate,
                    profile_via_differences, sn_coset_counts, squares_family,
                    wieferich, wilson_family,
                    wilson_half_profile_closed_form, wilson_profile_closed_form)
from ddfkit import arith, certify, residue
from ddfkit.arith import factorize
from scalar_oracles import primes_below, ring_decompositions
from tally_reference import (difference_counts, reference_bound_report,
                             reference_coset_counts)


# ---------------------------------------------------------------------------
# closed-form profiles
# ---------------------------------------------------------------------------

def test_wilson_closed_form_values_5_2():
    prof = wilson_profile_closed_form(5, 2)
    assert prof.counts == {
        0: (3 * 5 ** 10 + 5 ** 8 - 2 * 5 ** 6) // 2,
        1: 117_000_000,
        23: (5 ** 8 - 5 ** 4) // 2,
    }


def test_wilson_closed_form_merges_at_3_1():
    # p^r - 2 = 1 merges into the 1 key
    prof = wilson_profile_closed_form(3, 1)
    assert prof.numbers() == [0, 1]
    assert prof.counts[1] == (3 ** 6 - 3 ** 5 - 3 ** 4 + 3 ** 3) // 2 + (3 ** 4 - 3 ** 2) // 2


def test_wilson_closed_form_total_identity():
    # sum of multiplicities = C(p^2r (p^r + 1), 2)
    for p, r in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (11, 1), (13, 1)]:
        n = p ** (2 * r) * (p ** r + 1)
        assert wilson_profile_closed_form(p, r).total() == math.comb(n, 2)


def test_wilson_half_closed_form_values():
    assert wilson_half_profile_closed_form(5, 2).counts == {
        0: 410_328_750, 1: 117_000_000, 5: 195_000, 6: 585_000}
    # p^r = 7: the (p^r - 3)/4 = 1 row merges into key 1
    assert wilson_half_profile_closed_form(7, 1).numbers() == [0, 1, 2]
    # p^r = 13: keys 2 = (13-5)/4 and 3 = (13-1)/4
    assert wilson_half_profile_closed_form(13, 1).numbers() == [0, 1, 2, 3]


def test_wilson_half_closed_form_total_identity():
    for p, r in [(3, 2), (5, 1), (7, 1), (5, 2), (13, 1)]:
        n = p ** (2 * r) * 2 * (p ** r + 1)
        assert wilson_half_profile_closed_form(p, r).total() == math.comb(n, 2)


def test_closed_forms_match_computation():
    for p, r in [(3, 1), (7, 1)]:
        fam = wilson_family(build_field(p, 2 * r), p ** r + 1)
        assert wilson_profile_closed_form(p, r) == profile_via_differences(fam)
    # (5, 1) exercises both key merges: (t-5)/4 = 0 and (t-1)/4 = 1
    for p, r in [(5, 1), (7, 1), (13, 1)]:
        fam = wilson_family(build_field(p, 2 * r), 2 * (p ** r + 1))
        assert wilson_half_profile_closed_form(p, r) == profile_via_differences(fam)


def test_closed_form_preconditions():
    with pytest.raises(ValueError):
        wilson_half_profile_closed_form(2, 2)
    with pytest.raises(ValueError):
        wilson_half_profile_closed_form(3, 1)  # p^r = 3 < 5


# ---------------------------------------------------------------------------
# gate and Wieferich
# ---------------------------------------------------------------------------

def test_gate_examples():
    report = gate(5, 2)
    assert report.applies and report.mod24 == 0 and not report.wieferich
    assert report.reasons == ()
    report = gate(7, 1)
    assert not report.applies and report.mod24 == 6
    assert any("mod 24" in reason for reason in report.reasons)
    report = gate(1093, 2)
    assert report.wieferich and not report.applies and report.mod24 == 0


def test_gate_requires_prime():
    with pytest.raises(ValueError):
        gate(15, 1)


def test_wieferich():
    assert wieferich(1093)
    assert wieferich(3511)
    assert not wieferich(5)
    assert pow(2, 4, 25) == 16
    with pytest.raises(ValueError):
        wieferich(1094)
    # one test, importable from the package, arith and certify
    assert wieferich is arith.wieferich is certify.wieferich


def test_wieferich_below_small():
    assert [p for p in primes_below(5000)[1:] if wieferich(p)] == [1093, 3511]


# ---------------------------------------------------------------------------
# coset tallies and bounds
# ---------------------------------------------------------------------------

def test_sn_coset_counts_gr625():
    report = sn_coset_counts(build_ring(5, 2))
    assert report.delta_squares == (5, 6)
    assert report.squares_minus_nonsquares == (6, 6)
    assert report.matches


def test_sn_coset_counts_gr49():
    report = sn_coset_counts(build_ring(7, 1))
    assert report.delta_squares == (1, 1)
    assert report.squares_minus_nonsquares == (1, 2)
    assert report.matches


def test_sn_coset_counts_gr25():
    report = sn_coset_counts(build_ring(5, 1))
    assert report.delta_squares == (0, 1)
    assert report.matches


def test_sn_coset_counts_more_cases():
    for p, r in [(11, 1), (13, 1), (3, 2), (3, 3), (19, 1)]:
        assert sn_coset_counts(build_ring(p, r)).matches


def test_bound_report_gr625():
    report = bound_report(build_ring(5, 2))
    assert report.residue4 == 1 and report.upper_applicable
    assert report.upper_bound == 5
    assert report.verdict
    assert report.min_over_scope > 1 and report.max_over_scope < 5


def test_bound_report_residue3_branch():
    # p^r = 7: the cross multiset branch; mod-24 residue is 6, so only the
    # lower bound binds
    report = bound_report(build_ring(7, 1))
    assert report.residue4 == 3
    assert not report.upper_applicable
    assert report.lemma_lower_ok and report.verdict


def test_bound_report_rejects_wieferich():
    with pytest.raises(ValueError):
        bound_report(build_ring(1093, 1))


def _difference_counter(ring, left, right):
    """Scalar reference: the multiplicity of each d in the multiset
    {u - w : u in left, w in right, u != w}."""
    counts = {}
    for u in left:
        for w in right:
            if u != w:
                d = ring.group.sub(u, w)
                counts[d] = counts.get(d, 0) + 1
    return counts


def _parities(ring):
    """Scalar reference: each unit u = xi^e * (1 + p*a) -> e mod 2, the
    parity of its Teichmüller part, from scalar ring products."""
    _, units = ring_decompositions(ring, ring.teichmuller.tolist())
    return {u: e % 2 for u, (_, _, e) in units.items()}


def _reference_reports(ring):
    """Per-element tallies and in-scope multiplicities, as sn_coset_counts and
    bound_report define them."""
    squares, non_squares = (part.tolist() for part in ring.square_split())
    size = len(squares)
    parity = _parities(ring)

    def tally(counts):
        by_parity = [0, 0]
        for d, n in counts.items():
            by_parity[parity[d]] += n
        assert by_parity[0] % size == by_parity[1] % size == 0
        return by_parity[0] // size, by_parity[1] // size

    delta = _difference_counter(ring, squares, squares)
    cross = _difference_counter(ring, squares, non_squares)
    two_coset = {ring.group.add(s, s) for s in squares}
    t = ring.teich_size
    counts = delta if t % 4 == 1 else cross
    outside = {d: n for d, n in counts.items() if d not in two_coset}
    in_scope = {d: n for d, n in outside.items()
                if t % 4 == 3 or parity[d] == 0}
    lemma_lower_ok = all(n > 1 for n in outside.values())
    return tally(delta), tally(cross), in_scope, lemma_lower_ok


def _odd_non_wieferich_rings(limit):
    for q in range(5, limit + 1, 2):
        primes = factorize(q)
        if len(set(primes)) == 1 and not wieferich(primes[0]):
            yield primes[0], len(primes)


def test_tallies_and_bounds_match_scalar_reference():
    rings = list(_odd_non_wieferich_rings(49))
    assert [p ** r for p, r in rings] == [5, 7, 9, 11, 13, 17, 19, 23, 25, 27,
                                          29, 31, 37, 41, 43, 47, 49]
    for p, r in rings:
        ring = build_ring(p, r)
        delta, cross, in_scope, lemma_lower_ok = _reference_reports(ring)
        counts = sn_coset_counts(ring)
        assert (counts.delta_squares, counts.squares_minus_nonsquares) == (delta, cross)
        report = bound_report(ring)
        assert report.multiplicities == in_scope, (p, r)
        assert report.lemma_lower_ok == lemma_lower_ok, (p, r)
        assert report.min_over_scope == min(in_scope.values(), default=None)
        assert report.max_over_scope == max(in_scope.values(), default=None)


def test_reports_match_array_reference():
    # the count over the decompositions of xi^m - 1 against every
    # Teichmüller difference formed and counted, at every t <= 243
    rings = list(_odd_non_wieferich_rings(243))
    assert len(rings) == 60 and (3, 5) in rings
    for p, r in rings:
        ring = build_ring(p, r)
        assert sn_coset_counts(ring) == reference_coset_counts(ring), (p, r)
        report, reference = bound_report(ring), reference_bound_report(ring)
        assert report == reference, (p, r)
        assert list(report.multiplicities) == list(reference.multiplicities), (p, r)


def test_sn_coset_counts_refusals():
    with pytest.raises(ValueError, match="^square/non-square split requires odd p$"):
        sn_coset_counts(build_ring(2, 3))
    with pytest.raises(ValueError, match=r"^square split requires p\^r >= 5$"):
        sn_coset_counts(build_ring(3, 1))
    with pytest.raises(ValueError, match="^bounds require odd p$"):
        bound_report(build_ring(2, 3))


def test_wrong_decomposition_table_is_refused(monkeypatch):
    # e_m off by one at any single m: both reports raise, at m = (t - 1)/2
    # too, whose decomposition places 2 * T_S*
    ring = build_ring(5, 2)
    tables = residue.ring_tables(ring)
    for m in range(1, ring.teich_size - 1):
        e = tables.e.copy()
        e[m] = (e[m] + 1) % (ring.teich_size - 1)
        monkeypatch.setattr(residue, "ring_tables", lambda ring, e=e: tables._replace(e=e))
        for report in (sn_coset_counts, bound_report):
            with pytest.raises(AssertionError, match="e_m = log"):
                report(ring)
    monkeypatch.undo()
    assert sn_coset_counts(ring).matches and bound_report(ring).verdict


def test_difference_counts_leaves_out_equal_pairs():
    ring = build_ring(5, 2)
    squares, non_squares = ring.square_split()
    left = np.concatenate((squares, non_squares[:3]))
    counts = difference_counts(ring.group, left, squares)
    assert counts.shape == (ring.order,) and counts[0] == 0
    assert counts.sum() == len(left) * len(squares) - len(squares)
    expected = _difference_counter(ring, left.tolist(), squares.tolist())
    assert {int(d): int(counts[d]) for d in np.flatnonzero(counts)} == expected


def test_reports_are_plain_json():
    # the reports serialise as they are: Python int keys and values, no numpy
    for p, r in [(5, 2), (7, 1), (23, 2)]:
        ring = build_ring(p, r)
        report = bound_report(ring)
        assert report.multiplicities
        assert all(type(d) is int and type(n) is int
                   for d, n in report.multiplicities.items())
        for obj in (sn_coset_counts(ring), report):
            text = json.dumps(dataclasses.asdict(obj), sort_keys=True)
            assert json.loads(text)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_5_2_nonisomorphic_witness_2():
    ch = wilson_family(build_field(5, 4), 52, name="wilson-half")
    eh = squares_family(build_ring(5, 2))
    res = compare_designs(ch, eh)
    assert res.status == "nonisomorphic"
    assert res.witness == 2
    assert res.profile_a.numbers() == [0, 1, 5, 6]
    assert res.profile_b.numbers() == [0, 1, 2, 5, 6]


def test_compare_same_family_inconclusive():
    fam = squares_family(build_ring(5, 1))
    res = compare_designs(fam, fam)
    assert res.status == "inconclusive"
    assert res.witness is None


def test_compare_partition_families_inconclusive():
    d1, d2, d3 = feng_families(build_field(11, 3))
    assert compare_designs(d1, d2).status == "inconclusive"
    assert compare_designs(d2, d3).status == "inconclusive"


def test_compare_rejects_parameter_mismatch():
    with pytest.raises(ValueError):
        compare_designs(davis_family(build_ring(5, 1)),
                        squares_family(build_ring(5, 1)))


def test_compare_where_gate_applies():
    # every desk-budget case with an applicable gate separates the designs
    for p, r in [(5, 2), (7, 2), (73, 1)]:
        assert gate(p, r).applies
        ch = wilson_family(build_field(p, 2 * r), 2 * (p ** r + 1), name="wilson-half")
        eh = squares_family(build_ring(p, r))
        assert compare_designs(ch, eh).status == "nonisomorphic"


def test_failure_mode_at_19():
    # p^r = 7 (mod 12): the ideal blocks p*T_S* and p*T_N* intersect their
    # translates in (p^r+1)/4 and (p^r-3)/4 points, so key counting cannot
    # separate the designs there
    ring = build_ring(19, 1)
    squares, non_squares = ring.square_split()
    p_sq = [ring.mul(19, t) for t in squares.tolist()]
    p_nsq = [ring.mul(19, t) for t in non_squares.tolist()]
    counts = Counter(ring.group.sub(a, b) for a in p_sq for b in p_nsq)
    assert {counts[x] for x in p_nsq} == {(19 + 1) // 4}
    assert {counts[x] for x in p_sq} == {(19 - 3) // 4}
    assert set(counts) <= set(p_sq) | set(p_nsq)


def test_certificate_structure():
    ch = wilson_family(build_field(5, 4), 52, name="wilson-half")
    eh = squares_family(build_ring(5, 2))
    res = compare_designs(ch, eh)
    cert = certificate(5, 2, ch, eh, res, gate(5, 2), "0.1.0")
    assert list(cert) == ["parameters", "gate", "profile_a", "profile_b",
                          "verdict", "witness", "tool_version"]
    assert cert["parameters"]["family_a"] == "wilson-half"
    assert cert["parameters"]["family_b"] == "gr-squares"
    assert cert["verdict"] == "nonisomorphic"
    assert cert["witness"] == 2
    assert cert["profile_a"]["0"] == "410328750"
    assert cert["gate"]["applies"] is True
