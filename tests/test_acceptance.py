"""Acceptance suite: one test per criterion, exact-integer tolerances.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them).  Runtime caps are asserted after the kernels have been JIT-warmed by
the session fixture, so they measure compute, not compilation.
"""

import json
import math
import random
import time
from collections import Counter

import numpy as np

from ddfkit import (bound_report, build_field, build_ring, check_sum_relation,
                    closed_form_order_2e, closed_form_order_e, compare_designs,
                    cyclotomic_table, davis_family, develop, dickson_counts,
                    feng_families, furino_family, iso_oracle, profile_direct,
                    profile_via_differences, sn_coset_counts, squares_family,
                    unknown_quadruples, verify_2design, wieferich_below,
                    wilson_family, wilson_half_profile_closed_form,
                    wilson_profile_closed_form)
from ddfkit.cli import main as cli_main
from ddfkit.designs import Design


class criterion:
    """Times a criterion body and prints its PASS/FAIL line."""

    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) {self.description}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} took {elapsed:.2f}s, limit {self.limit}s")
        return False


def test_criterion_1_key_sets_and_verdict(capsys):
    with criterion(1, "compare --p 5 --r 2: key sets and witness 2", 10):
        code = cli_main(["compare", "--p", "5", "--r", "2"])
        out = capsys.readouterr().out
        assert code == 0
        cert = json.loads(out)
        assert sorted(int(k) for k in cert["profile_a"]) == [0, 1, 5, 6]
        assert sorted(int(k) for k in cert["profile_b"]) == [0, 1, 2, 5, 6]
        assert cert["verdict"] == "nonisomorphic"
        assert cert["witness"] == 2


def test_criterion_2_published_multiplicities():
    with criterion(2, "published (625,12,11) profile multiplicities", 10):
        ch = wilson_family(build_field(5, 4), 52)
        assert profile_via_differences(ch).counts == {
            0: 410_328_750, 1: 117_000_000, 5: 195_000, 6: 585_000}
        eh = squares_family(build_ring(5, 2))
        assert profile_via_differences(eh).counts == {
            0: 417_078_750, 1: 100_687_500, 2: 10_312_500, 5: 7_500, 6: 22_500}


def test_criterion_3_partition_families():
    with criterion(3, "partition families: shared profile, inconclusive compare", 60):
        fams = feng_families(build_field(11, 3))
        expected = {0: 1_331, 332: 2_655_345, 333: 885_115}
        for fam in fams:
            assert profile_via_differences(fam).counts == expected
        assert compare_designs(fams[0], fams[1]).status == "inconclusive"
        assert compare_designs(fams[0], fams[2]).status == "inconclusive"
        assert compare_designs(fams[1], fams[2]).status == "inconclusive"


def test_criterion_4_closed_form_full_cosets():
    with criterion(4, "closed-form profile (order p^r+1) vs computation", 60):
        for p, r in [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)]:
            fam = wilson_family(build_field(p, 2 * r), p ** r + 1)
            assert wilson_profile_closed_form(p, r) == profile_via_differences(fam), (p, r)


def test_criterion_5_closed_form_half_cosets():
    with criterion(5, "closed-form profile (order 2(p^r+1)) vs computation", 120):
        for p, r in [(3, 2), (7, 1), (13, 1), (5, 2)]:
            fam = wilson_family(build_field(p, 2 * r), 2 * (p ** r + 1))
            assert wilson_half_profile_closed_form(p, r) == profile_via_differences(fam), (p, r)


def test_criterion_6_cyclotomic_tables():
    with criterion(6, "cyclotomic closed forms, quadruples, sum relation", 60):
        cases = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2)}
        for t, (p, r) in cases.items():
            field = build_field(p, 2 * r)
            brute_e = cyclotomic_table(field, t + 1)
            assert np.array_equal(closed_form_order_e(p, r).cells, brute_e.cells), t
            closed_2e = closed_form_order_2e(p, r)
            brute_2e = cyclotomic_table(field, 2 * (t + 1))
            for i in range(closed_2e.e):
                for j in range(closed_2e.e):
                    known = closed_2e.entry(i, j)
                    if known is not None:
                        assert known == brute_2e.entry(i, j), (t, i, j)
            for quad in unknown_quadruples(closed_2e):
                vals = sorted(brute_2e.entry(i, j) for i, j in quad)
                assert vals == [0, 0, 0, 1], (t, quad)
        f9 = build_field(3, 2)
        assert check_sum_relation(cyclotomic_table(f9, 4),
                                  cyclotomic_table(f9, 8)) == (True, None)
        f625 = build_field(5, 4)
        assert check_sum_relation(cyclotomic_table(f625, 26),
                                  cyclotomic_table(f625, 52)) == (True, None)


def test_criterion_7_consecutive_residue_counts():
    with criterion(7, "consecutive square/non-square counts to 121", 60):
        cases = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1),
                 (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (37, 1),
                 (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1), (61, 1),
                 (67, 1), (71, 1), (73, 1), (79, 1), (3, 4), (83, 1), (89, 1),
                 (97, 1), (101, 1), (103, 1), (107, 1), (109, 1), (113, 1),
                 (11, 2)]
        assert sorted(p ** r for p, r in cases) == [
            q for q in range(3, 122, 2)
            if len({d for d in range(2, q + 1) if q % d == 0 and all(
                d % e for e in range(2, d))}) == 1]
        for p, r in cases:
            dickson_counts(p, r)  # raises on any closed-form mismatch


def test_criterion_8_ring_structure_properties():
    with criterion(8, "ring structure properties and Wieferich sweep", 30):
        cases = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2)]
        assert sorted(p ** r for p, r in cases) == [5, 7, 9, 11, 13, 25, 27, 49]
        for p, r in cases:
            ring = build_ring(p, r)
            t = ring.teich_size
            squares, non_squares = ring.square_split()
            minus_one = ring.neg(1)
            assert (minus_one in set(squares)) == (t % 4 == 1)
            assert (minus_one in set(non_squares)) == (t % 4 == 3)
            delta = {ring.sub(a, b) for a in squares for b in squares if a != b}
            cross = {ring.sub(a, b) for a in non_squares for b in squares}
            assert (1 in delta) == (t % 12 == 1)
            assert (1 in cross) == (t % 12 == 7)
            assert (ring.coset_parity(2) == 0) == (t % 8 in (1, 7))
        assert wieferich_below(10 ** 6) == [1093, 3511]


def test_criterion_9_coset_counts_and_bounds():
    with criterion(9, "coset-count lemma and multiplicity bounds", 60):
        for p, r in [(5, 2), (7, 2), (73, 1)]:
            ring = build_ring(p, r)
            assert sn_coset_counts(ring).matches, (p, r)
            report = bound_report(ring)
            assert report.upper_applicable and report.verdict, (p, r)
            assert report.min_over_scope > 1
            assert report.max_over_scope < report.upper_bound


def _desk_scale_families():
    fams = [wilson_family(build_field(3, 2), e) for e in (2, 4)]
    fams += [wilson_family(build_field(5, 2), e) for e in (2, 3, 4, 6, 8, 12)]
    fams += [wilson_family(build_field(7, 2), e) for e in (2, 8, 16, 24)]
    fams += [wilson_family(build_field(3, 4), e) for e in (10, 20, 40)]
    fams += [davis_family(build_ring(p, r))
             for p, r in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]]
    fams += [squares_family(build_ring(p, r))
             for p, r in [(5, 1), (7, 1), (11, 1), (13, 1)]]
    ring49 = build_ring(7, 1)
    fams.append(furino_family(
        ring49, sorted({ring49.pow(t, 3) for t in ring49.teichmuller[1:]})))
    fams += list(feng_families(build_field(11, 3)))
    assert all(f.v * f.b <= 5000 for f in fams)
    return fams


def test_criterion_10a_10b_profile_route_agreement():
    with criterion(10.1, "profile routes agree; totals equal C(vb,2)", 180):
        for fam in _desk_scale_families():
            direct = profile_direct(develop(fam))
            via_diff = profile_via_differences(fam)
            assert direct == via_diff, fam.name
            assert via_diff.total() == math.comb(fam.v * fam.b, 2), fam.name


def test_criterion_10c_design_verification():
    with criterion(10.2, "2-design verification for all four constructions", 120):
        ring49 = build_ring(7, 1)
        checks = [
            wilson_family(build_field(11, 3), 14),       # v = 1331
            davis_family(build_ring(5, 2)),              # v = 625
            squares_family(build_ring(5, 2)),            # v = 625
            furino_family(ring49, sorted({ring49.pow(t, 3)
                                          for t in ring49.teichmuller[1:]})),
        ]
        for fam in checks:
            assert verify_2design(develop(fam), fam.lam) == (True, None), fam.name


def test_criterion_10d_isomorphism_oracle():
    with criterion(10.3, "isomorphism search on relabeled designs", 60):
        rng = random.Random(2024)
        for fam in [wilson_family(build_field(3, 2), 2),
                    davis_family(build_ring(5, 1))]:
            design = develop(fam)
            perm = list(range(design.v))
            rng.shuffle(perm)
            relabeled = np.sort(np.vectorize(perm.__getitem__)(design.blocks), axis=1)
            other = Design(v=design.v, k=design.k, blocks=relabeled.astype(np.int64))
            res = iso_oracle(design, other, node_budget=500_000)
            assert res.status == "mapping", fam.name
            transported = Counter(
                frozenset(res.mapping[int(x)] for x in row) for row in design.blocks)
            assert transported == Counter(
                frozenset(int(x) for x in row) for row in other.blocks)
        a = develop(wilson_family(build_field(5, 2), 6))
        b = develop(davis_family(build_ring(5, 1)))
        assert iso_oracle(a, b).status == "nonexistent"
