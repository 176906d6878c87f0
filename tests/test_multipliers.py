"""Orbit reduction of the difference route and its self-checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddfkit import (ProfileCheckError, _kernels, build_field, build_ring,
                    compare_designs, davis_family, develop, profile_direct,
                    profile_via_differences, squares_family, wilson_family)
from ddfkit.arith import is_prime
from ddfkit.designs import PROFILE_DIRECT_BLOCK_BUDGET, check_profile, difference_orbits


def with_changes(fam, **changes):
    """dataclasses.replace for a family, whose blocks are an init-only argument."""
    return dataclasses.replace(fam, blocks=fam.block_array(), **changes)


def constructions(p, r):
    t = p ** r
    return {
        "wilson": wilson_family(build_field(p, 2 * r), t + 1),
        "wilson-half": wilson_family(build_field(p, 2 * r), 2 * (t + 1)),
        "gr-teichmuller": davis_family(build_ring(p, r)),
        "gr-squares": squares_family(build_ring(p, r)),
    }


@pytest.mark.parametrize("p, r", [(5, 1), (3, 2), (5, 2), (7, 2)])
def test_reduced_route_equals_full_loop(p, r):
    for name, fam in constructions(p, r).items():
        assert fam.multipliers, name
        full = with_changes(fam, multipliers=())
        assert profile_via_differences(fam) == profile_via_differences(full), \
            (p, r, name)


@pytest.mark.parametrize("p, r", [(5, 1), (3, 2), (5, 2), (7, 2), (73, 1)])
def test_orbit_counts(p, r):
    # fields: {0} and F*; rings: {0}, the units and pR \ {0}, whose least
    # element is p
    t = p ** r
    field_orbits = ([0, 1], [1, t * t - 1])
    ring_orbits = ([0, 1, p], [1, t * (t - 1), t - 1])
    expected = {"wilson": field_orbits, "wilson-half": field_orbits,
                "gr-teichmuller": ring_orbits, "gr-squares": ring_orbits}
    for name, fam in constructions(p, r).items():
        reps, sizes = difference_orbits(fam)
        assert (reps.tolist(), sizes.tolist()) == expected[name], (p, r, name)
    # without multipliers only negation acts: {0} and the pairs {d, -d}
    fam = with_changes(constructions(p, r)["wilson"], multipliers=())
    reps, sizes = difference_orbits(fam)
    assert reps.size == (fam.v + 1) // 2 and int(sizes.sum()) == fam.v
    g = fam.group
    assert all(g.neg(int(d)) > d for d in reps[1:])


def test_multiplier_that_does_not_permute_blocks_is_rejected():
    fam = wilson_family(build_field(3, 2), 2)  # squares and non-squares of F_9
    shear = ((1, 1), (0, 1))  # an additive automorphism of F_9 that is no multiplication
    singular = ((1, 0), (0, 0))
    wrong_shape = ((1,),)
    for bad in (shear, singular, wrong_shape):
        with pytest.raises(ValueError):
            profile_via_differences(with_changes(fam, multipliers=(bad,)))
    identity = ((1, 0), (0, 1))
    assert profile_via_differences(with_changes(fam, multipliers=(identity,))) == \
        profile_via_differences(fam)


def cyclotomic_cases():
    cases = []
    for p in range(2, 401):
        if not is_prime(p):
            continue
        q, n = p, 1
        while q <= 400:
            for e in range(2, q):
                f = (q - 1) // e
                if (q - 1) % e == 0 and f >= 2 and q * e <= PROFILE_DIRECT_BLOCK_BUDGET:
                    cases.append((p, n, e))
            q, n = q * p, n + 1
    return cases


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(cyclotomic_cases()))
def test_reduced_route_matches_direct_on_cyclotomic_families(case):
    # every e with e | q-1 and f >= 2 whose development fits the direct budget
    p, n, e = case
    fam = wilson_family(build_field(p, n), e)
    assert profile_via_differences(fam) == profile_direct(develop(fam))


def test_planted_kernel_error_is_caught(monkeypatch, capsys):
    real = _kernels.diff_cell_hist

    def off_by_one(*args, **kwargs):
        hist = real(*args, **kwargs)
        hist[1] += 1
        return hist

    monkeypatch.setattr(_kernels, "diff_cell_hist", off_by_one)
    with pytest.raises(ProfileCheckError):
        profile_via_differences(squares_family(build_ring(5, 1)))

    from ddfkit.cli import main
    code = main(["compare", "--p", "5", "--r", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("profile self-check failed:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_compare_checks_the_lambda_identity():
    fam = squares_family(build_ring(5, 1))
    other = wilson_family(build_field(5, 2), 12)
    compare_designs(other, fam)
    wrong = with_changes(fam, lam=fam.lam + 1)
    with pytest.raises(ProfileCheckError, match="C\\(N,2\\)"):
        compare_designs(other, wrong)


def test_identities_hold_on_imported_non_design():
    # two disjoint blocks in Z_7 that are no difference family still profile
    from ddfkit.families import DifferenceFamily
    from ddfkit.groups import field_group
    fam = DifferenceFamily(group=field_group(7, 1), blocks=((1, 2), (3, 5)), v=7,
                           k=2, lam=1, disjoint=True, near_complete=False)
    assert profile_via_differences(fam) == profile_direct(develop(fam))


def test_shifted_profile_fails_only_the_lambda_identity():
    prof = profile_via_differences(squares_family(build_ring(5, 1)))
    counts = dict(prof.counts)
    # move two pairs off N=1 onto N=0 and N=2: sum m_N and sum N*m_N stay
    counts[0] += 1
    counts[1] -= 2
    counts[2] = counts.get(2, 0) + 1
    planted = type(prof)(counts)
    check_profile(planted, 25, 12, 2)
    with pytest.raises(ProfileCheckError):
        check_profile(planted, 25, 12, 2, 1)
    check_profile(prof, 25, 12, 2, 1)


def test_block_permutation_matches_multiplication():
    field = build_field(5, 2)
    fam = wilson_family(field, 6)
    g = fam.group
    mat = np.array(fam.multipliers[0])
    x = np.arange(g.order)
    image = g.pack_digits(g.digit_matrix(x) @ mat)
    assert image.tolist() == [field.mul(int(a), field.generator) for a in x]
