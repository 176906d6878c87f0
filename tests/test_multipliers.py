"""Orbit reduction of the difference route and its self-checks."""

import dataclasses
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddfkit import (BudgetError, IntersectionProfile, ProfileCheckError, _kernels,
                    build_field, build_ring, compare_designs, davis_family, develop,
                    feng_families, furino_family, profile_direct,
                    profile_via_differences, squares_family, wilson_family)
from ddfkit.arith import is_prime
from ddfkit.designs import (_ORBIT_ENTRIES, _field_multiplier_step, _units_permute_blocks,
                            check_profile, difference_orbits)
from ddfkit.families import DifferenceFamily, load_family, save_family
from ddfkit.groups import field_group, point_dtype, ring_group

# Developed blocks v*b up to which the sweeps here and in test_designs.py and
# test_kernels.py also run the direct route: it admits far larger designs,
# but every extra case would add its milliseconds to the suite.
DIRECT_SWEEP_BLOCKS = 5000


def with_changes(fam, **changes):
    """dataclasses.replace for a family, whose blocks are an init-only argument."""
    return dataclasses.replace(fam, **{"blocks": fam.block_array(), **changes})


def swapped(fam):
    """The family with the first elements of its first two blocks exchanged."""
    rows = fam.block_array().copy()
    rows[[0, 1], 0] = rows[[1, 0], 0]
    return with_changes(fam, blocks=np.sort(rows, axis=1), name="swapped")


def constructions(p, r):
    t = p ** r
    fams = {"wilson": wilson_family(build_field(p, 2 * r), t + 1),
            "gr-teichmuller": davis_family(build_ring(p, r))}
    if p > 2:  # 2(t + 1) divides t^2 - 1, and T* splits into squares, for odd p only
        fams["wilson-half"] = wilson_family(build_field(p, 2 * r), 2 * (t + 1))
        fams["gr-squares"] = squares_family(build_ring(p, r))
    return fams


def ring_unit_generators(g):
    """Scalar maps x -> u*x for the generators u of the unit group of g's
    ring, from GaloisRing.mul; none for Z_4, whose units +-1 negation
    already covers."""
    if g.p ** g.digits < 3:
        return []
    ring = build_ring(g.p, g.digits)
    units = [ring.xi] + [ring.group.add(1, ring.mul(g.p, g.base ** i)) for i in range(ring.r)]
    return [partial(ring.mul, u) for u in units]


def permutes(move, blocks):
    """Whether the scalar map `move` maps the Counter of blocks onto itself."""
    return Counter(frozenset(map(move, blk)) for blk in blocks.elements()) == blocks


def field_multiplier_step(field, blocks):
    """Scalar j0: the least j dividing q-1 for which x -> g^j * x, from
    Field.pow and Field.mul, maps the Counter of blocks onto itself."""
    n = field.q - 1
    return next(j for j in range(1, n + 1) if n % j == 0 and
                permutes(partial(field.mul, field.pow(field.generator, j)), blocks))


def labelled_orbits(fam):
    """Scalar reference for difference_orbits: the orbits of negation and
    of the multipliers that map the block multiset onto itself, labelled by
    doubling along each move's permutation.  In a field the multiplier
    move is x -> g^j0 * x (see field_multiplier_step); in a ring it is
    every unit generator when all of them permute the blocks."""
    g = fam.group
    blocks = Counter(frozenset(row) for row in fam.block_array().tolist())
    if g.kind == "field":
        field = build_field(g.p, g.digits)
        gens = [partial(field.mul, field.pow(field.generator,
                                             field_multiplier_step(field, blocks)))]
    else:
        gens = ring_unit_generators(g)
        gens = gens if all(permutes(m, blocks) for m in gens) else []
    moves = [np.array([g.sub(0, x) for x in range(g.order)])]
    moves += [np.array([m(x) for x in range(g.order)]) for m in gens]
    # label[x] is always an element of x's orbit no larger than x.  Pulling
    # the least label along move^(2^s) makes label[x] the least over 2^(s+1)
    # steps of x's cycle; a step that changes nothing means every cycle of
    # that move already carries one label.  Once a round over all moves
    # changes nothing, labels are constant on orbits and equal the orbit
    # minimum.
    elems = np.arange(g.order)
    label = elems
    changed = True
    while changed:
        changed = False
        for move in moves:
            step = move
            while True:
                pulled = np.minimum(label, label[step])
                if np.array_equal(pulled, label):
                    break
                label, changed = pulled, True
                step = step[step]
    reps = np.flatnonzero(label == elems)
    return reps, np.bincount(label, minlength=g.order)[reps]


def assert_orbits_match_labeller(fam):
    reps, sizes = difference_orbits(fam)
    ref_reps, ref_sizes = labelled_orbits(fam)
    assert (reps.tolist(), sizes.tolist()) == (ref_reps.tolist(), ref_sizes.tolist()), \
        fam.name


def full_loop_profile(fam):
    """The difference-route profile over every d, each of weight 1."""
    g = fam.group
    hist = _kernels.diff_cell_hist(fam.block_array(), g.base, g.digits, g.order,
                                   np.arange(g.order), np.ones(g.order))
    return IntersectionProfile({n: g.order * int(c) // 2 for n, c in enumerate(hist)})


@pytest.mark.parametrize("p, r", [(5, 1), (3, 2), (5, 2), (7, 2), (2, 2), (2, 3)])
def test_reduced_route_equals_full_loop(p, r):
    for name, fam in constructions(p, r).items():
        assert difference_orbits(fam)[0].size <= 3, name
        assert profile_via_differences(fam) == full_loop_profile(fam), (p, r, name)


@pytest.mark.parametrize("p, r", [(5, 1), (3, 2), (5, 2), (7, 2), (73, 1), (2, 2), (2, 3)])
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
        assert_orbits_match_labeller(fam)
    # with two elements swapped no unit permutes the blocks, and only
    # negation acts: {0} and the pairs {d, -d}, or every d alone when p = 2
    fam = swapped(constructions(p, r)["wilson"])
    reps, sizes = difference_orbits(fam)
    g = fam.group
    if p > 2:
        assert reps.size == (fam.v + 1) // 2 and int(sizes.sum()) == fam.v
        assert all(g.sub(0, int(d)) > d for d in reps[1:])
    else:
        assert (reps.tolist(), sizes.tolist()) == (list(range(fam.v)), [1] * fam.v)
    assert_orbits_match_labeller(fam)


def test_feng_and_furino_orbits_match_labeller():
    # the primitive element g swaps feng-1's two blocks; g^7 fixes each of
    # feng-2's and feng-3's, whose index sets are unions of classes mod 7,
    # so with negation d != 0 falls into gcd(7, 665) = 7 orbits
    fengs = feng_families(build_field(11, 3))
    assert [difference_orbits(fam)[0].size for fam in fengs] == [2, 8, 8]
    for fam in fengs:
        assert_orbits_match_labeller(fam)
    # every unit permutes the cosets of a Teichmüller subgroup
    for p, r, e in [(5, 1, 1), (5, 1, 2), (7, 1, 3), (3, 2, 4), (2, 2, 1)]:
        ring = build_ring(p, r)
        fam = furino_family(ring, ring.teichmuller[1::e])
        assert difference_orbits(fam)[0].tolist() == [0, 1, p], (p, r, e)
        assert_orbits_match_labeller(fam)


def xi_fixed_family(ring):
    """The single block (1+p)T* of GR(p^2, r)."""
    one_plus_p = ring.group.add(1, ring.p)
    block = sorted(ring.mul(one_plus_p, x) for x in ring.teichmuller[1:].tolist())
    return DifferenceFamily(group=ring.group, blocks=(block,), lam=0)


@pytest.mark.parametrize("p, r", [(5, 1), (3, 2), (2, 2)])
def test_block_fixed_by_xi_alone_gets_negation_orbits(p, r):
    # xi fixes the block, 1 + p moves it, so the unit group does not
    # permute it and only negation acts
    ring = build_ring(p, r)
    fam = xi_fixed_family(ring)
    block = fam.block_array()[0].tolist()
    one_plus_p = ring.group.add(1, ring.p)
    assert sorted(ring.mul(ring.xi, x) for x in block) == block
    assert sorted(ring.mul(one_plus_p, x) for x in block) != block
    fixed = 1 if p > 2 else 2 ** r  # the d with d = -d
    assert difference_orbits(fam)[0].size == (ring.order + fixed) // 2
    assert_orbits_match_labeller(fam)
    assert profile_via_differences(fam) == profile_direct(develop(fam))


def test_budget_counts_the_orbits_before_building_them(monkeypatch):
    # the closed-form orbit count checked against the budget is the count
    # the orbit arrays then have: unit orbits, the 1 + m orbits of a field
    # family, and negation orbits for odd p, p = 2 fields and GR(4, r)
    import ddfkit.designs

    fams = [xi_fixed_family(build_ring(2, 2))]
    fams += [fam for p, r in [(5, 1), (2, 2), (2, 3)] for fam in constructions(p, r).values()]
    fams += [swapped(constructions(p, r)["wilson"]) for p, r in [(5, 1), (2, 2)]]
    # 1 + m orbits for a proper multiplier subgroup <g^j0> of a field
    fams += [linearly_relabelled(constructions(5, 2)["wilson-half"], 2)]
    counts = [difference_orbits(fam)[0].size * fam.b * fam.k for fam in fams]
    for fam, elements in zip(fams, counts):
        monkeypatch.setattr(ddfkit.designs, "DIFF_ELEMENT_BUDGET", elements)
        difference_orbits(fam)
        monkeypatch.setattr(ddfkit.designs, "DIFF_ELEMENT_BUDGET", elements - 1)
        with pytest.raises(BudgetError, match=f"got {elements}$"):
            difference_orbits(fam)


def ring_units(ring):
    """The unit-group generators the orbit search tries: xi and 1 + p*x^i."""
    g = ring.group
    return np.array([ring.xi] + [1 + ring.p * g.base ** i for i in range(ring.r)])


@pytest.mark.parametrize("kind, p, n", [("field", 5, 2), ("field", 2, 4), ("field", 7, 1),
                                        ("ring", 5, 1), ("ring", 3, 2), ("ring", 2, 2),
                                        ("ring", 2, 3)])
def test_unit_images_match_multiplication(kind, p, n):
    g = field_group(p, n) if kind == "field" else ring_group(p, n)
    x = np.arange(g.order).reshape(p, -1)  # the images keep the shape
    if kind == "field":
        # the digit matrices that try g^j on the blocks, for j = 1 and for j = 3
        field = build_field(p, n)
        matrices = field.unit_matrix(np.array([1, 3]))
        scalar = [[field.mul(field.pow(field.generator, j), a) for a in range(g.order)]
                  for j in (1, 3)]
        gens = scalar[:1]
    else:
        ring = build_ring(p, n)
        matrices = ring.unit_matrix(ring_units(ring))
        scalar = gens = [[m(a) for a in range(g.order)] for m in ring_unit_generators(g)]
    images = g.linear_image(matrices, x)  # one call on the stack
    assert images.shape == (len(scalar),) + x.shape
    assert images.reshape(len(scalar), -1).tolist() == scalar
    # the generators reach every unit from 1: the field's q - 1 nonzero
    # elements, or the ring's p^2r - p^r elements outside pR
    reached, frontier = {1}, [1]
    while frontier:
        frontier = list({image[a] for a in frontier for image in gens} - reached)
        reached.update(frontier)
    assert len(reached) == (g.order - 1 if kind == "field" else g.order - p ** n)


@pytest.mark.parametrize("p, r", [(2, 2), (3, 1), (3, 2), (5, 2), (3, 3)])
def test_unit_digit_matrices_match_mul_arrays(p, r):
    # every element of GR(p^2, r), in its point dtype, under each generator
    g = ring_group(p, r)
    ring = build_ring(p, r)
    x = np.arange(g.order, dtype=point_dtype(g.order)).reshape(p, -1)
    units = ring_units(ring)
    matrices = ring.unit_matrix(units)
    assert matrices.shape == (r + 1, r, r)
    images = g.linear_image(matrices, x)
    assert images.dtype == x.dtype
    for unit, image, matrix in zip(units, images, matrices):
        assert np.array_equal(image, ring.mul_arrays(unit, x.astype(np.int64)))
        assert np.array_equal(ring.unit_matrix(unit), matrix)  # a scalar u: one matrix


def linearly_relabelled(fam, seed):
    """The family with every element's digit vector over F_p multiplied by
    a seeded invertible matrix: an additive automorphism of F_(p^n), which
    commutes with the scalars F_p*."""
    g = fam.group
    rng = np.random.default_rng(seed)
    pows = g.base ** np.arange(g.digits)
    digits = np.arange(g.order)[:, None] // pows % g.base
    while True:
        image = (digits @ rng.integers(0, g.p, size=(g.digits, g.digits)) % g.base) @ pows
        if np.bincount(image, minlength=g.order).max() == 1:  # a bijection
            break
    return with_changes(fam, blocks=np.sort(image[fam.block_array()], axis=1),
                        name="relabelled")


# r = 2: at r = 1 the blocks are cosets of a subgroup of F_p*, which the
# relabelling leaves as they are
@pytest.mark.parametrize("name, p, r, seed", [("wilson-half", 3, 2, 1), ("wilson-half", 5, 2, 2),
                                              ("wilson-half", 7, 2, 3), ("wilson", 5, 2, 4)])
def test_linearly_relabelled_wilson_keeps_the_scalar_multipliers(name, p, r, seed):
    built = constructions(p, r)[name]
    fam = linearly_relabelled(built, seed)
    reps, sizes = difference_orbits(fam)
    assert_orbits_match_labeller(fam)
    # F_p* = <g^((q-1)/(p-1))> still permutes the blocks, so every orbit
    # but {0} is a union of F_p*-orbits of size p - 1
    assert sizes[0] == 1 and (sizes[1:] % (p - 1) == 0).all()
    assert reps.size < (fam.v + 1) // 2 or p == 3  # F_3* = {+-1} is negation
    assert profile_via_differences(fam) == profile_via_differences(built)
    if fam.v * fam.b <= DIRECT_SWEEP_BLOCKS:
        assert profile_via_differences(fam) == profile_direct(develop(fam))


@pytest.mark.parametrize("p, r", [(3, 2), (5, 2), (17, 2)])
def test_loaded_copies_find_the_multipliers_of_the_construction(tmp_path, p, r):
    # v = 81, 625 and 83521: uint8, uint16 and uint32 blocks.  A loaded copy
    # reaches the orbit search at the width of the construction, and the
    # image keys must have the width of the blocks' own keys, whatever the
    # map's arithmetic returns.  The relabelled field family keeps only
    # F_p* (see test_linearly_relabelled_wilson_keeps_the_scalar_multipliers),
    # and the swapped ring family no unit.
    fams = constructions(p, r)
    fams["relabelled"] = linearly_relabelled(fams["wilson-half"], 5)
    fams["swapped"] = swapped(fams["gr-squares"])
    for name, built in fams.items():
        save_family(built, tmp_path / "fam.txt")
        loaded = load_family(tmp_path / "fam.txt", built.group.kind, p)
        assert loaded.block_array().dtype == built.block_array().dtype
        if built.group.kind == "field":
            field = build_field(p, 2 * r)
            j0 = _field_multiplier_step(built, field)
            assert _field_multiplier_step(loaded, field) == j0
            assert j0 == ((field.q - 1) // (p - 1) if name == "relabelled" else 1), name
        else:
            assert _units_permute_blocks(loaded) is _units_permute_blocks(built) \
                is (name != "swapped"), name


@pytest.mark.parametrize("name", ["wilson-half", "gr-squares"])
def test_orbit_search_holds_two_key_arrays_and_a_slice(name):
    # t = 1009: 2020 base blocks of 504 in a 4.07 MB uint32 array.  The
    # search holds the blocks' sorted keys and one image key array, both at
    # the blocks' width, and the int64 temporaries of one slice of
    # _ORBIT_ENTRIES entries.  Traced peaks with numpy 2.4: 8.81 MB for
    # wilson-half and 10.25 MB for gr-squares, within the bound
    # 2*4.07 + 48*2^16/10^6 = 11.29 MB.
    fam = constructions(1009, 1)[name]
    difference_orbits(fam)  # the field or ring tables stay in their caches
    tracemalloc.start()
    try:
        reps, _ = difference_orbits(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reps.size == (2 if name == "wilson-half" else 3)  # every unit permutes
    assert fam.block_array().nbytes == 4 * 2020 * 504
    assert peak <= 2 * fam.block_array().nbytes + 48 * _ORBIT_ENTRIES


def cyclotomic_cases():
    cases = []
    for p in range(2, 401):
        if not is_prime(p):
            continue
        q, n = p, 1
        while q <= 400:
            for e in range(2, q):
                f = (q - 1) // e
                if (q - 1) % e == 0 and f >= 2 and q * e <= DIRECT_SWEEP_BLOCKS:
                    cases.append((p, n, e))
            q, n = q * p, n + 1
    return cases


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(cyclotomic_cases()))
def test_reduced_route_matches_direct_on_cyclotomic_families(case):
    # every e with e | q-1 and f >= 2 whose development is within the sweep's bound
    p, n, e = case
    fam = wilson_family(build_field(p, n), e)
    assert profile_via_differences(fam) == profile_direct(develop(fam))


def test_planted_kernel_error_is_caught(monkeypatch, capsys):
    # one off-by-one in the strip layout that the difference kernel, compare's
    # tables of size t and the cyclotomic tables all count their cells with
    real = _kernels.strip_cells

    def planted(*args, **kwargs):
        cells = real(*args, **kwargs)
        cells[0] += 1
        return cells

    monkeypatch.setattr(_kernels, "strip_cells", planted)
    with pytest.raises(ProfileCheckError):
        profile_via_differences(squares_family(build_ring(5, 1)))

    from ddfkit.cli import main
    code = main(["compare", "--p", "5", "--r", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("profile self-check failed:")
    assert err.count("\n") == 1 and "Traceback" not in err

    code = main(["cyclo", "--p", "5", "--r", "2", "--e", "6", "--check-closed-form"])
    assert code == 1
    assert capsys.readouterr().err == "order-(t+1) closed form: FAIL\n"


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
    fam = DifferenceFamily(group=field_group(7, 1), blocks=((1, 2), (3, 5)), lam=1)
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
