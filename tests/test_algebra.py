"""Exact checks of the structure-constant tables."""

import copy
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galconf import algebra
from galconf.algebra import (
    AlgebraSpec,
    _jacobi_defect,
    bracket,
    build_algebra,
    conformal_basis,
    conformal_basis_inverse,
    dump_table,
    jacobi_worst,
    levi_civita,
    parse_generator,
    so21_basis,
    so21_epsilon_lower,
    structure_checks,
)
from galconf.errors import (
    BadDimension,
    GalconfError,
    InvalidState,
    UnknownGenerator,
    UnsupportedExtension,
)
from galconf.verify import ACCEPTANCE_ALGEBRAS, break_antisymmetry, flip_constant, run_suites


# Levi-Civita signs written out, so that no reference reads algebra.levi_civita
EPS3 = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}
EPS2 = {(1, 2): 1, (2, 1): -1}


def names(elem):
    return {g.name: c for g, c in elem.items()}


def single(alg, name):
    return {alg.generator(name): Fraction(1)}


@pytest.fixture(scope="module")
def alg1():
    return build_algebra(1, 3, central=True)


class TestSchrodingerTable:
    """The N=1 table against the printed commutators, with C_0 -> P, C_1 -> B."""

    def test_sl2_rows(self, alg1):
        assert names(bracket(alg1, single(alg1, "D"), single(alg1, "H"))) == {"H": 1}
        assert names(bracket(alg1, single(alg1, "D"), single(alg1, "K"))) == {"K": -1}
        assert names(bracket(alg1, single(alg1, "K"), single(alg1, "H"))) == {"D": 2}

    def test_rotations(self, alg1):
        for i in range(1, 4):
            for k in range(1, 4):
                got = bracket(alg1, single(alg1, f"J{i}"), single(alg1, f"J{k}"))
                want = {f"J{l}": EPS3[i, k, l] for l in range(1, 4) if (i, k, l) in EPS3}
                assert names(got) == want
                for tower, level in (("C0", 0), ("C1", 1)):
                    got = bracket(alg1, single(alg1, f"J{i}"),
                                  single(alg1, f"{tower}_{k}"))
                    want = {f"{tower}_{l}": EPS3[i, k, l]
                            for l in range(1, 4) if (i, k, l) in EPS3}
                    assert names(got) == want

    def test_galilei_rows(self, alg1):
        for i in range(1, 4):
            # [B_i, H] = i P_i
            assert names(bracket(alg1, single(alg1, f"C1_{i}"),
                                 single(alg1, "H"))) == {f"C0_{i}": 1}
            # [D, P_i] = i/2 P_i and [D, B_i] = -i/2 B_i
            assert names(bracket(alg1, single(alg1, "D"),
                                 single(alg1, f"C0_{i}"))) == {f"C0_{i}": Fraction(1, 2)}
            assert names(bracket(alg1, single(alg1, "D"),
                                 single(alg1, f"C1_{i}"))) == {f"C1_{i}": Fraction(-1, 2)}
            # [K, P_i] = i B_i
            assert names(bracket(alg1, single(alg1, "K"),
                                 single(alg1, f"C0_{i}"))) == {f"C1_{i}": 1}

    def test_central_extension_row(self, alg1):
        # [C_0^a, C_1^b] carries coefficient (-1)^{(1-0+1)/2} 1! 0! = -1 on the mass
        for a in range(1, 4):
            for b in range(1, 4):
                got = names(bracket(alg1, single(alg1, f"C0_{a}"),
                                    single(alg1, f"C1_{b}")))
                assert got == ({"M": -1} if a == b else {})
        # equivalently [B_i, P_k] = +i M delta_{ik}
        assert names(bracket(alg1, single(alg1, "C1_2"),
                             single(alg1, "C0_2"))) == {"M": 1}

    def test_vanishing_rows(self, alg1):
        zero_pairs = [("H", "C0_1"), ("K", "C1_3"), ("H", "J2"), ("K", "J1"),
                      ("D", "J3"), ("C0_1", "C0_2"), ("C1_1", "C1_2")]
        for x, y in zero_pairs:
            assert bracket(alg1, single(alg1, x), single(alg1, y)) == {}


def test_mass_is_central(alg1):
    M = single(alg1, "M")
    for g in alg1.generators:
        assert bracket(alg1, M, {g: Fraction(1)}) == {}


@pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (5, 3), (2, 2), (4, 2)])
def test_cc_row_magnitudes(N, dim):
    alg = build_algebra(N, dim, central=True)
    seen = 0
    for (x, y), res in alg.table.items():
        if x.kind == "C" and y.kind == "C":
            assert x.level + y.level == N
            want = Fraction(math.factorial(x.level) * math.factorial(y.level))
            for coeff in res.values():
                assert abs(coeff) == want
            seen += 1
    assert seen > 0


def per_dimension_mass_rows(N, dim):
    """Coefficient of M in [C_j^a, C_{N-j}^b] for j <= N - j (1-based axes),
    by separate formulas for the two families: (-1)^((N-2j+1)/2) delta_ab
    in dimension 3 and -(-1)^((N-2j)/2) eps^{ab} in dimension 2, times
    j! (N-j)!."""
    rows = {}
    for j in range(N // 2 + 1):
        k = N - j
        fact = math.factorial(j) * math.factorial(k)
        for a in range(1, dim + 1):
            for b in range(1, dim + 1):
                if dim == 3:
                    rows[(j, a, b)] = Fraction((-1) ** ((k - j + 1) // 2) * fact * (a == b))
                else:
                    rows[(j, a, b)] = Fraction(-EPS2.get((a, b), 0) * (-1) ** ((k - j) // 2) * fact)
    return rows


def test_mass_rows_match_per_dimension_formulas():
    for N in range(1, 32):
        dim = 3 if N % 2 else 2
        alg = build_algebra(N, dim, central=True)
        M = alg.generator("M")
        want = per_dimension_mass_rows(N, dim)
        for j in range(N + 1):
            for a in range(1, dim + 1):
                for b in range(1, dim + 1):
                    c = want[(j, a, b)] if j <= N - j else -want[(N - j, b, a)]
                    got = alg.table.get((alg.generator(f"C{j}_{a}"),
                                         alg.generator(f"C{N - j}_{b}")), {})
                    assert got == ({M: c} if c else {}), (N, j, a, b)


@pytest.mark.parametrize("N,dim,central,ds", [
    (1, 3, True, False), (3, 3, True, False), (2, 2, True, False),
    (1, 3, False, True), (2, 3, False, False), (3, 2, False, False),
])
def test_jacobi_exact(N, dim, central, ds):
    assert jacobi_worst(build_algebra(N, dim, central, ds))[0] == 0


def test_jacobi_exact_full_range():
    """Every supported (N, dim, central) combination up to N = 15."""
    for N in range(1, 16):
        for dim in (2, 3):
            assert jacobi_worst(build_algebra(N, dim, central=False))[0] == 0
            if (N % 2, dim) in ((1, 3), (0, 2)):
                assert jacobi_worst(build_algebra(N, dim, central=True))[0] == 0
    assert jacobi_worst(build_algebra(9, 3, central=False, with_ds=True))[0] == 0


def oracle_worst(alg):
    """The worst Jacobi triple by brute force over every triple with _jacobi_defect."""
    worst, triple = Fraction(0), None
    for x, y, z in combinations(alg.generators, 3):
        d = _jacobi_defect(alg, x, y, z)
        if d > worst:
            worst, triple = d, (x.name, y.name, z.name)
    return worst, triple


@pytest.mark.parametrize("spec", ACCEPTANCE_ALGEBRAS)
def test_jacobi_worst_matches_oracle(spec):
    alg = build_algebra(*spec)
    assert jacobi_worst(alg) == oracle_worst(alg) == (0, None)


def dense_oracle_worst(alg):
    """The worst Jacobi triple from the dense integer tensor T[x, y, z] = c_z([x, y]) den.

    [a, [b, c]]_g is A[a, b, c, g] = sum_w T[b, c, w] T[a, w, g], and the
    Jacobi sum of (a, b, c) is A plus its two cyclic transposes.
    """
    n, index = len(alg.generators), alg.index
    den = math.lcm(*(c.denominator for row in alg.table.values() for c in row.values()))
    T = np.zeros((n, n, n), dtype=np.int64)
    for (x, y), row in alg.table.items():
        for z, c in row.items():
            T[index[x], index[y], index[z]] = int(c * den)
    big = int(np.abs(T).max())
    assert 3 * n * big * big < 2 ** 63  # no Jacobi sum can overflow int64
    A = np.einsum("bcw,awg->abcg", T, T)
    defect = np.abs(A + np.einsum("bcag->abcg", A) + np.einsum("cabg->abcg", A)).max(axis=3)
    triples = list(combinations(range(n), 3))
    d = defect[tuple(np.array(triples).T)]
    i = int(np.argmax(d))  # the first of the largest, in combinations order
    if not d[i]:
        return Fraction(0), None
    return Fraction(int(d[i]), den * den), tuple(alg.generators[j].name for j in triples[i])


def jacobi_worst_reference(alg):
    """jacobi_worst as a per-product loop: the sparse sums one dict entry at a time.

    Every term [a, [b, c]] is a stored pair (b, c), a generator w of its
    result and a stored pair (a, w); it is added to the sums of the triple
    {a, b, c} when (a, b, c) is a cyclic rotation of the triple in generator
    order.  The worst triple is the first in combinations order among those
    with the largest coefficient.
    """
    index = alg.index
    den = math.lcm(*(c.denominator for row in alg.table.values() for c in row.values()))
    pairs = [(index[x], index[y],
              [(index[g], c.numerator * (den // c.denominator)) for g, c in row.items()])
             for (x, y), row in alg.table.items()]
    by_rhs = {}
    for ia, iw, row in pairs:
        by_rhs.setdefault(iw, []).append((ia, row))
    sums = {}
    for ib, ic, bc in pairs:
        for iw, t in bc:
            for ia, aw in by_rhs.get(iw, ()):
                if ia < ib < ic:
                    key = (ia, ib, ic)
                elif ib < ic < ia:
                    key = (ib, ic, ia)
                elif ic < ia < ib:
                    key = (ic, ia, ib)
                else:  # a repeated generator, or an anticyclic order
                    continue
                acc = sums.setdefault(key, {})
                for g, u in aw:
                    acc[g] = acc.get(g, 0) + t * u
    worst, worst_key = 0, None
    for key, acc in sums.items():
        d = max(map(abs, acc.values()))
        if d > worst or (d == worst and d and key < worst_key):
            worst, worst_key = d, key
    names = tuple(alg.generators[i].name for i in worst_key) if worst_key else None
    return Fraction(worst, den * den), names


def assert_matches_reference(algebras):
    """jacobi_worst and jacobi_worst_reference give the same defect, of type
    Fraction, and the same triple on every algebra."""
    mismatched = []
    for alg in algebras:
        got, want = jacobi_worst(alg), jacobi_worst_reference(alg)
        if got != want or type(got[0]) is not Fraction:
            mismatched.append((alg.N, alg.dim, got, want))
    assert not mismatched


def admissible_members(top):
    """Every member up to N = top that build_algebra builds, central and plain,
    without Ds."""
    for N in range(1, top + 1):
        for dim in (2, 3):
            yield build_algebra(N, dim, central=False)
            if (N % 2, dim) in ((1, 3), (0, 2)):
                yield build_algebra(N, dim, central=True)


def every_mutant(base):
    """Every flip_constant mutant (one per unordered pair) and every
    break_antisymmetry mutant (one per stored order) of base."""
    for x, y in base.table:
        if base.index[x] < base.index[y]:
            yield flip_constant(base, x.name, y.name)
        yield break_antisymmetry(base, x.name, y.name)


@pytest.mark.parametrize("mutate", [flip_constant, break_antisymmetry])
@pytest.mark.parametrize("N,dim", [(3, 3), (2, 2)])
def test_jacobi_worst_matches_oracle_on_every_mutant(N, dim, mutate):
    """Same defect and same triple as the dense oracle after corrupting any
    stored pair; dense_oracle_worst shares no code with jacobi_worst."""
    base = build_algebra(N, dim, central=True)
    pairs = list(base.table)
    if mutate is flip_constant:  # flips both orders, so one order per pair suffices
        pairs = [(x, y) for x, y in pairs if base.index[x] < base.index[y]]
    mismatched = []
    for x, y in pairs:
        bad = mutate(base, x.name, y.name)
        got, want = jacobi_worst(bad), dense_oracle_worst(bad)
        if got != want or type(got[0]) is not Fraction:
            mismatched.append((x.name, y.name, got, want))
    assert not mismatched


@pytest.mark.parametrize("N,dim,pair", [(3, 3, ("D", "C1_1")), (2, 2, ("D", "C0_2"))])
def test_jacobi_worst_matches_oracle_over_a_new_common_denominator(N, dim, pair):
    """One D-C row, in both orders, times 1/3: the constants are scaled to a
    denominator the clean table does not have, and the sparse sums still give
    the per-triple oracle's defect and triple."""
    base = build_algebra(N, dim, central=True)
    x, y = base.generator(pair[0]), base.generator(pair[1])
    table = dict(base.table)
    for key in ((x, y), (y, x)):
        table[key] = {g: c * Fraction(1, 3) for g, c in table[key].items()}
    bad = replace(base, table=table)

    def common_denominator(alg):
        return math.lcm(*(c.denominator for row in alg.table.values() for c in row.values()))

    assert common_denominator(bad) == 3 * common_denominator(base)
    got = jacobi_worst(bad)
    assert got[0] > 0
    assert got == oracle_worst(bad)
    assert got == dense_oracle_worst(bad)
    assert_matches_reference([bad])


def test_jacobi_worst_matches_the_reference_on_every_member():
    assert_matches_reference(admissible_members(31))
    assert_matches_reference([build_algebra(9, 3, central=False, with_ds=True)])


@pytest.mark.parametrize("N,dim", [(3, 3), (2, 2), (5, 3), (7, 3), (6, 2)])
def test_jacobi_worst_matches_the_reference_on_every_mutant(N, dim):
    assert_matches_reference(every_mutant(build_algebra(N, dim, central=True)))


@pytest.mark.parametrize("rows", [False, True])
def test_jacobi_worst_of_an_empty_table(rows):
    """No stored pair, or only empty rows: nothing to sum, defect 0."""
    base = build_algebra(3, 3, central=True)
    empty = replace(base, table={key: {} for key in base.table} if rows else {})
    assert jacobi_worst(empty) == jacobi_worst_reference(empty) == (0, None)
    assert type(jacobi_worst(empty)[0]) is Fraction


def test_jacobi_detects_sign_flip():
    alg = build_algebra(3, 3, central=True)
    bad = flip_constant(alg, "C1_1", "C2_1")
    defect, triple = jacobi_worst(bad)
    assert defect > 0
    assert triple is not None


def test_single_axis_flip_breaks_rotation_jacobi():
    # even at N=1 a one-axis central flip is inconsistent with the J action
    alg = build_algebra(1, 3, central=True)
    bad = flip_constant(alg, "C0_1", "C1_1")
    assert jacobi_worst(bad)[0] > 0


def test_directional_flip_breaks_antisymmetry():
    alg = build_algebra(1, 3, central=True)
    bad = break_antisymmetry(alg, "C0_1", "C1_1")
    x, y = bad.generator("C0_1"), bad.generator("C1_1")
    assert bad.table[(x, y)] != {g: -c for g, c in bad.table[(y, x)].items()}


@pytest.mark.parametrize("spec", ACCEPTANCE_ALGEBRAS)
def test_structure_checks_clean(spec):
    want = {"jacobi": (0.0, ""), "antisymmetry": (0, "")}
    if spec[2]:
        want["mass_central"] = (0, "")
    checks = structure_checks(build_algebra(*spec))
    assert checks == want
    assert list(checks) == list(want)
    assert type(checks["jacobi"][0]) is float


def test_structure_checks_name_first_offender():
    alg = build_algebra(3, 3, central=True)
    flipped = flip_constant(alg, "C1_1", "C2_1")
    assert structure_checks(flipped)["jacobi"] == (12.0, "worst triple ('C0_1', 'C2_1', 'K')")
    assert jacobi_worst(flipped) == (12, ("C0_1", "C2_1", "K"))
    checks = structure_checks(break_antisymmetry(alg, "C3_1", "C0_1"))
    assert checks["antisymmetry"] == (2, "first offending pair (C0_1, C3_1)")
    M, H, K = alg.generator("M"), alg.generator("H"), alg.generator("K")
    table = dict(alg.table)
    table[(M, K)] = {K: Fraction(1)}
    table[(M, H)] = {H: Fraction(1)}
    loose = AlgebraSpec(N=3, dim=3, central=True, with_ds=False,
                        generators=alg.generators, table=table)
    assert structure_checks(loose)["mass_central"] == (2, "M does not commute with H")


def negation_oracle(alg):
    """The antisymmetry check by building each negated row as a dict."""
    asym = [(x, y) for (x, y), res in alg.table.items()
            if {g: -c for g, c in res.items()} != alg.table.get((y, x))]
    if not asym:
        return 0, ""
    x, y = min(asym, key=lambda xy: (alg.index[xy[0]], alg.index[xy[1]]))
    return len(asym), f"first offending pair ({x.name}, {y.name})"


@pytest.mark.parametrize("N,dim", [(3, 3), (2, 2)])
def test_antisymmetry_matches_the_negation_oracle_on_every_mutant(N, dim):
    base = build_algebra(N, dim, central=True)
    mismatched = []
    for x, y in base.table:
        bad = break_antisymmetry(base, x.name, y.name)
        got, want = structure_checks(bad)["antisymmetry"], negation_oracle(bad)
        if got != want or got[0] != 2:
            mismatched.append((x.name, y.name, got, want))
    assert not mismatched


@pytest.mark.parametrize("reverse", [
    {"C1_1": Fraction(-1, 2), "C2_1": Fraction(1)},  # an extra key
    {},                                               # the key missing
    {"C2_1": Fraction(-1, 2)},                        # another key, same length
    {"C1_1": Fraction(-1, 3)},                        # same numerator, other denominator
    {"C1_1": Fraction(1, 2)},                         # not negated
    {"C1_1": Fraction(-1, 2)},                        # the true reverse
])
def test_antisymmetry_matches_the_negation_oracle_on_hand_made_reverse_rows(reverse):
    base = build_algebra(3, 3, central=True)
    D, C = base.generator("D"), base.generator("C1_1")
    assert base.table[(D, C)] == {C: Fraction(1, 2)}
    table = dict(base.table)
    table[(C, D)] = {base.generator(g): c for g, c in reverse.items()}
    bad = replace(base, table=table)
    want = negation_oracle(bad)
    assert structure_checks(bad)["antisymmetry"] == want
    assert want[0] == (0 if reverse == {"C1_1": Fraction(-1, 2)} else 2)


def antisymmetry_reference(alg):
    """The antisymmetry check as a per-pair loop: a stored pair offends unless
    its reverse is stored, as long, and holds each of its entries with the
    numerator negated and the denominator kept."""
    def negates(rev, res):
        if rev is None or len(rev) != len(res):
            return False
        for g, c in res.items():
            r = rev.get(g)
            if r is None or r.numerator != -c.numerator or r.denominator != c.denominator:
                return False
        return True

    asym = [(x, y) for (x, y), res in alg.table.items()
            if not negates(alg.table.get((y, x)), res)]
    if not asym:
        return 0, ""
    x, y = min(asym, key=lambda xy: (alg.index[xy[0]], alg.index[xy[1]]))
    return len(asym), f"first offending pair ({x.name}, {y.name})"


@pytest.mark.parametrize("N,dim", [(3, 3), (2, 2), (5, 3), (7, 3), (6, 2)])
def test_antisymmetry_matches_the_reference_on_every_mutant(N, dim):
    mismatched = []
    for bad in every_mutant(build_algebra(N, dim, central=True)):
        got, want = structure_checks(bad)["antisymmetry"], antisymmetry_reference(bad)
        if got != want:
            mismatched.append((got, want))
    assert not mismatched


def test_structure_tensor_rounds_each_exact_constant_once():
    """The float tensor read from the integer view holds float(c) of every
    stored constant bit for bit, also over a common denominator of 6."""
    third = build_algebra(3, 3, central=True)
    table = {key: {g: c / 3 if g.kind == "C" else c for g, c in row.items()}
             for key, row in third.table.items()}
    algebras = [*admissible_members(31), replace(third, table=table)]
    for alg in algebras:
        n, index = len(alg.generators), alg.index
        want = np.zeros((n, n, n))
        for (x, y), row in alg.table.items():
            for z, c in row.items():
                want[index[x], index[z], index[y]] = float(c)
        assert want.tobytes() == alg.structure_tensor.tobytes(), (alg.N, alg.dim)
    assert algebras[-1]._integer_table[4] == 6


def hand_built(edit):
    """(3,3) central with edit(table, generator) applied to a copy of its table."""
    base = build_algebra(3, 3, central=True)
    table = dict(base.table)
    edit(table, base.generator)
    return replace(base, table=table)


@pytest.mark.parametrize("edit,count", [
    # (H, J1) stored alone: its reverse is missing
    (lambda t, g: t.update({(g("H"), g("J1")): {g("K"): Fraction(1)}}), 1),
    # an empty row whose reverse is not stored, and one whose empty reverse is
    (lambda t, g: t.update({(g("H"), g("J1")): {}}), 1),
    (lambda t, g: t.update({(g("H"), g("J1")): {}, (g("J1"), g("H")): {}}), 0),
    # an empty row whose reverse is stored with an entry: both offend
    (lambda t, g: t.update({(g("C1_1"), g("D")): {}}), 2),
    # the reverse of (D, C1_1) with one extra entry
    (lambda t, g: t.update({(g("C1_1"), g("D")): {g("C1_1"): Fraction(-1, 2),
                                                 g("M"): Fraction(3)}}), 2),
    # zero-valued constants: negatives of each other, or against a missing key
    (lambda t, g: t.update({(g("H"), g("J1")): {g("K"): Fraction(0)},
                            (g("J1"), g("H")): {g("K"): Fraction(0)}}), 0),
    (lambda t, g: t.update({(g("H"), g("J1")): {g("K"): Fraction(0)},
                            (g("J1"), g("H")): {g("D"): Fraction(0)}}), 2),
])
def test_antisymmetry_matches_the_reference_on_hand_built_tables(edit, count):
    bad = hand_built(edit)
    assert structure_checks(bad)["antisymmetry"] == antisymmetry_reference(bad)
    assert antisymmetry_reference(bad)[0] == count


def test_antisymmetry_of_an_empty_table():
    empty = replace(build_algebra(3, 3, central=True), table={})
    assert structure_checks(empty)["antisymmetry"] == (0, "")


@pytest.mark.parametrize("N,dim", [(3, 3), (2, 2)])
def test_mutants_leave_the_base_table_unchanged(N, dim):
    base = build_algebra(N, dim, central=True)
    before = {k: dict(v) for k, v in base.table.items()}
    for x, y in before:
        for mutate in (flip_constant, break_antisymmetry):
            bad = mutate(base, x.name, y.name)
            flipped = {(x, y), (y, x)} if mutate is flip_constant else {(x, y)}
            assert {k for k in bad.table if bad.table[k] != base.table[k]} == flipped
    assert base.table == before
    assert jacobi_worst(base)[0] == 0
    assert structure_checks(base)["antisymmetry"] == (0, "")


def test_flip_constant_needs_a_stored_bracket():
    alg = build_algebra(1, 3, central=True)
    for mutate in (flip_constant, break_antisymmetry):
        with pytest.raises(GalconfError, match=r"^no stored bracket for \(C0_1, C0_2\)$"):
            mutate(alg, "C0_1", "C0_2")


def test_algebra_suite_catches_a_wrong_mass_weight():
    """A mass row scaled by 2 in both orders keeps antisymmetry; the
    magnitude case counts its two stored orders."""
    def factory(n, d, c, ds):
        a = build_algebra(n, d, c, ds)
        if (n, d, c) != (3, 3, True):
            return a
        x, y = a.generator("C1_2"), a.generator("C2_2")
        table = dict(a.table)
        for key in ((x, y), (y, x)):
            table[key] = {g: 2 * v for g, v in table[key].items()}
        return replace(a, table=table)

    report = run_suites("algebra", algebra_factory=factory)
    cases = {c["name"]: c for c in report["suites"]["algebra"]}
    assert cases["cc_magnitude_N3_dim3"]["defect"] == 2.0
    assert not cases["cc_magnitude_N3_dim3"]["passed"]
    assert cases["antisymmetry_N3_dim3_central"]["passed"]
    assert {name for name, case in cases.items() if not case["passed"]} == \
        {"jacobi_N3_dim3_central", "cc_magnitude_N3_dim3"}


def test_levi_civita_matches_the_literal_tables():
    """Every tuple of two or three axes from 0..4, so repeated and
    out-of-range axes too; any other number of axes is 0."""
    for table, n in ((EPS2, 2), (EPS3, 3)):
        for axes in product(range(5), repeat=n):
            assert levi_civita(*axes) == table.get(axes, 0), axes
    assert levi_civita() == levi_civita(1) == levi_civita(1, 2, 3, 4) == 0
    assert algebra.EPS2.tolist() == [[0.0, 1.0], [-1.0, 0.0]]


@pytest.mark.parametrize("N,dim", [(3, 3), (5, 3), (2, 2), (4, 2)])
def test_rotation_rows_match_the_literal_signs(N, dim):
    """[J_i, J_k] = eps_ikl J_l and [J_i, C_j^k] = eps_ikl C_j^l in dimension
    3, [J, C_j^a] = eps^{ab} C_j^b in dimension 2, and no other J row."""
    alg = build_algebra(N, dim, central=True)
    got = {(x.name, y.name): names(row) for (x, y), row in alg.table.items() if x.kind == "J"}
    want = {}
    for j in range(N + 1):
        if dim == 3:
            for (i, k, l), e in EPS3.items():
                want[f"J{i}", f"J{k}"] = {f"J{l}": e}
                want[f"J{i}", f"C{j}_{k}"] = {f"C{j}_{l}": e}
        else:
            for (a, b), e in EPS2.items():
                want["J", f"C{j}_{a}"] = {f"C{j}_{b}": e}
    assert got == want


def test_algebra_suite_locates_broken_antisymmetry():
    def factory(n, d, c, ds):
        a = build_algebra(n, d, c, ds)
        return break_antisymmetry(a, "C1_2", "C2_2") if (n, d, c) == (3, 3, True) else a

    cases = {c["name"]: c for c in run_suites("algebra", algebra_factory=factory)["suites"]["algebra"]}
    case = cases["antisymmetry_N3_dim3_central"]
    assert not case["passed"]
    assert case["detail"] == "first offending pair (C1_2, C2_2)"
    assert cases["mass_central_N3_dim3"] == {
        "name": "mass_central_N3_dim3", "defect": 0.0, "allowed": 0.0,
        "passed": True, "detail": ""}


@pytest.mark.parametrize("N,dim", [(2, 3), (4, 3), (1, 2), (3, 2)])
def test_unsupported_central_extension(N, dim):
    with pytest.raises(UnsupportedExtension):
        build_algebra(N, dim, central=True)


@pytest.mark.parametrize("N,dim,says", [
    (2, 3, "no central extension for N=2, dim=3"),
    (3, 2, "galconf does not build the central extension for N=3, dim=2"),
])
def test_unsupported_central_extension_message(N, dim, says):
    with pytest.raises(UnsupportedExtension, match=says):
        build_algebra(N, dim, central=True)


@pytest.mark.parametrize("N,eps_defect", [(1, 2), (3, 8), (5, 72)])
def test_planar_odd_member_exists_with_the_delta_pairing(monkeypatch, N, eps_defect):
    """(N odd, dim 2) is left out, not absent: with check_family bypassed, the
    delta_ab tower pairing gives a clean table, and the eps^{ab} pairing of
    the N-even members a nonzero Jacobi defect."""
    monkeypatch.setattr(algebra, "check_family", lambda *args: None)
    assert jacobi_worst(build_algebra(N, 2, central=True))[0] == eps_defect
    monkeypatch.setattr(algebra, "tower_form", lambda dim, a, b: int(a == b))
    delta = build_algebra(N, 2, central=True)
    assert jacobi_worst(delta) == (0, None)
    assert structure_checks(delta) == {"jacobi": (0.0, ""), "antisymmetry": (0, ""),
                                       "mass_central": (0, "")}


def test_central_with_ds_rejected():
    with pytest.raises(UnsupportedExtension):
        build_algebra(1, 3, central=True, with_ds=True)


def test_bad_dimension():
    with pytest.raises(BadDimension):
        build_algebra(1, 4, central=False)
    with pytest.raises(BadDimension):
        build_algebra(0, 3, central=False)


@pytest.mark.parametrize("N,dim", [(True, 3), (False, 3), (1, 3.0), (2, 2.0), (1, True)])
def test_bad_dimension_types(N, dim):
    """A boolean N or dim, or a float dim, is rejected; build_algebra(True, 3,
    True) used to return an algebra whose N is True, and a float dim raised a
    raw TypeError."""
    with pytest.raises(BadDimension):
        build_algebra(N, dim, central=True)


def test_space_dilatation_rows():
    alg = build_algebra(3, 3, central=False, with_ds=True)
    Ds = single(alg, "Ds")
    for j in range(4):
        got = names(bracket(alg, Ds, single(alg, f"C{j}_2")))
        assert got == {f"C{j}_2": 1}
    for other in ("H", "D", "K", "J1"):
        assert bracket(alg, Ds, single(alg, other)) == {}


def test_unknown_generator():
    alg = build_algebra(1, 3, central=True)
    with pytest.raises(UnknownGenerator):
        alg.generator("Ds")
    other = build_algebra(3, 3, central=True)
    with pytest.raises(UnknownGenerator):
        bracket(alg, {other.generator("C3_1"): Fraction(1)}, single(alg, "H"))


@pytest.mark.parametrize("name", [
    "Cx_1", "C1", "C_1", "C1_", "C1_1_1", "C-1_1", "C01_1", "C1_0", "C 1_1",
    "Jx", "J-1", "J0", "J01", "X", ""])
def test_malformed_generator_names(name):
    with pytest.raises(UnknownGenerator):
        parse_generator(name)
    with pytest.raises(UnknownGenerator):
        build_algebra(3, 3, central=True).generator(name)


@pytest.mark.parametrize("N,dim", [(3, 3), (2, 2)])
def test_generator_hash_and_name_round_trip(N, dim):
    alg = build_algebra(N, dim, central=True)
    for g in alg.generators:
        assert hash(g) == hash((g.kind, g.axis, g.level))
        assert parse_generator(g.name) == g
        assert alg.index[parse_generator(g.name)] == alg.index[g]
    for (x, y), row in alg.table.items():
        assert alg.table[(parse_generator(x.name), parse_generator(y.name))] is row


@pytest.mark.parametrize("name", ["J1", "J", "C0_2", "C3_1", "H", "M", "Ds"])
def test_generator_id_copies_rehash(name):
    g = parse_generator(name)
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert twin == g and hash(twin) == hash(g) == hash((g.kind, g.axis, g.level))


def test_generator_id_pickled_in_another_process_hashes_here():
    """String hashes differ between processes, so the hash must not travel."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    code = ("import pickle, sys; from galconf.algebra import build_algebra; "
            "sys.stdout.buffer.write(pickle.dumps(build_algebra(3, 3, True).generators))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, timeout=60).stdout
    here = build_algebra(3, 3, central=True)
    for g in pickle.loads(out):
        assert hash(g) == hash((g.kind, g.axis, g.level))
        assert here.index[g] == here.generators.index(g)


def test_generator_id_is_a_frozen_named_tuple():
    g = parse_generator("C3_1")
    assert (g.kind, g.axis, g.level) == ("C", 1, 3)
    assert g.name == repr(g) == str(g) == "C3_1"
    assert [repr(parse_generator(n)) for n in ("J", "J2", "H", "Ds")] == ["J", "J2", "H", "Ds"]
    for field in ("kind", "axis", "level", "name"):
        with pytest.raises(AttributeError):
            setattr(g, field, None)


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_generator_order_in_sets_is_that_of_plain_tuples(seed):
    """A set of generators has the order of the set of their plain
    (kind, axis, level) tuples, so they hash as those tuples do, and the
    index keeps generator order.  Checked in a fresh process per hash seed;
    hash(None) differs between processes, so the orders are compared within
    one."""
    code = ("import json; from galconf.algebra import build_algebra, GeneratorId; "
            "out = []\n"
            "for N, dim in ((3, 3), (2, 2)):\n"
            "    alg = build_algebra(N, dim, True)\n"
            "    plain = [tuple(g) for g in alg.generators]\n"
            "    out.append([list(set(alg.generators)) == [GeneratorId(*t) for t in set(plain)],\n"
            "                list(alg.index) == list(alg.generators)])\n"
            "print(json.dumps(out))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, timeout=60).stdout
    assert json.loads(out) == [[True, True], [True, True]]


@pytest.mark.parametrize("N,dim,central,ds", [(3, 3, True, False), (2, 2, True, False),
                                              (4, 3, False, True)])
def test_one_build_shares_equal_constants_and_two_builds_share_none(N, dim, central, ds):
    def constants(alg):
        return [c for row in alg.table.values() for c in row.values()]

    one, two = build_algebra(N, dim, central, ds), build_algebra(N, dim, central, ds)
    by_value = {}
    for c in constants(one):
        by_value.setdefault(c, set()).add(id(c))
    assert all(len(ids) == 1 for ids in by_value.values())
    assert len(by_value) > 1
    assert not {id(c) for c in constants(one)} & {id(c) for c in constants(two)}


# numeric strings and bools too, which Fraction would parse or read as 0/1
BAD_COEFFICIENTS = [float("nan"), float("inf"), "x", None, "1/2", " 3 ", True, False]


@pytest.mark.parametrize("value", BAD_COEFFICIENTS)
def test_element_rejects_a_bad_coefficient(alg1, value):
    with pytest.raises(InvalidState):
        alg1.element({"H": value})


@pytest.mark.parametrize("value", BAD_COEFFICIENTS)
def test_bracket_rejects_a_bad_coefficient(alg1, value):
    """In either argument, also where the pair has no stored bracket."""
    H, K = alg1.generator("H"), alg1.generator("K")
    with pytest.raises(InvalidState):
        bracket(alg1, {H: value}, {K: 1})
    with pytest.raises(InvalidState):
        bracket(alg1, {K: 1}, {H: value})
    with pytest.raises(InvalidState):
        bracket(alg1, {H: 1}, {H: value})


def test_bracket_checks_every_term_of_x_then_of_y(alg1):
    """X is checked before Y, so an unknown generator in X is reported before
    a bad coefficient in Y; Y is checked also when X is empty."""
    H = alg1.generator("H")
    unknown = build_algebra(3, 3, central=True).generator("C3_1")
    with pytest.raises(UnknownGenerator):
        bracket(alg1, {unknown: 1}, {H: float("nan")})
    with pytest.raises(InvalidState):
        bracket(alg1, {H: float("nan")}, {unknown: 1})
    with pytest.raises(UnknownGenerator):
        bracket(alg1, {}, {unknown: 1})
    with pytest.raises(InvalidState):
        bracket(alg1, {}, {H: None})


def test_bracket_of_element_with_itself_vanishes(alg1):
    X = alg1.element({"H": 2, "D": Fraction(1, 3), "C0_1": -1, "J2": 5})
    assert bracket(alg1, X, X) == {}


@settings(max_examples=25, deadline=None)
@given(a=st.integers(-4, 4), b=st.integers(-4, 4), c=st.integers(-4, 4))
def test_bracket_bilinear(a, b, c):
    alg = build_algebra(1, 3, central=True)
    X = alg.element({"D": a})
    Y = alg.element({"H": b, "K": c})
    lhs = bracket(alg, X, Y)
    want = {}
    for nm, coeff in (("H", a * b), ("K", -a * c)):
        if coeff:
            want[alg.generator(nm)] = Fraction(coeff)
    assert lhs == want


class TestConformalBasis:
    def test_printed_example(self):
        assert conformal_basis(1, 0, 1) == (1, 0, 0)

    def test_zero(self):
        assert conformal_basis(0, 0, 0) == (0, 0, 0)

    def test_roundtrip_exact(self):
        h, d, k = Fraction(3, 7), Fraction(-1, 5), Fraction(11, 4)
        assert conformal_basis_inverse(conformal_basis(h, d, k)) == (h, d, k)

    def test_so21_closure(self, alg1):
        Ns = so21_basis(alg1)
        for a in range(3):
            for b in range(3):
                got = bracket(alg1, Ns[a], Ns[b])
                want = {}
                for g in range(3):
                    e = so21_epsilon_lower(a, b, g)
                    if e:
                        for gid, coeff in Ns[g].items():
                            want[gid] = want.get(gid, Fraction(0)) + e * coeff
                assert got == {k: v for k, v in want.items() if v}


def test_dump_contains_directed_rows(alg1):
    data = dump_table(alg1)
    assert data["schema_version"] == 1
    rows = {(r["lhs"], r["rhs"]): r["results"] for r in data["brackets"]}
    assert rows[("D", "H")] == [{"gen": "H", "num": 1, "den": 1}]
    assert rows[("H", "D")] == [{"gen": "H", "num": -1, "den": 1}]
    # antisymmetry is visible in the dump
    for (lhs, rhs), res in rows.items():
        mirrored = {(r["gen"], r["den"]): r["num"] for r in rows[(rhs, lhs)]}
        for r in res:
            assert mirrored[(r["gen"], r["den"])] == -r["num"]
