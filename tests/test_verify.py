"""Tests for the self-verification checks and their runner: a check must still
catch a wrong answer, must look at its whole universe, and must not redo work
per index that is done per orientation; the runner must count cases and fail a
check that examined none."""

from __future__ import annotations

import pytest

from arquiver import verify
from arquiver.dorey import DoreyTriple, DoreyVerdict, EmbedResult
from arquiver.quiver import ConvexPartialOrder, DynkinQuiver, all_orientations
from arquiver.rootsys import FiniteType
from arquiver.sequiver import LabeledQuiver, SchurWeylDatum
from arquiver.spectral import AffineType, SpectralParam, p_star
from test_acceptance import VERIFY_CASES

A3 = FiniteType("A", 3)
D5_Q = all_orientations(FiniteType("D", 5))[5]


def _shift_one_m(monkeypatch, target: DynkinQuiver, i: int) -> None:
    """Make ``_m_table`` return m_i + 1 for ``target`` and the true table elsewhere."""
    true_table = verify._m_table

    def perturbed(q: DynkinQuiver) -> dict[int, int]:
        m = true_table(q)
        if q == target:
            m = {**m, i: m[i] + 1}
        return m

    monkeypatch.setattr(verify, "_m_table", perturbed)


@pytest.mark.parametrize(
    "target, i, expected",
    [
        # 1 -> 2 <- 3 is not linear: only the box-size sum sees it.
        (DynkinQuiver(A3, ((1, 2), (3, 2))), 1, "A3 ((1, 2), (3, 2)): box sizes"),
        # 1 -> 2 -> 3 is linear: the closed form m_i = n - i sees it first.
        (DynkinQuiver(A3, ((1, 2), (2, 3))), 2, "A3 ((1, 2), (2, 3)): m_2 = 2"),
        (D5_Q, 4, f"D5 {D5_Q.arrows}: box sizes"),
    ],
    ids=["A-nonlinear", "A-linear", "D"],
)
def test_m_values_catches_a_shifted_row_length(monkeypatch, target, i, expected):
    _shift_one_m(monkeypatch, target, i)
    report = verify.run_check("m_values")
    assert not report.passed
    assert report.counterexample.startswith(expected)


def test_m_values_builds_one_table_per_orientation_visited(monkeypatch):
    calls = []
    true_table = verify._m_table

    def counting(q: DynkinQuiver) -> dict[int, int]:
        calls.append(q)
        return true_table(q)

    monkeypatch.setattr(verify, "_m_table", counting)
    assert verify.run_check("m_values").passed
    # Each linear A_n quiver and its reverse are visited twice: once against
    # the closed form, once in the sweep over all orientations.
    visited = sum(len(all_orientations(FiniteType("A", n))) + 2 for n in range(2, 11))
    visited += sum(len(all_orientations(FiniteType("D", n))) for n in range(4, 11))
    assert visited == 2056
    assert len(calls) <= visited


def _patch_table(monkeypatch, g: AffineType, k: int, l: int, edit) -> None:
    """Make ``denominator_roots_raw`` return an edited d_{k,l} for one type."""
    true_roots = verify.denominator_roots_raw

    def patched(g2: AffineType, k2: int, l2: int):
        roots = true_roots(g2, k2, l2)
        if (g2, k2, l2) == (g, k, l):
            roots = dict(roots)
            edit(roots)
        return roots

    monkeypatch.setattr(verify, "denominator_roots_raw", patched)


A1_4 = AffineType("A", 1, 4)
D1_4 = AffineType("D", 1, 4)
D1_STAR = (p_star(D1_4).zeta, p_star(D1_4).m)


@pytest.mark.parametrize(
    "g, k, l, edit, expected",
    [
        # 1* = 4 and 2* = 3 on A1 N=4: an extra zero at q^4 breaks d_{1,2} = d_{4,3}.
        (A1_4, 1, 2, lambda r: r.update({(0, 4): 1}), "A1 N=4 d_{1,2}: differs from d_{k*,l*}"),
        # D1 N=4 is self-dual, so the symmetry holds and p* is caught.
        (D1_4, 1, 2, lambda r: r.update({D1_STAR: 1}), "D1 N=4 d_{1,2}: zero order 1 at p*, want 0"),
        (D1_4, 1, 1, lambda r: r.update({D1_STAR: 2}), "D1 N=4 d_{1,1}: zero order 2 at p*, want 1"),
        (D1_4, 2, 2, lambda r: r.update({(0, 0): 1}), "D1 N=4 d_{2,2}: zero at q-power 0 outside 1..6"),
    ],
    ids=["symmetry", "p-star-extra", "p-star-double", "q-power-range"],
)
def test_denominator_structure_catches_an_edited_table(monkeypatch, g, k, l, edit, expected):
    assert verify.run_check("denominator_structure").passed
    _patch_table(monkeypatch, g, k, l, edit)
    assert verify.run_check("denominator_structure").counterexample == expected


def test_denominator_structure_reads_every_table(monkeypatch):
    seen = set()
    true_roots = verify.denominator_roots_raw

    def counting(g: AffineType, k: int, l: int):
        seen.add((g, k, l))
        return true_roots(g, k, l)

    monkeypatch.setattr(verify, "denominator_roots_raw", counting)
    assert verify.run_check("denominator_structure").passed
    assert len(seen) == 4619


def test_available_checks_keep_their_names_and_order():
    assert verify.available_checks() == tuple(VERIFY_CASES)


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_a_check_that_examines_no_cases_fails(monkeypatch, name):
    universe, _ = verify._CHECKS[name]
    monkeypatch.setitem(verify._CHECKS, name, (universe, lambda: iter(())))
    report = verify.run_check(name)
    assert (report.passed, report.counterexample, report.cases) == (
        False, "examined no cases", 0
    )
    assert report.universe == universe


def test_the_runner_counts_cases_and_stops_at_the_first_failure(monkeypatch):
    seen = []

    def cases():
        for n in range(5):
            seen.append(n)
            yield f"case {n}", "too big" if n >= 2 else None

    monkeypatch.setitem(verify._CHECKS, "pole_class", ("u", cases))
    report = verify.run_check("pole_class")
    assert (report.passed, report.counterexample, report.cases) == (False, "case 2: too big", 3)
    assert seen == [0, 1, 2]


def test_an_assertion_inside_a_check_is_an_invariant_violation(monkeypatch):
    def broken(g, i, j, k):
        raise AssertionError(f"overlapping conditions at {g.code} {(i, j, k)}")

    monkeypatch.setattr(verify, "_candidate_conditions", broken)
    report = verify.run_check("pole_class")
    assert not report.passed
    assert report.counterexample == "invariant violated: overlapping conditions at A1 (1, 1, 1)"


@pytest.mark.parametrize("name", ["dorey_bruteforce_agree", "pole_class"])
def test_overlapping_conditions_are_an_invariant_violation(monkeypatch, name):
    """With every index pair a spin pair, D1 N=4 (1, 1, 2) meets the D-i and
    the D-iii clauses at one ratio pair, and _candidate_conditions raises."""
    monkeypatch.setattr(verify, "_spin_pair", lambda vals, n: True)
    report = verify.run_check(name)
    assert report.passed is False
    assert report.counterexample == "invariant violated: overlapping conditions at D1 (1, 1, 2)"


def test_an_unknown_check_name_is_rejected():
    with pytest.raises(ValueError) as info:
        verify.run_check("nope")
    assert str(info.value) == f"unknown check 'nope'; available: {', '.join(VERIFY_CASES)}"


# Injected defects for the checks that guard Gamma_Q, the adapted order and
# the Schur-Weyl datum: each patches one library function as the check reads
# it, wrong at one orientation only.


def _drop_one_pair(monkeypatch, name: str, target: DynkinQuiver) -> None:
    """Make the order verify builds with ``name`` lose one pair at ``target``."""
    true_order = getattr(verify, name)

    def perturbed(ar):
        order = true_order(ar)
        if ar.quiver == target:
            order = ConvexPartialOrder(order.roots, order.pairs - {min(order.pairs)})
        return order

    monkeypatch.setattr(verify, name, perturbed)


@pytest.mark.parametrize("name", ["convex_order_Q", "gamma_path_order"])
def test_order_eq_paths_catches_a_dropped_pair(monkeypatch, name):
    _drop_one_pair(monkeypatch, name, D5_Q)
    report = verify.run_check("order_eq_paths")
    assert report.passed is False
    assert report.counterexample == f"D5 {D5_Q.arrows}: coordinate and path orders differ"


def test_adapted_refines_catches_a_word_that_is_not_adapted(monkeypatch):
    """The w0 word of the opposite orientation starts at a sink of Q."""
    true_word = verify.adapted_word
    monkeypatch.setattr(
        verify, "adapted_word",
        lambda q, target: true_word(q.reverse() if q == D5_Q else q, target),
    )
    report = verify.run_check("adapted_refines")
    assert report.passed is False
    assert report.counterexample == f"D5 {D5_Q.arrows}: greedy longest word is not adapted"


def test_adapted_refines_catches_an_order_that_is_not_convex(monkeypatch):
    """The highest root moved to the front, ahead of the two roots it sums."""
    true_sequence = verify.root_sequence
    word = verify.adapted_word(D5_Q, "w0")

    def perturbed(t, w):
        seq = true_sequence(t, w)
        if tuple(w) == word:
            top = max(seq, key=sum)
            seq = (top,) + tuple(r for r in seq if r != top)
        return seq

    monkeypatch.setattr(verify, "root_sequence", perturbed)
    report = verify.run_check("adapted_refines")
    assert report.passed is False
    assert report.counterexample == f"D5 {D5_Q.arrows}: adapted total order is not convex"


def test_adapted_refines_catches_a_late_pair(monkeypatch):
    """The Q-order gains the pair (last root, first root) of the adapted
    order, which the adapted order places late.  Comparing a root's position
    with its own passes this case, so the check must compare both roots."""
    true_order = verify.convex_order_Q
    seq = verify.root_sequence(D5_Q.ftype, verify.adapted_word(D5_Q, "w0"))

    def perturbed(ar):
        order = true_order(ar)
        if ar.quiver == D5_Q:
            order = ConvexPartialOrder(order.roots, order.pairs | {(seq[-1], seq[0])})
        return order

    monkeypatch.setattr(verify, "convex_order_Q", perturbed)
    report = verify.run_check("adapted_refines")
    assert report.passed is False
    assert report.counterexample == (
        f"D5 {D5_Q.arrows}: adapted order places {seq[-1]} after {seq[0]}"
    )


def test_se_j_equals_qrev_catches_a_dropped_arrow(monkeypatch):
    """The twisted datum of D5_Q at base (2, 0) loses its first arrow."""
    true_datum = verify.schur_weyl_quiver

    def perturbed(ar, t):
        sw = true_datum(ar, t)
        if ar.quiver == D5_Q and ar.height[2] == 0 and t == 2:
            lq = LabeledQuiver(sw.quiver.vertices, sw.quiver.arrows[1:])
            sw = SchurWeylDatum(sw.entries, sw.s, sw.X, lq, sw.cartan, sw.qexp)
        return sw

    monkeypatch.setattr(verify, "schur_weyl_quiver", perturbed)
    report = verify.run_check("se_j_equals_qrev")
    want = sorted((str(b), str(a)) for a, b in D5_Q.arrows)
    assert report.passed is False
    assert report.counterexample == (
        f"D5 {D5_Q.arrows} base=(2,0) t=2: got {want[1:]}, want {want}"
    )


# Injected defects for the checks that guard the minimal pairs and the fold:
# one per failure branch, each wrong at one orientation or one type only.

A4_Q = all_orientations(FiniteType("A", 4))[3]
A4_AT = f"A4 {A4_Q.arrows}"


def _first_pair_case(q: DynkinQuiver) -> str:
    """The label of the first minimal-pair case minimal_pairs_dorey reads at q."""
    order = verify._w0_order(q)
    alpha, pair = next((a, p) for a in order for p in verify.minimal_pairs(order, a))
    return f"A4 {q.arrows} alpha={alpha} pair={pair}"


def _at_target(monkeypatch, name: str, wrong) -> None:
    """Make verify's ``name`` (a verdict) answer ``wrong(*args)`` while the
    check reads the minimal-pair triples of A4_Q, and truly elsewhere."""
    true_fn, true_triple, at = getattr(verify, name), verify.minimal_pair_triple, []

    def tracking(ar, alpha, pair, t=1):
        at[:] = [ar.quiver]
        return true_triple(ar, alpha, pair, t)

    monkeypatch.setattr(verify, "minimal_pair_triple", tracking)
    monkeypatch.setattr(
        verify, name, lambda *args: wrong(*args) if at == [A4_Q] else true_fn(*args)
    )


def test_minimal_pairs_dorey_catches_an_order_that_is_not_the_words(monkeypatch):
    true_order = verify._w0_order
    monkeypatch.setattr(
        verify, "_w0_order", lambda q: true_order(q)[::-1] if q == A4_Q else true_order(q)
    )
    report = verify.run_check("minimal_pairs_dorey")
    assert report.passed is False
    assert report.counterexample == f"{A4_AT}: w0 order is not its word's root sequence"


def test_minimal_pairs_dorey_compares_the_order_with_a_fresh_sequence(monkeypatch):
    """root_sequence's memo hands a tuple word's sequence back as the very
    object _w0_order(q) holds, and an order compared with itself always
    passes: no sequence the check compares may be one of those objects."""
    true_order, true_sequence, orders, sequences = verify._w0_order, verify.root_sequence, [], []

    def recording_order(q):
        orders.append(true_order(q))
        return orders[-1]

    def recording_sequence(t, word):
        sequences.append(true_sequence(t, word))
        return sequences[-1]

    monkeypatch.setattr(verify, "_w0_order", recording_order)
    monkeypatch.setattr(verify, "root_sequence", recording_sequence)
    report = verify.run_check("minimal_pairs_dorey")
    assert (report.passed, report.cases) == (True, VERIFY_CASES["minimal_pairs_dorey"])
    assert len(sequences) == len(orders) == 118  # every orientation of A2-A6 and D4-D6
    held = set(map(id, orders))
    assert not [seq for seq in sequences if id(seq) in held]


def test_minimal_pairs_dorey_catches_a_failing_triple_construction(monkeypatch):
    true_triple = verify.minimal_pair_triple

    def broken(ar, alpha, pair, t=1):
        if ar.quiver == A4_Q:
            raise AssertionError("pair is not minimal")
        return true_triple(ar, alpha, pair, t)

    monkeypatch.setattr(verify, "minimal_pair_triple", broken)
    report = verify.run_check("minimal_pairs_dorey")
    assert report.passed is False
    assert report.counterexample == f"{_first_pair_case(A4_Q)}: pair is not minimal"


def test_minimal_pairs_dorey_catches_a_tag_of_the_other_family(monkeypatch):
    _at_target(monkeypatch, "dorey_untwisted", lambda triple: DoreyVerdict(True, "D-i"))
    report = verify.run_check("minimal_pairs_dorey")
    assert report.passed is False
    assert report.counterexample == f"{_first_pair_case(A4_Q)}: tag D-i"


def test_minimal_pairs_dorey_catches_a_failing_folded_triple(monkeypatch):
    _at_target(monkeypatch, "dorey_twisted", lambda triple: DoreyVerdict(False))
    report = verify.run_check("minimal_pairs_dorey")
    assert report.passed is False
    assert report.counterexample == f"{_first_pair_case(A4_Q)}: folded triple fails"


A1_4_DOM = verify.se0_window(A1_4, 16)
A2_4 = A1_4.partner()


def test_pi_iso_on_se0_catches_a_fold_that_is_not_injective(monkeypatch):
    """The first Se0 class of A1 N=4 lands on the image of the second."""
    true_pi, (v, w) = verify.pi, A1_4_DOM[:2]
    monkeypatch.setattr(
        verify, "pi",
        lambda g, i, x: true_pi(g, w.i, w.x) if (g, i, x) == (A1_4, v.i, v.x) else true_pi(g, i, x),
    )
    report = verify.run_check("pi_iso_on_se0")
    assert report.passed is False
    assert report.counterexample == "A1 N=4: fold not injective on the Se0 window"


def test_pi_iso_on_se0_catches_an_image_that_is_not_the_twisted_window(monkeypatch):
    """The twisted Se0 window of A2 N=4 loses its last class."""
    true_window = verify.se0_window
    monkeypatch.setattr(
        verify, "se0_window",
        lambda g, bound: true_window(g, bound)[:-1] if g == A2_4 else true_window(g, bound),
    )
    report = verify.run_check("pi_iso_on_se0")
    assert report.passed is False
    assert report.counterexample == "A1 N=4: fold image is not the twisted Se0 window"


def test_pi_iso_on_se0_catches_a_multiplicity_that_changes(monkeypatch):
    """Every twisted multiplicity of A2 N=4 gains one: the first ordered pair
    of the untwisted window sees it."""
    true_mult = verify.class_arrow_mult
    monkeypatch.setattr(
        verify, "class_arrow_mult", lambda v, w: true_mult(v, w) + (v.g == A2_4)
    )
    report = verify.run_check("pi_iso_on_se0")
    v, w = A1_4_DOM[:2]
    assert report.passed is False
    assert report.counterexample == (
        f"A1 N=4: multiplicity changes under the fold at {v} -> {w}"
    )


# Injected defects for the checks that guard the fold and the Dorey rule:
# one per failure branch, each wrong at an early case.  The fold checks start
# at A1 N=2, whose twisted partner A2 N=2 has the one index 1; the Dorey
# checks start at A1 N=2 (1, 1, 1), and the first holding triple is
# (1, 1, 2) with x/z = (-q)^-1 and y/z = (-q)^1, tag A-i.

A1_2 = AffineType("A", 1, 2)
A2_2 = A1_2.partner()
FIRST_CLASS = verify.vertex_class(A2_2, 1, SpectralParam(0, -8))  # A2 N=2 (1,q^-8)
RX, RY = (2, -1), (2, 1)  # the A-i ratios of A1 N=2 (1, 1, 2) as (zeta, m)
FIRST_HOLDING = DoreyTriple(
    A1_2, (1, SpectralParam(*RX)), (1, SpectralParam(*RY)), (2, SpectralParam.one())
)


def _patch_at(monkeypatch, name: str, case, wrong) -> None:
    """Make verify's ``name`` answer ``wrong(true answer)`` at the argument
    ``case`` and truly elsewhere."""
    true_fn = getattr(verify, name)
    monkeypatch.setattr(
        verify, name, lambda arg: wrong(true_fn(arg)) if arg == case else true_fn(arg)
    )


def test_pi_two_to_one_catches_a_fibre_of_the_wrong_size(monkeypatch):
    _patch_at(monkeypatch, "pi_preimages", FIRST_CLASS, lambda fibre: fibre[:1])
    report = verify.run_check("pi_two_to_one")
    assert report.passed is False
    assert report.counterexample == (
        "A2 N=2 (1,q^-8): fiber of 1:q^-8 is ((1, SpectralParam(zeta=0, m=-8)),)"
    )


def test_pi_two_to_one_catches_a_stray_preimage(monkeypatch):
    """The second point (2, q^-8) of the fibre moves to (2, q^-6)."""
    _patch_at(
        monkeypatch, "pi_preimages", FIRST_CLASS,
        lambda fibre: (fibre[0], (2, SpectralParam(0, -6))),
    )
    report = verify.run_check("pi_two_to_one")
    assert report.passed is False
    assert report.counterexample == "A2 N=2 (1,q^-8): (2,q^-6) does not fold onto 1:q^-8"


def test_pi_two_to_one_catches_a_point_missing_from_its_fibre(monkeypatch):
    """A fibre that is whole when first read and loses its second point on
    every later read, as a shared memo that a caller edited would.  The
    classes are read once each, so only the sweep over the untwisted points,
    which reads every fibre again, sees it."""
    true_preimages, reads = verify.pi_preimages, []

    def forgetful(v):
        fibre = true_preimages(v)
        if v == FIRST_CLASS:
            reads.append(v)
            return fibre[:1] if len(reads) > 1 else fibre
        return fibre

    monkeypatch.setattr(verify, "pi_preimages", forgetful)
    report = verify.run_check("pi_two_to_one")
    assert report.passed is False
    assert report.counterexample == "A1 N=2 (2,q^-8): missing from its fiber"


@pytest.mark.parametrize("name", ["dual_point", "right_dual_point"])
def test_pi_duality_catches_a_dual_that_does_not_commute_with_the_fold(monkeypatch, name):
    """The twisted dual of A2 N=2 moved by q^2: the first point sees it."""
    true_dual = getattr(verify, name)

    def moved(g, i, x):
        j, y = true_dual(g, i, x)
        return (j, y * SpectralParam(0, 2)) if g == A2_2 else (j, y)

    moved.__name__ = name
    monkeypatch.setattr(verify, name, moved)
    report = verify.run_check("pi_duality")
    assert report.passed is False
    assert report.counterexample == f"A1 N=2 (1,q^-8): {name} does not commute with the fold"


def test_dorey_bruteforce_agree_catches_a_tag_that_disagrees_at_one_ratio(monkeypatch):
    """condition_tag misses the first holding triple."""
    true_tag, case = verify.condition_tag, (A1_2, 1, 1, 2, RX, RY)
    monkeypatch.setattr(
        verify, "condition_tag", lambda *args: None if args == case else true_tag(*args)
    )
    report = verify.run_check("dorey_bruteforce_agree")
    assert report.passed is False
    assert report.counterexample == (
        f"A1 N=2 (1, 1, 2): rx={RX} ry={RY}: matcher says None, enumeration says A-i"
    )


def test_dorey_bruteforce_agree_catches_a_ratio_outside_the_grid(monkeypatch):
    """_mqp puts (-q)^1 at q-power 9, past the grid |m| <= 2N + 1 = 5 of N=2."""
    true_mqp = verify._mqp
    monkeypatch.setattr(verify, "_mqp", lambda e: (true_mqp(e)[0], 9) if e == 1 else true_mqp(e))
    report = verify.run_check("dorey_bruteforce_agree")
    assert report.passed is False
    assert report.counterexample == "A1 N=2 (1, 1, 2): a condition ratio escapes the grid"


@pytest.mark.parametrize(
    "name, wrong, expected",
    [
        ("dorey_untwisted", lambda v: DoreyVerdict(True, "A-ii"), "matcher tag A-ii != A-i"),
        ("multiple_pole_class", lambda cls: "double", "pole double under A-i"),
    ],
    ids=["matcher-tag", "pole-class"],
)
def test_pole_class_catches_a_wrong_answer(monkeypatch, name, wrong, expected):
    _patch_at(monkeypatch, name, FIRST_HOLDING, wrong)
    report = verify.run_check("pole_class")
    assert report.passed is False
    assert report.counterexample == f"A1 N=2 (1, 1, 2): {expected}"


def test_pole_class_catches_a_raising_classification(monkeypatch):
    true_class = verify.multiple_pole_class

    def raising(triple):
        if triple == FIRST_HOLDING:
            raise AssertionError("zero order 0 does not match tag A-i at -q^2")
        return true_class(triple)

    monkeypatch.setattr(verify, "multiple_pole_class", raising)
    report = verify.run_check("pole_class")
    assert report.passed is False
    assert report.counterexample == (
        "A1 N=2 (1, 1, 2): A-i: zero order 0 does not match tag A-i at -q^2"
    )


def _folded(triple: DoreyTriple) -> DoreyTriple:
    """The triple folded point by point, as twisted_lift_consistency folds it."""
    images = (verify.pi(triple.g, *point) for point in (triple.a, triple.b, triple.c))
    return DoreyTriple(triple.g.partner(), *((v.i, v.x) for v in images))


def test_twisted_lift_consistency_catches_a_flipped_verdict(monkeypatch):
    """The first case: A1 N=2 (1, 1, 1) at x = y = (-q)^-4, which fails."""
    mq = SpectralParam.minus_q_power
    up = DoreyTriple(A1_2, (1, mq(-4)), (1, mq(-4)), (1, SpectralParam.one()))
    _patch_at(monkeypatch, "dorey_twisted", _folded(up), lambda v: DoreyVerdict(not v.holds))
    report = verify.run_check("twisted_lift_consistency")
    assert report.passed is False
    assert report.counterexample == f"A1 N=2 (1, 1, 1): lift inconsistency at {up}"


def test_twisted_lift_consistency_catches_a_witness_that_does_not_hold(monkeypatch):
    """The first holding case gets its witness with the first two points
    swapped."""
    down = _folded(FIRST_HOLDING)
    _patch_at(
        monkeypatch, "dorey_twisted", down,
        lambda v: DoreyVerdict(True, v.condition, (v.witness[1], v.witness[0], v.witness[2])),
    )
    report = verify.run_check("twisted_lift_consistency")
    assert report.passed is False
    assert report.counterexample == f"A1 N=2 (1, 1, 2): invalid witness at {down}"


def test_twisted_lift_consistency_catches_a_verdict_that_depends_on_the_representative(
    monkeypatch,
):
    """A dorey_twisted that flips its verdict when a point at a sign-quotient
    node comes as the negated representative (zeta >= 2).  Twisted A with N
    odd is the first type with such a node (index 2 of A2 N=3), and
    A1 N=3 (1, 1, 2) folds z onto it."""
    true_twisted = verify.dorey_twisted

    def flipping(triple):
        verdict = true_twisted(triple)
        points = (triple.a, triple.b, triple.c)
        if any(verify.has_sign_quotient(triple.g, i) and x.zeta >= 2 for i, x in points):
            return DoreyVerdict(not verdict.holds)
        return verdict

    monkeypatch.setattr(verify, "dorey_twisted", flipping)
    mq = SpectralParam.minus_q_power
    down = _folded(
        DoreyTriple(AffineType("A", 1, 3), (1, mq(-7)), (1, mq(-7)), (2, SpectralParam.one()))
    )
    report = verify.run_check("twisted_lift_consistency")
    assert report.passed is False
    assert report.counterexample == (
        f"A1 N=3 (1, 1, 2): verdict depends on the class representative at {down}"
    )


# Injected defects for lemma_embedding: embed_pair_in_AR goes wrong at the
# first pair of one kind.  The check starts at A1 N=2, whose Se0 window opens
# with an adjacent pair, then a pair that is not adjacent, then a dual pair.


def _wrong_embedding_at(monkeypatch, kind, wrong) -> None:
    """Make embed_pair_in_AR answer ``wrong(true result)`` at the first pair
    whose true result satisfies ``kind``, and truly elsewhere."""
    true_embed, hit = verify.embed_pair_in_AR, []

    def patched(g1, v, w):
        res = true_embed(g1, v, w)
        if not hit and kind(res):
            hit.append(res)
            return wrong(res)
        return res

    monkeypatch.setattr(verify, "embed_pair_in_AR", patched)


def _raising(res):
    raise AssertionError("no AR-quiver embedding found")


def _moved_by_two(res):
    (i1, s1), second = res.positions
    return EmbedResult(True, None, res.quiver, res.height, res.shift, ((i1, s1 + 2), second))


@pytest.mark.parametrize(
    "kind, wrong, expected",
    [
        (lambda res: True, _raising, "1:q^-4 1:q^-2: no AR-quiver embedding found"),
        (
            lambda res: res.reason == "dual pair", lambda res: EmbedResult(False, "not adjacent"),
            "1:q^-4 2:-q^-1: expected the dual-pair signal",
        ),
        (
            lambda res: res.reason == "not adjacent", lambda res: EmbedResult(False, "dual pair"),
            "1:q^-4 1:q^0: expected the non-adjacency signal",
        ),
        (
            lambda res: res.found, lambda res: EmbedResult(False, "no orientation"),
            "1:q^-4 1:q^-2: embedding missing (no orientation)",
        ),
        (lambda res: res.found, _moved_by_two, "1:q^-4 1:q^-2: witness fails revalidation"),
    ],
    ids=["raises", "dual", "not-adjacent", "missing", "moved"],
)
def test_lemma_embedding_catches_a_wrong_embedding(monkeypatch, kind, wrong, expected):
    _wrong_embedding_at(monkeypatch, kind, wrong)
    report = verify.run_check("lemma_embedding")
    assert report.passed is False
    assert report.counterexample == f"A1 N=2 {expected}"
