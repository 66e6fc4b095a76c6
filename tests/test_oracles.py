"""Differential tests: each fast path against one oracle per concept, which
computes it from its definition and lives here, as no library path needs it.
Root sequences replay prefixes; adapted words, ``is_adapted`` and the
positive roots reflect; gamma roots, distances and fold fibres search; phi
walks the Coxeter path, and Gamma_Q is derived from that table; minimal
pairs, embeddings, Se windows, lattices and arrow multiplicities scan every
pair, point or representative; the Schur-Weyl datum builds validated
classes; ``LabeledQuiver`` scans arrow by arrow; the value classes are the
frozen dataclasses they replaced.  A fast path that replaces another fast
path updates the existing differential test; it does not add an oracle."""

from __future__ import annotations

import copy
import importlib
import inspect
import operator
import pickle
import random
from dataclasses import FrozenInstanceError, fields as dataclass_fields, make_dataclass
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import example, given, strategies as st

from arquiver import quiver, rootsys, sequiver
from arquiver.quiver import (
    ARData,
    ConvexPartialOrder,
    DynkinQuiver,
    adapted_word,
    all_orientations,
    ar_quiver,
    gamma_root,
    height_function,
    is_adapted,
    minimal_pairs,
    phi,
)
from arquiver.rootsys import (
    FiniteType,
    add_roots,
    apply_word,
    cartan_matrix,
    distance,
    neighbors,
    pairing,
    positive_roots,
    reflect,
    root_sequence,
)
from arquiver.sequiver import (
    LabeledQuiver,
    SchurWeylDatum,
    SeVertex,
    _lattice_classes,
    class_arrow_mult,
    has_sign_quotient,
    pi,
    schur_weyl_quiver,
    se0_seed,
    se_window,
    vertex_class,
)
from arquiver.spectral import (
    AffineType,
    DenominatorZeros,
    SpectralParam,
    denominator,
    dual_point,
    right_dual_point,
    zero_order,
)
from arquiver.verify import VerifyReport

# The package exports the function ``dorey``, which shadows the module.
dorey = importlib.import_module("arquiver.dorey")

A3 = FiniteType("A", 3)
TYPES = tuple(FiniteType("A", n) for n in range(2, 9)) + tuple(
    FiniteType("D", n) for n in range(4, 9)
)


def _unit(t: FiniteType, i: int) -> tuple[int, ...]:
    """The simple root alpha_i as a unit coefficient vector."""
    if i not in t.index_set:
        raise ValueError(f"vertex {i} not in the index set of {t}")
    return tuple(int(j == i) for j in t.index_set)


def _reflect_dense(t: FiniteType, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """s_i through a dense Cartan row (only called with a valid vertex i)."""
    c = sum(a * x for a, x in zip(cartan_matrix(t)[i - 1], v))
    out = list(v)
    out[i - 1] -= c
    return tuple(out)


def root_sequence_oracle(t: FiniteType, word) -> tuple[tuple[int, ...], ...]:
    """Prefix replay: beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) from scratch."""
    seq = []
    for k, letter in enumerate(word):
        v = _unit(t, letter)
        for prior in reversed(word[:k]):
            v = _reflect_dense(t, prior, v)
        if any(c < 0 for c in v):
            raise ValueError(f"word is not reduced at position {k + 1}")
        seq.append(v)
    return tuple(seq)


def quiver_sources(q: DynkinQuiver) -> frozenset[int]:
    targets = {b for _, b in q.arrows}
    return frozenset(i for i in q.ftype.index_set if i not in targets)


def quiver_reflect(q: DynkinQuiver, i: int) -> DynkinQuiver:
    """Reverse every arrow incident to vertex i."""
    flipped = tuple((b, a) if i in (a, b) else (a, b) for a, b in q.arrows)
    return DynkinQuiver(q.ftype, flipped)


def test_quiver_sources_and_reflect():
    lin3 = DynkinQuiver(A3, ((1, 2), (2, 3)))
    assert quiver_sources(lin3) == frozenset({1})
    assert quiver_sources(DynkinQuiver(A3, ((2, 1), (2, 3)))) == frozenset({2})
    assert quiver_reflect(lin3, 1).arrows == ((2, 1), (2, 3))
    assert quiver_reflect(quiver_reflect(lin3, 1), 1) == lin3


def sub_roots(a, b):
    return tuple(map(operator.sub, a, b))


def coxeter_word_oracle(q: DynkinQuiver) -> tuple[int, ...]:
    """Source sweep on ``DynkinQuiver``: the smallest unused source of the
    current quiver, which is then reflected at."""
    word: list[int] = []
    cur = q
    for _ in q.ftype.index_set:
        cand = sorted(v for v in quiver_sources(cur) if v not in word)
        if not cand:
            raise AssertionError("source sweep ran out of sources")
        word.append(cand[0])
        cur = quiver_reflect(cur, cand[0])
    root_sequence_oracle(q.ftype, word)  # raises if not reduced
    return tuple(word)


def is_adapted_oracle(q: DynkinQuiver, word) -> bool:
    """Replay on ``DynkinQuiver``: each letter a source of the current quiver."""
    cur = q
    for letter in word:
        if letter not in quiver_sources(cur):
            return False
        cur = quiver_reflect(cur, letter)
    return True


def gamma_root_oracle(q: DynkinQuiver, i: int) -> tuple[int, ...]:
    """One breadth-first search back along the arrows from i."""
    seen, frontier = {i}, {i}
    while frontier:
        frontier = {a for a, b in q.arrows if b in frontier and a not in seen}
        seen |= frontier
    return tuple(int(v in seen) for v in q.ftype.index_set)


def phi_oracle(q: DynkinQuiver, xi, window):
    """Coxeter path: walk each row from (gamma root, 0) at xi_i, the root
    found by breadth-first search, with tables of the adapted Coxeter word
    (down) and its inverse (up) on the positive roots, negating and moving the
    spin when an image turns negative."""
    t = q.ftype
    word = adapted_word(q, "coxeter")
    tables = (
        (-2, {r: apply_word(t, word, r) for r in positive_roots(t)}),
        (2, {r: apply_word(t, word[::-1], r) for r in positive_roots(t)}),
    )
    lo, hi = window
    table = {}
    for i in t.index_set:
        seed = (gamma_root_oracle(q, i), 0)
        table[(i, xi[i])] = seed
        for step, act in tables:
            (root, spin), p = seed, xi[i] + step
            while lo <= p <= hi:
                root = act[root]
                if min(root) < 0:
                    root, spin = tuple(-c for c in root), spin + step // 2
                table[(i, p)] = (root, spin)
                p += step
    return table


def phi_items_oracle(q: DynkinQuiver, xi, window):
    """phi_oracle's items in phi's insertion order: the seeds by index, then
    the entries below their seed by descending p and then index, then those
    above by ascending p and then index."""

    def key(item):
        (i, p), _ = item
        return (0, 0, i) if p == xi[i] else (1, -p, i) if p < xi[i] else (2, p, i)

    return sorted(phi_oracle(q, xi, window).items(), key=key)


def _moved(items, d: int, window) -> list:
    """The items on the window, moved up by d: the table at the height
    function xi + d.  Moving keeps their order."""
    lo, hi = window
    return [((i, p + d), label) for (i, p), label in items if lo <= p <= hi]


def _bases(t: FiniteType):
    """Every base vertex at height 0, vertex 1 at an odd height and vertex N
    at height 3."""
    return [(v, 0) for v in t.index_set] + [(1, 1), (t.rank, 3)]


def _same_items(got, want) -> bool:
    """Equal, and every dict field with its items in the same order."""
    return got == want and all(
        list(a.items()) == list(b.items())
        for a, b in zip(got, want)
        if isinstance(a, dict)
    )


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_knitted_phi_matches_the_coxeter_path(t):
    """Every orientation and base, on the tight window and one padded by 8N:
    the same entries in the same insertion order.  The Coxeter path is walked
    once per orientation and moved to each base."""
    n = t.rank
    for q in all_orientations(t):
        xi0 = height_function(q)
        lo, hi = min(xi0.values()), max(xi0.values())
        windows = ((lo - 2 * n - 2, hi), (lo - 8 * n, hi + 8 * n))
        items = phi_items_oracle(q, xi0, windows[1])
        assert len({label for _, label in items}) == len(items), q
        for base in _bases(t):
            xi = height_function(q, *base)
            d = xi[1] - xi0[1]
            for w_lo, w_hi in windows:
                got = phi(q, xi, (w_lo + d, w_hi + d))
                at = (q, base, (w_lo, w_hi))
                assert list(got.items()) == _moved(items, d, (w_lo, w_hi)), at


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_one_pass_phi_matches_per_vertex_seeds_and_per_entry_decoding(t, monkeypatch):
    """Every orientation, two bases, on the tight window and one padded by 8N:
    gamma_root equal to its search, one decode per distinct root, and each
    entry's root equal to its own code decoded on its own."""
    n, decoded = t.rank, []

    def counting(code, length):
        decoded.append(abs(code))
        return rootsys._unknit(code, length)

    monkeypatch.setattr(quiver, "_unknit", counting)
    for q in all_orientations(t):
        assert all(gamma_root(q, i) == gamma_root_oracle(q, i) for i in t.index_set), q
        for base in ((1, 0), (n, 3)):
            xi = height_function(q, *base)
            lo, hi = min(xi.values()), max(xi.values())
            for window in ((lo - 2 * n - 2, hi), (lo - 8 * n, hi + 8 * n)):
                decoded.clear()
                got = list(phi(q, xi, window).items())
                roots = {root for _, (root, _) in got}
                assert len(set(decoded)) == len(decoded) == len(roots), (q, window)
                knit = quiver._knit(q, xi, window)
                assert got == [(k, (rootsys._unknit(v, n), s)) for k, v, s in knit], (q, window)


@pytest.mark.parametrize(
    "code, n",
    [
        (1 - 256, 2),  # mixed signs: (1, -1)
        (-1 + 256, 2),  # mixed signs: (-1, 1)
        (32, 1),  # a digit past the exact range
        (-32 * 256, 2),
        (32 * 256**70, 71),  # past the 64 bytes of the precomputed mask
        (256, 1),  # more digits than the label has
        (-(256**3), 3),
    ],
)
def test_unknit_rejects_codes_outside_the_exact_range(code, n):
    with pytest.raises(AssertionError, match="not a signed root"):
        rootsys._unknit(code, n)


def test_unknit_reads_signed_labels():
    assert rootsys._unknit(2 + 256 + 31 * 256**2, 3) == (2, 1, 31)
    assert rootsys._unknit(-(2 + 256), 3) == (2, 1, 0)
    assert rootsys._unknit(0, 2) == (0, 0)
    assert rootsys._unknit(-31 * 256**70, 71) == (0,) * 70 + (31,)


@pytest.mark.parametrize(
    "seeds",
    [
        {1: (1, 0, 0), 2: (0, 0, 1), 3: (1, 0, 0)},  # v(1, -2) = (-1, 0, 1)
        {1: (30, 0, 0), 2: (60, 0, 0), 3: (90, 0, 0)},  # a digit 60 at (2, -1)
    ],
)
def test_phi_raises_when_the_knit_leaves_the_exact_range(monkeypatch, seeds):
    """Seeds that are no roots on the linear A3 quiver 1 -> 2 -> 3."""
    q = all_orientations(A3)[0]
    xi = height_function(q)
    codes = {i: int.from_bytes(bytes(seed), "little") for i, seed in seeds.items()}
    monkeypatch.setattr(quiver, "_gamma_codes", lambda q, xi: codes)
    with pytest.raises(AssertionError, match="not a signed root"):
        phi(q, xi, (min(xi.values()) - 8, max(xi.values())))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_unknit_rejects_mixed_signs_and_wide_digits_at_every_rank(n):
    """The per-rank mask, asked for in any order of ranks."""
    top = 256 ** (n - 1)
    bad = (
        top - 1,  # digit 0 is -1, digit n - 1 is +1
        1 - top,
        1 - 2 * top,
        32 * top,  # the top digit past the exact range
        -32,
        32 * 256 ** (n // 2),
        255,
        256**n,  # one digit too many
    )
    for code in bad:
        with pytest.raises(AssertionError, match="not a signed root"):
            rootsys._unknit(code, n)
    assert rootsys._unknit(-(31 * top + 1), n) == (1,) + (0,) * (n - 2) + (31,)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_fast_paths_match_oracles_on_every_orientation(t):
    for q in all_orientations(t):
        for target in ("coxeter", "w0"):
            word = adapted_word(q, target)
            assert root_sequence(t, word) == root_sequence_oracle(t, word)
            assert is_adapted(q, word) and is_adapted_oracle(q, word)
        assert adapted_word(q, "coxeter") == coxeter_word_oracle(q)
        # A w0 word of the opposite orientation: adapted only where a sink
        # of q is also a source, so this exercises the rejecting branch.
        other = adapted_word(q.reverse(), "w0")
        assert is_adapted(q, other) == is_adapted_oracle(q, other)


SMALL = st.sampled_from(TYPES[:4] + TYPES[7:9])


@st.composite
def type_and_word(draw, lo: int = 1, extra: int = 0):
    t = draw(SMALL)
    word = tuple(draw(st.lists(st.integers(lo, t.rank + extra), max_size=3 * t.rank)))
    return t, word


@given(type_and_word())
def test_root_sequence_matches_oracle_on_random_words(tw):
    t, word = tw
    assert _outcome(root_sequence, t, word) == _outcome(root_sequence_oracle, t, word)


@given(type_and_word(lo=-1, extra=1))
def test_root_sequence_matches_oracle_on_letters_outside_the_index_set(tw):
    t, word = tw
    assert _outcome(root_sequence, t, word) == _outcome(root_sequence_oracle, t, word)


@given(st.data(), type_and_word(lo=-1, extra=1))
def test_is_adapted_matches_oracle_on_random_words(data, tw):
    t, word = tw
    q = data.draw(st.sampled_from(all_orientations(t)))
    assert is_adapted(q, word) == is_adapted_oracle(q, word)


@given(st.data(), SMALL)
def test_is_adapted_matches_oracle_on_source_sequences(data, t):
    """Random words that stay adapted for a while: each letter is drawn from
    the current sources, with an occasional arbitrary letter mixed in."""
    q = data.draw(st.sampled_from(all_orientations(t)))
    cur, word = q, []
    for _ in range(data.draw(st.integers(0, 3 * t.rank))):
        if data.draw(st.integers(0, 9)) == 0:
            word.append(data.draw(st.integers(1, t.rank)))
            break
        letter = data.draw(st.sampled_from(sorted(quiver_sources(cur))))
        word.append(letter)
        cur = quiver_reflect(cur, letter)
    assert is_adapted(q, word) == is_adapted_oracle(q, word)


@given(SMALL, st.data())
def test_pairing_matches_the_dense_cartan_row(t, data):
    i = data.draw(st.integers(1, t.rank))
    v = tuple(data.draw(st.integers(-3, 3)) for _ in t.index_set)
    assert pairing(t, i, v) == sum(a * x for a, x in zip(cartan_matrix(t)[i - 1], v))
    assert reflect(t, i, v) == _reflect_dense(t, i, v)


@pytest.mark.parametrize("t", [A3, FiniteType("D", 4)], ids=["A3", "D4"])
def test_root_sequence_matches_oracle_on_every_short_word(t):
    """Every word of length at most 4 over the letters -1 .. N + 1: the same
    tuples, or the same error text at the same position."""
    letters = range(-1, t.rank + 2)
    words = [w for k in range(5) for w in product(letters, repeat=k)]
    outcomes = [_outcome(root_sequence, t, w) for w in words]
    assert outcomes == [_outcome(root_sequence_oracle, t, w) for w in words]
    errors = {o[1] for o in outcomes if o[:1] == ("ValueError",)}
    assert any("not reduced" in e for e in errors) and any("index set" in e for e in errors)


@pytest.mark.parametrize("i", [0, -1, -3, 4])
def test_vertices_outside_the_index_set_raise(i):
    with pytest.raises(ValueError, match="not in the index set"):
        pairing(A3, i, (0, 0, 1))
    with pytest.raises(ValueError, match="not in the index set"):
        reflect(A3, i, (0, 0, 1))
    with pytest.raises(ValueError, match="not in the index set"):
        apply_word(A3, (i,), (0, 0, 1))
    with pytest.raises(ValueError, match="not in the index set"):
        root_sequence(A3, (1, i))


@pytest.mark.parametrize("i", [0, -1, -3, 4])
def test_is_adapted_rejects_vertices_outside_the_index_set(i):
    for q in all_orientations(A3):
        assert not is_adapted(q, (i,))
        source = min(quiver_sources(q))
        assert not is_adapted(q, (source, i))


@cache
def search_orientations_oracle(t: FiniteType) -> tuple[DynkinQuiver, ...]:
    """Every orientation, the monotone/balanced ones first."""

    def preferred(q: DynkinQuiver) -> bool:
        arrows = set(q.arrows)
        chain_top = t.rank if t.family == "A" else t.rank - 2
        fwd = all((i, i + 1) in arrows for i in range(1, chain_top))
        bwd = all((i + 1, i) in arrows for i in range(1, chain_top))
        if not (fwd or bwd):
            return False
        if t.family == "A":
            return True
        hub = t.rank - 2
        forks_in = (t.rank - 1, hub) in arrows and (t.rank, hub) in arrows
        forks_out = (hub, t.rank - 1) in arrows and (hub, t.rank) in arrows
        return forks_in or forks_out

    quivers = all_orientations(t)
    return tuple(q for q in quivers if preferred(q)) + tuple(
        q for q in quivers if not preferred(q)
    )


def _embed_outcome(g1, v, w):
    try:
        return dorey.embed_pair_in_AR(g1, v, w)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_monotone_embedding_matches_the_full_scan(t, monkeypatch):
    """Every (i, j, e) with w/v = (-q)^e over the zero range and two steps
    past it on both sides (dual and non-adjacent pairs included), plus one
    ratio that is no power of -q."""
    g1 = AffineType(t.family, 1, t.rank)
    h = t.rank + 1 if t.family == "A" else 2 * t.rank - 2
    one = SpectralParam.one()
    cases = []
    for i in t.index_set:
        for j in t.index_set:
            params = [SpectralParam.minus_q_power(e) for e in range(-h - 2, h + 3)]
            for x in params + [SpectralParam(1, 1)]:
                cases.append((vertex_class(g1, i, one), vertex_class(g1, j, x)))
    fast = [_embed_outcome(g1, v, w) for v, w in cases]
    monkeypatch.setattr(dorey, "_search_orientations", search_orientations_oracle)
    slow = [_embed_outcome(g1, v, w) for v, w in cases]
    assert fast == slow
    assert any(r.found for r in fast)


def se_window_oracle(g, seeds, power_bound):
    """Score every ordered pair of window classes."""
    order = _lattice_classes(g, seeds, power_bound)
    verts = tuple((str(v), str(v)) for v in order)
    arrows = []
    for v in order:
        for w in order:
            if v is w:
                continue
            mult = class_arrow_mult(v, w)
            if mult:
                arrows.append((str(v), str(w), mult))
    return LabeledQuiver(verts, tuple(arrows)), order


SE_TYPES = tuple(
    AffineType(family, twist, n)
    for family, low in (("A", 2), ("D", 4))
    for twist in (1, 2)
    for n in range(low, 9)
)


@pytest.mark.parametrize("g", SE_TYPES, ids=lambda g: f"{g.code}_{g.N}")
def test_se_window_matches_the_pairwise_scan(g):
    top = g.index_set[-1]
    seed_sets = [
        ([se0_seed(g)], (0, 3, 2 * g.N)),
        ([vertex_class(g, top, SpectralParam(0, 1))], (0, 3, 2 * g.N)),
        (
            [vertex_class(g, top, SpectralParam(0, 1)), vertex_class(g, 1, SpectralParam(1, 0))],
            (0, 3, 2 * g.N),
        ),
    ]
    # Twisted D index 1 and the middle index of twisted A, N odd: a seed with
    # zeta >= 2 at a sign-quotient node, whose class keeps the negated parameter.
    node = next((i for i in g.index_set if has_sign_quotient(g, i)), None)
    if node is not None:
        seed_sets.append(([vertex_class(g, node, SpectralParam(3, 1))], (5, 2 * g.N + 1)))
    for seeds, bounds in seed_sets:
        for bound in bounds:
            assert se_window(g, seeds, bound) == se_window_oracle(g, seeds, bound), (seeds, bound)


def test_se_window_checks_both_ratios_at_sign_quotient_nodes(monkeypatch):
    """Tables with the zero -q^2 but not q^2: from (1, x) at the quotient node
    1 the zero lands on (1, -x q^2), stored as (1, x q^2), so the window must
    canonicalise the head to find that arrow and raise, as the oracle does."""
    g = AffineType("D", 2, 5)
    table = {(2, 2): 1}
    monkeypatch.setattr(sequiver, "_raw_tables", lambda g: lambda k, l: table)
    monkeypatch.setattr(sequiver, "denominator_roots_raw", lambda g, k, l: table)
    seeds = [vertex_class(g, 1, SpectralParam.one())]
    for window in (se_window, se_window_oracle):
        with pytest.raises(AssertionError, match="ill-defined"):
            window(g, seeds, 3)


def labeled_quiver_oracle(vertices, arrows):
    """The fields of the quiver, checked arrow by arrow: duplicate ids first,
    then per arrow in order the endpoint, multiplicity, loop and 2-cycle
    checks, raising the first error found."""
    ids = [vid for vid, _ in vertices]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate vertex ids")
    known = set(ids)
    seen = set()
    for src, dst, mult in arrows:
        if src not in known or dst not in known:
            raise ValueError(f"arrow endpoint not a vertex: {src}->{dst}")
        if mult < 1:
            raise ValueError("arrow multiplicity must be >= 1")
        if src == dst:
            raise ValueError(f"loop at {src}")
        if (dst, src) in seen:
            raise ValueError(f"2-cycle between {src} and {dst}")
        seen.add((src, dst))
    return vertices, arrows


def _quiver_fields(vertices, arrows):
    q = LabeledQuiver(vertices, arrows)
    return q.vertices, q.arrows


def _defect(kind: str, vertices: list, arrows: list, rng) -> None:
    """Edit one vertex id or one arrow in place so that it fails ``kind``."""
    k = rng.randrange(len(arrows))
    src, dst, mult = (*arrows[k], 1)[:3]  # arrow k may already have lost its multiplicity
    if kind == "duplicate id":
        a, b = rng.sample(range(len(vertices)), 2)
        vertices[b] = (vertices[a][0], vertices[b][1])
    elif kind == "endpoint":
        arrows[k] = (src, "nowhere", mult) if rng.random() < 0.5 else ("nowhere", dst, mult)
    elif kind == "multiplicity":
        arrows[k] = (src, dst, rng.choice((0, -1)))
    elif kind == "loop":
        arrows[k] = (src, src, mult)
    elif kind == "arity":  # one arrow of two or of four fields among triples
        arrows[k] = (src, dst) if rng.random() < 0.5 else (src, dst, mult, mult)
    else:  # a 2-cycle: arrow k becomes the reverse of another arrow
        other = arrows[rng.choice([n for n in range(len(arrows)) if n != k])]
        arrows[k] = (other[1], other[0], mult)


DEFECTS = ("duplicate id", "endpoint", "multiplicity", "loop", "arity", "2-cycle")


@pytest.mark.parametrize("g", SE_TYPES, ids=lambda g: f"{g.code}_{g.N}")
def test_one_constructor_matches_the_per_arrow_scan(g):
    """The windows of bound 2N seeded by Se0 and by single classes, as built,
    with one defect of each kind and with two defects of distinct kinds: the
    same quiver or the same first error, text and all."""
    rng = random.Random(f"{g.code}_{g.N}")
    top = g.index_set[-1]
    for seeds in (
        [se0_seed(g)],
        [vertex_class(g, 1, SpectralParam(1, 0))],
        [vertex_class(g, top, SpectralParam(2, 1))],
    ):
        quiver, _ = se_window(g, seeds, 2 * g.N)
        assert len(quiver.arrows) > 1
        cases = [()] + [(kind,) for kind in DEFECTS] + list(permutations(DEFECTS, 2))
        for kinds in cases:
            vertices, arrows = list(quiver.vertices), list(quiver.arrows)
            for kind in kinds:
                _defect(kind, vertices, arrows, rng)
            vertices, arrows = tuple(vertices), tuple(arrows)
            want = _outcome(labeled_quiver_oracle, vertices, arrows)
            assert _outcome(_quiver_fields, vertices, arrows) == want, (seeds, kinds)
            assert (want == (quiver.vertices, quiver.arrows)) == (not kinds)


def minimal_pairs_oracle(order, alpha):
    """Copy the order, rebuild its position dict and subtract root tuples,
    then test every pair against every other for nesting."""
    seq = tuple(tuple(r) for r in order)
    pos = {r: n for n, r in enumerate(seq)}
    if len(pos) != len(seq):
        raise ValueError("order contains duplicates")
    if len({len(r) for r in seq}) > 1:
        raise ValueError("order contains roots of different lengths")
    alpha = tuple(alpha)
    if alpha not in pos:
        raise ValueError("alpha is not in the given order")
    pa = pos[alpha]
    pairs = []
    for beta in seq[:pa]:
        gamma = sub_roots(alpha, beta)
        if gamma in pos and pos[gamma] > pa:
            pairs.append((beta, gamma))
    out = []
    for beta, gamma in pairs:
        nested = any(
            (b2, g2) != (beta, gamma) and pos[beta] <= pos[b2] and pos[g2] <= pos[gamma]
            for b2, g2 in pairs
        )
        if not nested:
            out.append((beta, gamma))
    return tuple(sorted(out, key=lambda bg: pos[bg[0]]))


# What minimal_pairs' one-order memo holds before any call: an order no
# caller holds.  A test that clears the root codes resets the memo too, so an
# order an earlier test left there cannot answer from its own index.
LAST_ORDER_PLACEHOLDER = (object(), None)


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_indexed_minimal_pairs_match_the_pairwise_scan(t):
    """Every orientation and every alpha, each asked twice (cold splits,
    filled splits).  Every order of the type shares one entry of root codes
    and splits, so later orders read the splits earlier orders filled."""
    quiver._root_codes.cache_clear()
    quiver._last_order = LAST_ORDER_PLACEHOLDER
    found = 0
    for q in all_orientations(t):
        order = root_sequence(t, adapted_word(q, "w0"))
        for _ in range(2):
            for alpha in order:
                got = minimal_pairs(order, alpha)
                assert type(got) is tuple and got == minimal_pairs_oracle(order, alpha)
                found += len(got)
    assert found > 0
    info = quiver._root_codes.cache_info()
    assert info.misses == info.currsize == 1 and info.hits == len(all_orientations(t)) - 1


def test_a_single_query_fills_only_its_own_splits():
    """The first query on a root set no order has used matches the oracle
    and fills the splits of that alpha alone."""
    t = FiniteType("D", 6)
    quiver._root_codes.cache_clear()
    quiver._last_order = LAST_ORDER_PLACEHOLDER
    order = root_sequence(t, adapted_word(all_orientations(t)[5], "w0"))
    alpha = max(order, key=sum)
    got = minimal_pairs(order, alpha)
    assert got and got == minimal_pairs_oracle(order, alpha)
    codes, splits = quiver._root_codes(frozenset(order))
    assert len(codes) == len(order) and len(splits) == 1


COEFFS = st.sampled_from(
    [st.integers(0, 2), st.integers(-3, 3), st.integers(100, 300), st.integers(-10**12, 10**12)]
)


@st.composite
def order_and_alpha(draw):
    """Shuffled orders closed under some sums: subsets of the positive roots,
    or integer vectors of any sign and size; sometimes with roots as lists, a
    duplicate, a root of another length, or alpha missing."""
    if draw(st.booleans()):
        t = draw(SMALL)
        order = draw(st.permutations(sorted(positive_roots(t))))
        if draw(st.booleans()):
            order = order[: draw(st.integers(0, len(order)))]
        width, sums = t.rank, order
    else:
        width = draw(st.integers(1, 4))
        vec = st.lists(draw(COEFFS), min_size=width, max_size=width).map(tuple)
        base = draw(st.lists(vec, max_size=8, unique=True))
        sums = {add_roots(a, b) for a in base for b in base if a < b}
        order = draw(st.permutations(sorted(set(base) | sums)))
    order = list(order)
    if order and draw(st.integers(0, 9)) == 0:
        order.insert(draw(st.integers(0, len(order))), draw(st.sampled_from(order)))
    if order and draw(st.integers(0, 9)) == 0:
        order.append(order[0][:-1])
    if draw(st.booleans()):
        order = [list(r) for r in order]
    if sums and draw(st.integers(0, 9)):
        alpha = draw(st.sampled_from(sorted(sums)))
    else:
        alpha = tuple(draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width)))
    return order, alpha


# Hand-made orders where a wrong code would find a pair: coefficients past
# one byte (base-256 digits carry: 200 + 100 = 300 = 44 + 256), a base too
# small for the coefficient range ((-3, 1) - (-3, 0) would code like (-2, 0)
# at B = 4), and roots of two lengths, which both reject.
@example(([(200, 0), (44, 1), (100, 0)], (44, 1)))
@example(([(-3, 0), (-2, 0), (-3, 1)], (-2, 0)))
@example(([(1,), (1, 1), (0,)], (1, 1)))
@example(([(0,), (1,)], (1,)))  # 0 + alpha = alpha, but gamma = alpha is no later root
@given(order_and_alpha())
def test_minimal_pairs_match_oracle_on_random_orders(case):
    order, alpha = case
    assert _outcome(minimal_pairs, order, alpha) == _outcome(minimal_pairs_oracle, order, alpha)


def test_minimal_pairs_check_duplicates_then_lengths_then_alpha():
    """Orders whose roots differ in length are rejected, by both paths, after
    the duplicate check and before alpha is looked up."""
    mixed = ((1,), (1, 1), (0,))
    cases = (
        (mixed + ((1,),), (9, 9), "order contains duplicates"),
        (mixed, (1, 1), "order contains roots of different lengths"),
        (list(mixed), (9,), "order contains roots of different lengths"),
        (((1, 1), (0, 1)), (1,), "alpha is not in the given order"),
    )
    for order, alpha, message in cases:
        for f in (minimal_pairs, minimal_pairs_oracle):
            assert _outcome(f, order, alpha) == ("ValueError", message)


D7 = FiniteType("D", 7)


def test_minimal_pair_triples_reuse_one_w0_order(monkeypatch):
    calls = []
    true_root_sequence = rootsys.root_sequence

    def counting(t, word):
        calls.append(tuple(word))
        return true_root_sequence(t, word)

    for mod in (rootsys, quiver, dorey):
        monkeypatch.setattr(mod, "root_sequence", counting, raising=False)
    quiver._tau_data.cache_clear()
    q = all_orientations(D7)[21]
    ar = ar_quiver(q)
    order = true_root_sequence(D7, adapted_word(q, "w0"))
    triples = 0
    for _ in range(3):
        for alpha in order:
            for pair in minimal_pairs(order, alpha):
                for tw in (1, 2):
                    dorey.minimal_pair_triple(ar, alpha, pair, tw)
                    triples += 1
    assert triples > 0
    assert calls == [adapted_word(q, "w0")]


def test_root_splits_stay_bounded():
    """All D7 and D8 orientations share two entries; more root sets than the
    bound evict the oldest."""
    quiver._root_codes.cache_clear()
    quiver._last_order = LAST_ORDER_PLACEHOLDER
    maxsize = quiver._root_codes.cache_info().maxsize
    assert maxsize is not None and maxsize >= 32
    for t in (D7, FiniteType("D", 8)):
        for q in all_orientations(t):
            order = root_sequence(t, adapted_word(q, "w0"))
            for alpha in order:
                minimal_pairs(order, alpha)
            assert quiver._root_codes.cache_info().currsize <= 2
    for k in range(1, maxsize + 9):
        order = ((k,), (2 * k + 1,), (k + 1,))
        assert minimal_pairs(order, order[1]) == ((order[0], order[2]),)
        assert quiver._root_codes.cache_info().currsize <= maxsize
    assert quiver._root_codes.cache_info().currsize == maxsize


def test_minimal_pairs_reuses_only_an_immutable_order():
    """The same tuple of tuples reuses its index; a list or a tuple of lists
    is read afresh on every call, so editing it in place between calls never
    meets a stale index.  The memo holds one order at a time."""
    t = FiniteType("A", 4)
    orders = [root_sequence(t, adapted_word(q, "w0")) for q in all_orientations(t)[:2]]
    for order in orders:
        for alpha in order * 2:
            assert minimal_pairs(order, alpha) == minimal_pairs_oracle(order, alpha)
            assert len(quiver._last_order) == 2 and quiver._last_order[0] is order
    first, second = orders
    as_list = list(first)
    assert minimal_pairs(as_list, first[-1]) == minimal_pairs_oracle(first, first[-1])
    as_list[:] = second
    for alpha in second:
        assert minimal_pairs(as_list, alpha) == minimal_pairs_oracle(second, alpha)
    of_lists = tuple(list(r) for r in first)
    alpha = first[len(first) // 2]
    assert minimal_pairs(of_lists, alpha) == minimal_pairs_oracle(first, alpha)
    for r, s in zip(of_lists, second):
        r[:] = s
    assert minimal_pairs(of_lists, alpha) == minimal_pairs_oracle(second, alpha)
    assert quiver._last_order[0] is second


def test_minimal_pairs_builds_its_own_index_for_an_equal_order(monkeypatch):
    """The memo goes by identity.  The held order hits; an equal but distinct
    tuple of tuples (a copy of the root sequence, root by root) builds its
    own index once and takes the memo, and then the first order builds
    again.  A list or a tuple of lists equal to it is still read afresh, and
    the duplicate, length and missing-alpha errors leave the memo alone."""
    t = FiniteType("D", 5)
    seq = root_sequence(t, adapted_word(all_orientations(t)[5], "w0"))
    again = tuple(tuple(list(r)) for r in seq)
    assert again == seq and not any(a is b for a, b in zip(again, seq))
    minimal_pairs(seq, seq[0])
    assert quiver._last_order[0] is seq
    builds = []
    true_root_codes = quiver._root_codes

    def counting(roots):
        builds.append(len(roots))
        return true_root_codes(roots)

    monkeypatch.setattr(quiver, "_root_codes", counting)
    for order in (seq, again):
        for alpha in order:
            assert minimal_pairs(order, alpha) == minimal_pairs_oracle(seq, alpha)
            assert quiver._last_order[0] is order
    assert builds == [len(seq)]
    held = quiver._last_order
    alpha = seq[len(seq) // 2]
    for fresh in (list(again), tuple(list(r) for r in again), [list(r) for r in again]):
        assert minimal_pairs(fresh, alpha) == minimal_pairs_oracle(seq, alpha)
        assert quiver._last_order is held
    assert builds == [len(seq)] * 4
    errors = (
        (again + (again[0],), alpha, "order contains duplicates"),
        (again[:-1] + ((1,),), alpha, "order contains roots of different lengths"),
        (again, (9,) * t.rank, "alpha is not in the given order"),
        (again, (1,), "alpha is not in the given order"),
    )
    for order, root, message in errors:
        for f in (minimal_pairs, minimal_pairs_oracle):
            assert _outcome(f, order, root) == ("ValueError", message)
        assert quiver._last_order is held
    assert minimal_pairs(seq, alpha) == minimal_pairs_oracle(seq, alpha)
    assert builds == [len(seq)] * 5 and quiver._last_order[0] is seq


def class_arrow_mult_oracle(v: SeVertex, w: SeVertex) -> int:
    """One ``zero_order`` call per representative pair."""
    if v.g != w.g:
        raise ValueError("vertices belong to different affine types")
    orders = {
        zero_order(v.g, v.i, w.i, xw / xv) for xv in v.members() for xw in w.members()
    }
    if len(orders) != 1:
        raise AssertionError(f"arrow multiplicity ill-defined between {v} and {w}")
    return orders.pop()


def _classes(g: AffineType, bound: int) -> list[SeVertex]:
    """Every class (i, i^zeta q^m) with |m| <= bound."""
    return sorted(
        {
            vertex_class(g, i, SpectralParam(zeta, m))
            for i in g.index_set
            for zeta in range(4)
            for m in range(-bound, bound + 1)
        },
        key=lambda v: (v.i, v.x.m, v.x.zeta),
    )


@pytest.mark.parametrize("g", [g for g in SE_TYPES if g.N <= 7], ids=lambda g: f"{g.code}_{g.N}")
def test_class_arrow_mult_matches_the_member_scan(g):
    """Every ordered class pair of the window |m| <= N; its ratios reach
    q-power 2N, past every zero (at most 2N - 2)."""
    classes = _classes(g, g.N)
    mults = [class_arrow_mult(v, w) for v in classes for w in classes]
    assert mults == [class_arrow_mult_oracle(v, w) for v in classes for w in classes]
    assert max(mults) > 0


def test_class_arrow_mult_checks_both_ratios_at_sign_quotient_nodes(monkeypatch):
    """A table with a zero at r but not at -r is caught, as by the oracle."""
    g = AffineType("D", 2, 5)
    v = vertex_class(g, 1, SpectralParam.one())
    w = vertex_class(g, 2, SpectralParam.minus_q_power(2))
    assert has_sign_quotient(g, v.i)
    r = w.x / v.x
    monkeypatch.setattr(sequiver, "denominator_roots_raw", lambda g, k, l: {(r.zeta, r.m): 1})
    with pytest.raises(AssertionError, match="ill-defined"):
        class_arrow_mult(v, w)
    monkeypatch.setattr(sequiver, "has_sign_quotient", lambda g, i: False)
    assert class_arrow_mult(v, w) == 1


def schur_weyl_quiver_oracle(ar, t: int) -> SchurWeylDatum:
    """Two validated classes and one ``class_arrow_mult`` call per ordered
    pair of slots."""
    ftype = ar.quiver.ftype
    g1 = AffineType(ftype.family, 1, ftype.rank)
    entries, s_map, x_map = [], {}, {}
    for r in ftype.index_set:
        i, p = ar.phi_inv[(_unit(ftype, r), 0)]
        entries.append((r, i, p))
        point = SpectralParam.minus_q_power(p)
        if t == 1:
            s_map[r], x_map[r] = i, point
        else:
            img = pi(g1, i, point)
            s_map[r], x_map[r] = img.i, img.x
    g = g1 if t == 1 else g1.partner()
    idx = ftype.index_set
    dmat = {}
    for a in idx:
        for b in idx:
            if a != b:
                va = vertex_class(g, s_map[a], x_map[a])
                vb = vertex_class(g, s_map[b], x_map[b])
                dmat[(a, b)] = class_arrow_mult(va, vb)
    verts = tuple((str(r), f"{i},{p}") for r, i, p in entries)
    arrows = tuple(
        (str(a), str(b), dmat[(a, b)]) for a in idx for b in idx if a != b and dmat[(a, b)]
    )
    cartan = tuple(
        tuple(2 if a == b else -dmat[(a, b)] - dmat[(b, a)] for b in idx) for a in idx
    )
    qexp = {(a, b): (dmat[(a, b)], dmat[(b, a)]) for a in idx for b in idx if a < b}
    return SchurWeylDatum(
        tuple(entries), s_map, x_map, LabeledQuiver(verts, arrows), cartan, qexp
    )


def _moved_datum(sw: SchurWeylDatum, g: AffineType, d: int) -> SchurWeylDatum:
    """The datum at the height function moved up by d: each slot at p + d,
    its point times (-q)^d as its class's representative.  Every ratio of two
    slots stays, and with it every arrow, the Cartan matrix and qexp."""
    shift = SpectralParam.minus_q_power(d)
    entries = tuple((r, i, p + d) for r, i, p in sw.entries)
    x_map = {r: vertex_class(g, sw.s[r], x * shift).x for r, x in sw.X.items()}
    verts = tuple((str(r), f"{i},{p}") for r, i, p in entries)
    return SchurWeylDatum(
        entries, dict(sw.s), x_map, LabeledQuiver(verts, sw.quiver.arrows), sw.cartan, sw.qexp
    )


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_schur_weyl_quiver_matches_the_pairwise_classes(t):
    """Every orientation and base, t = 1 and 2: equal data, with the same
    dict orders.  The pairwise classes are built once per orientation and t
    and moved to each base."""
    types = {tw: AffineType(t.family, tw, t.rank) for tw in (1, 2)}
    for q in all_orientations(t):
        ar0 = ar_quiver(q)
        at_xi0 = {tw: schur_weyl_quiver_oracle(ar0, tw) for tw in types}
        for base in _bases(t):
            ar = ar_quiver(q, height_function(q, *base))
            for tw, g in types.items():
                got = schur_weyl_quiver(ar, tw)
                want = _moved_datum(at_xi0[tw], g, ar.height[1] - ar0.height[1])
                assert _same_items(got._fields(got), want._fields(want)), (q, base, tw)


def test_schur_weyl_quiver_checks_both_ratios_at_sign_quotient_nodes(monkeypatch):
    """A raw table with zeros at r but never at -r, patched in as every
    d_{k,l} of both the per-pair lookup (class_arrow_mult, the oracle) and the
    per-type tables (schur_weyl_quiver): the first slot pair that meets a
    sign-quotient node raises the text class_arrow_mult raises."""
    q = all_orientations(FiniteType("D", 5))[3]
    ar = ar_quiver(q)
    sw = schur_weyl_quiver(ar, 2)
    g = AffineType("D", 2, 5)
    slots = {r: vertex_class(g, sw.s[r], sw.X[r]) for r in sw.s}
    v, w = next(
        (slots[a], slots[b])
        for a in slots
        for b in slots
        if a != b and (has_sign_quotient(g, slots[a].i) or has_sign_quotient(g, slots[b].i))
    )
    asymmetric = {(zeta, m): 1 for zeta in (0, 1) for m in range(-30, 31)}
    monkeypatch.setattr(sequiver, "denominator_roots_raw", lambda g, k, l: asymmetric)
    monkeypatch.setattr(sequiver, "_raw_tables", lambda g: lambda k, l: asymmetric)
    text = f"arrow multiplicity ill-defined between {v} and {w}"
    with pytest.raises(AssertionError) as single:
        class_arrow_mult(v, w)
    with pytest.raises(AssertionError) as whole:
        schur_weyl_quiver(ar, 2)
    with pytest.raises(AssertionError) as oracle:
        schur_weyl_quiver_oracle(ar, 2)
    assert str(single.value) == str(whole.value) == str(oracle.value) == text


def test_schur_weyl_quiver_checks_the_later_slot_of_a_pair(monkeypatch):
    """Here the first slot pair that meets a sign-quotient node has it only at
    the later slot (slot 3 of a twisted A5 datum); that pair raises."""
    q = all_orientations(FiniteType("A", 5))[2]
    ar = ar_quiver(q)
    sw = schur_weyl_quiver(ar, 2)
    g = AffineType("A", 2, 5)
    v, w = (vertex_class(g, sw.s[r], sw.X[r]) for r in (1, 3))
    assert [has_sign_quotient(g, sw.s[r]) for r in (1, 2, 3)] == [False, False, True]
    asymmetric = {(zeta, m): 1 for zeta in (0, 1) for m in range(-30, 31)}
    monkeypatch.setattr(sequiver, "denominator_roots_raw", lambda g, k, l: asymmetric)
    monkeypatch.setattr(sequiver, "_raw_tables", lambda g: lambda k, l: asymmetric)
    with pytest.raises(AssertionError) as single:
        class_arrow_mult(v, w)
    with pytest.raises(AssertionError) as whole:
        schur_weyl_quiver(ar, 2)
    text = f"arrow multiplicity ill-defined between {v} and {w}"
    assert str(whole.value) == str(single.value) == text


def ar_data_oracle(q: DynkinQuiver, xi, table):
    """Gamma_Q from the phi table on the tight window of xi, its column
    reading and that word's root sequence: the inverse by a loop, the slice by
    spin, the reading by sorting, the word certified by its length, the arrows
    by set probes and sorting, m by counting letters."""
    t = q.ftype
    window = (min(xi.values()) - 2 * t.rank - 2, max(xi.values()))
    inv = {}
    for vertex, key in table.items():
        if key in inv:
            raise AssertionError(f"phi is not injective on the window at {key}")
        inv[key] = vertex
    gamma = frozenset(v for v, (_, spin) in table.items() if spin == 0)
    if len(gamma) != t.num_positive_roots():
        raise AssertionError("spin-0 slice does not match the positive roots")
    w0 = tuple(i for _, i in sorted((-p, i) for i, p in gamma))
    if not is_adapted(q, w0):
        raise AssertionError("column reading is not adapted to the orientation")
    if not rootsys.represents_w0(t, w0):
        raise AssertionError("column reading is not a longest-element word")
    order = root_sequence(t, w0)
    adj = rootsys._adjacency(t)
    arrows = sorted(((i, p), (j, p + 1)) for i, p in gamma for j in adj[i] if (j, p + 1) in gamma)
    m = {i: w0.count(i) - 1 for i in t.index_set}
    return ARData(q, xi, window, table, inv, gamma, tuple(arrows), m), w0, order


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_gamma_read_off_the_knit_matches_the_derivations(t):
    """Every orientation: _tau_data's fields, word and order equal the
    derivations from the Coxeter-path table, with the same dict orders, and
    so does ar_quiver at every base."""
    n = t.rank
    for q in all_orientations(t):
        xi0 = height_function(q)
        tight = (min(xi0.values()) - 2 * n - 2, max(xi0.values()))
        items = phi_items_oracle(q, xi0, tight)
        got = quiver._tau_data.__wrapped__(q)
        want = ar_data_oracle(q, xi0, dict(items))
        assert _same_items(got[0]._fields(got[0]), want[0]._fields(want[0])), q
        assert got[1:] == want[1:], q
        for base in _bases(t):
            xi = height_function(q, *base)
            d = xi[1] - xi0[1]
            ar, want = ar_quiver(q, xi), ar_data_oracle(q, xi, dict(_moved(items, d, tight)))[0]
            assert _same_items(ar._fields(ar), want._fields(want)), (q, base)


@cache
def positive_roots_oracle(t: FiniteType) -> frozenset[tuple[int, ...]]:
    """The simple roots closed under every simple reflection."""
    found = {_unit(t, i) for i in t.index_set}
    frontier = list(found)
    while frontier:
        nxt = []
        for v in frontier:
            for i in t.index_set:
                w = reflect(t, i, v)
                if w not in found and all(c >= 0 for c in w):
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(found)


ROOT_TYPES = tuple(FiniteType("A", n) for n in (*range(2, 25), 32, 48, 64)) + tuple(
    FiniteType("D", n) for n in (*range(4, 25), 32, 48, 64)
)


@pytest.mark.parametrize("t", ROOT_TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_positive_roots_from_one_word_match_the_reflection_closure(t):
    assert positive_roots(t) == positive_roots_oracle(t)


def all_distances_oracle(t: FiniteType) -> dict[tuple[int, int], int]:
    """Breadth-first search from every vertex of the diagram."""
    dist = {}
    for start in t.index_set:
        seen = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in neighbors(t, v):
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        nxt.append(w)
            frontier = nxt
        for v, d in seen.items():
            dist[(start, v)] = d
    return dist


def test_closed_form_distances_match_the_breadth_first_search():
    """Every pair of vertices of A2-A64 and D4-D64, computed past the cache."""
    for t in [FiniteType("A", n) for n in range(2, 65)] + [FiniteType("D", n) for n in range(4, 65)]:
        assert rootsys._all_distances.__wrapped__(t) == all_distances_oracle(t), t


def w0_sequence_oracle(t: FiniteType, word):
    """The root sequence, kept when its set is all of the positive roots."""
    try:
        seq = root_sequence(t, word)
    except ValueError:
        return None
    return seq if set(seq) == positive_roots_oracle(t) else None


def _w0_sequence(t: FiniteType, word):
    """The root sequence of a word represents_w0 accepts, else None."""
    return root_sequence(t, word) if rootsys.represents_w0(t, word) else None


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_w0_by_length_matches_the_root_set_check(t):
    """Every orientation's w0 and Coxeter words and their reversals."""
    verdicts = []
    for q in all_orientations(t):
        for target in ("w0", "coxeter"):
            word = adapted_word(q, target)
            for w in (word, word[::-1]):
                seq = _w0_sequence(t, w)
                assert seq == w0_sequence_oracle(t, w)
                verdicts.append(seq is not None)
    assert any(verdicts) and not all(verdicts)


@st.composite
def near_w0_words(draw):
    """A word of |Phi+| or |Phi+| +- 2 letters: an adapted w0 word with a few
    letters replaced, dropped or inserted, or arbitrary letters."""
    t = draw(SMALL)
    size = t.num_positive_roots() + draw(st.sampled_from((-2, 0, 2)))
    letter = st.integers(1, t.rank)
    if draw(st.booleans()):
        return t, tuple(draw(st.lists(letter, min_size=size, max_size=size)))
    word = list(adapted_word(draw(st.sampled_from(all_orientations(t))), "w0"))
    for _ in range(draw(st.integers(0, 2))):
        word[draw(st.integers(0, len(word) - 1))] = draw(letter)
    while len(word) > size:
        del word[draw(st.integers(0, len(word) - 1))]
    while len(word) < size:
        word.insert(draw(st.integers(0, len(word))), draw(letter))
    return t, tuple(word)


@given(near_w0_words())
def test_w0_by_length_matches_the_root_set_check_on_random_words(tw):
    t, word = tw
    assert _w0_sequence(t, word) == w0_sequence_oracle(t, word)


def lattice_test_oracle(g: AffineType, seed: SeVertex):
    """Membership predicate for the parity lattice of Se(g) through the seed,
    one closure per type, each dividing by the seed's parameter."""
    n = g.N
    if g.twist == 1:
        t = g.classical()

        def untwisted(j: int, x: SpectralParam) -> bool:
            e = (x / seed.x).minus_q_exponent()
            return e is not None and e % 2 == distance(t, seed.i, j) % 2

        return untwisted
    if g.family == "A":
        if n % 2 == 0:

            def even_a(j: int, x: SpectralParam) -> bool:
                return (x / seed.x).minus_q_exponent() is not None

            return even_a

        def odd_a(j: int, x: SpectralParam) -> bool:
            r = x / seed.x
            return r.zeta % 2 == 0 and r.m % 2 == (seed.i + j) % 2

        return odd_a

    def chi(j: int, x: SpectralParam) -> int:
        return (x.zeta + x.m + (1 if j == n - 1 else 0)) % 2

    def mu(j: int, x: SpectralParam) -> int:
        return (x.m + (n - 1 - j if j <= n - 2 else 0)) % 2

    c0, m0 = chi(seed.i, seed.x), mu(seed.i, seed.x)

    def twisted_d(j: int, x: SpectralParam) -> bool:
        return chi(j, x) == c0 and mu(j, x) == m0

    return twisted_d


def lattice_classes_oracle(g, seeds, power_bound):
    """Every (j, zeta, m) as a class, kept when a seed's lattice holds it,
    deduplicated through a set and sorted by (index, q-power, zeta)."""
    if power_bound < 0:
        raise ValueError(f"power bound must be non-negative, got {power_bound}")
    tests = [lattice_test_oracle(g, s) for s in seeds]
    classes = set()
    for j in g.index_set:
        for zeta in range(4):
            for m in range(-power_bound, power_bound + 1):
                v = vertex_class(g, j, SpectralParam(zeta, m))
                if any(t(v.i, v.x) for t in tests):
                    classes.add(v)
    return tuple(sorted(classes, key=lambda v: (v.i, v.x.m, v.x.zeta)))


@pytest.mark.parametrize("g", SE_TYPES, ids=lambda g: f"{g.code}_{g.N}")
def test_lattice_classes_from_representatives_match_set_and_sort(g):
    """The --se0 seed, and seeds with zeta = 0..3 at a sign-quotient node (at
    the top index where there is none), alone and together, at every bound
    0 .. 2N + 1."""
    node = next((i for i in g.index_set if has_sign_quotient(g, i)), g.index_set[-1])
    zeta_seeds = [vertex_class(g, node, SpectralParam(zeta, 1)) for zeta in range(4)]
    seed_sets = [[se0_seed(g)], *([s] for s in zeta_seeds), zeta_seeds]
    for bound in range(2 * g.N + 2):
        for seeds in seed_sets:
            fast = _lattice_classes(g, seeds, bound)
            assert fast == lattice_classes_oracle(g, seeds, bound), (seeds, bound)
    with pytest.raises(ValueError, match="non-negative"):
        _lattice_classes(g, seed_sets[0], -1)


@pytest.mark.parametrize("g", SE_TYPES, ids=lambda g: f"{g.code}_{g.N}")
def test_lattice_key_matches_the_closures(g):
    """Equal parity keys exactly when the old closure of the seed holds the
    point, for every seed and point (j, i^zeta q^m) with |m| <= 2N + 1; so
    are lattice_test and se0_contains."""
    points = [
        (j, SpectralParam(zeta, m))
        for j in g.index_set
        for zeta in range(4)
        for m in range(-2 * g.N - 1, 2 * g.N + 2)
    ]
    keys = [sequiver._lattice_key(g, j, x.zeta, x.m) for j, x in points]
    se0 = lattice_test_oracle(g, se0_seed(g))
    for (i, y), seed_key in zip(points, keys):
        seed = vertex_class(g, i, y)
        holds = lattice_test_oracle(g, seed)
        assert [holds(j, x) for j, x in points] == [key == seed_key for key in keys], seed
        assert sequiver.lattice_test(g, seed)(i, y) and holds(i, y)
        assert sequiver.se0_contains(g, i, y) == se0(seed.i, seed.x), seed


def test_lattice_classes_compute_one_key_per_seed_and_candidate(monkeypatch):
    """One key per seed and one per candidate class, however many seeds share
    a lattice; repeated seeds, or more seeds of the same lattice, give the
    same window."""
    g, bound = AffineType("D", 1, 8), 16
    lattice = _lattice_classes(g, [se0_seed(g)], bound)
    candidates = sum(
        (2 if has_sign_quotient(g, j) else 4) * (2 * bound + 1) for j in g.index_set
    )
    calls = []
    true_key = sequiver._lattice_key

    def counting(*args):
        calls.append(args)
        return true_key(*args)

    monkeypatch.setattr(sequiver, "_lattice_key", counting)
    for seeds in ([se0_seed(g)], [se0_seed(g)] * 50, list(lattice)):
        calls.clear()
        assert _lattice_classes(g, seeds, bound) == lattice
        assert 0 < len(calls) <= len(seeds) + candidates
    window = se_window(g, [se0_seed(g)], bound)
    assert se_window(g, [se0_seed(g)] * 3 + list(lattice[::7]), bound) == window


def pi_preimages_oracle(v: SeVertex):
    """Every index a folding onto v.i with each member of v divided by its
    i-power, kept when pi maps it back onto v, deduplicated and sorted."""
    g1 = v.g.partner()
    found = set()
    for a in g1.index_set:
        j, power = sequiver._pi_index_mult(g1, a)
        if j != v.i:
            continue
        for w in v.members():
            y = w.times_i_power(-power)
            if pi(g1, a, y) == v:
                found.add((a, (y.zeta, y.m)))
    out = tuple(
        (a, SpectralParam(z, m)) for a, (z, m) in sorted(found, key=lambda t: (t[0], t[1][1], t[1][0]))
    )
    if len(out) != 2:
        raise AssertionError(f"fold fiber of {v} has size {len(out)}, expected 2")
    return out


@pytest.mark.parametrize(
    "g", [g for g in SE_TYPES if g.twist == 2 and g.N <= 6], ids=lambda g: f"{g.code}_{g.N}"
)
def test_fold_fibres_by_construction_match_the_search(g):
    """Every twisted class with |m| <= 4N."""
    classes = _classes(g, 4 * g.N)
    assert [sequiver.pi_preimages(v) for v in classes] == [pi_preimages_oracle(v) for v in classes]


def test_pi_preimages_rejects_an_untwisted_class():
    with pytest.raises(ValueError, match="twisted-type vertex"):
        sequiver.pi_preimages(vertex_class(AffineType("D", 1, 4), 1, SpectralParam.one()))


def embed_pair_loop_oracle(g1, v, w):
    """embed_pair_in_AR scanning v's row of each monotone Gamma_Q for the
    first position s with w's position s + e in w's row."""
    if dual_point(g1, v.i, v.x) == (w.i, w.x) or right_dual_point(g1, v.i, v.x) == (w.i, w.x):
        return dorey.EmbedResult(False, "dual pair")
    ratio = w.x / v.x
    e = ratio.minus_q_exponent()
    if e is None or (
        zero_order(g1, v.i, w.i, ratio) == 0 and zero_order(g1, w.i, v.i, ratio.inverse()) == 0
    ):
        return dorey.EmbedResult(False, "not adjacent")
    for q in dorey._search_orientations(g1.classical()):
        ar = dorey._ar_cached(q)
        xi = ar.height
        for s in range(xi[v.i] - 2 * ar.m[v.i], xi[v.i] + 1, 2):
            pos_w = s + e
            if not xi[w.i] - 2 * ar.m[w.i] <= pos_w <= xi[w.i]:
                continue
            if (pos_w - xi[w.i]) % 2 != 0:
                continue
            shift = v.x / SpectralParam.minus_q_power(s)
            return dorey.EmbedResult(True, None, q, dict(xi), shift, ((v.i, s), (w.i, pos_w)))
    raise AssertionError(f"no AR-quiver embedding found for {v} and {w}")


@pytest.mark.parametrize(
    "t", [t for t in TYPES if t.rank <= 6], ids=lambda t: f"{t.family}{t.rank}"
)
def test_embedding_position_in_closed_form_matches_the_row_scan(t):
    """The universe of the lemma_embedding check: every ordered pair a < b of
    the Se0 window with bound 2N, plus the same pairs reversed."""
    g1 = AffineType(t.family, 1, t.rank)
    verts = sequiver.se0_window(g1, 2 * t.rank)
    pairs = [(v, w) for a, v in enumerate(verts) for w in verts[a + 1:]]
    pairs += [(w, v) for v, w in pairs]
    fast = [_embed_outcome(g1, v, w) for v, w in pairs]
    assert fast == [embed_pair_loop_oracle(g1, v, w) for v, w in pairs]
    assert {r.reason for r in fast} == {None, "dual pair", "not adjacent"}


# The frozen dataclasses that the slotted value classes replaced, field for
# field and with their __post_init__ checks.  make_dataclass names each twin
# after its class, so the two reprs compare byte for byte.


def _finite_type_post_init(self):
    if self.family not in ("A", "D"):
        raise ValueError(f"unknown family: {self.family!r}")
    lo = 2 if self.family == "A" else 4
    if self.rank < lo:
        raise ValueError(f"type {self.family} needs rank >= {lo}, got {self.rank}")


def _spectral_param_post_init(self):
    object.__setattr__(self, "zeta", self.zeta % 4)


def _affine_type_post_init(self):
    if self.family not in ("A", "D"):
        raise ValueError(f"unknown family {self.family!r}")
    if self.twist not in (1, 2):
        raise ValueError(f"twist must be 1 or 2, got {self.twist}")
    low = 2 if self.family == "A" else 4
    if self.N < low:
        raise ValueError(f"type {self.family} needs N >= {low}, got {self.N}")


def _dynkin_quiver_post_init(self):
    object.__setattr__(self, "arrows", tuple(sorted(self.arrows)))
    undirected = sorted(tuple(sorted(a)) for a in self.arrows)
    if undirected != sorted(self.ftype.edges()):
        raise ValueError("arrows do not orient the Dynkin edges exactly once each")


def _se_vertex_post_init(self):
    if self.i not in self.g.index_set:
        raise ValueError(f"index {self.i} out of range for {self.g.code} N={self.g.N}")
    if has_sign_quotient(self.g, self.i) and self.x.zeta >= 2:
        object.__setattr__(self, "x", -self.x)


def _labeled_quiver_post_init(self):
    labeled_quiver_oracle(self.vertices, self.arrows)


def _dorey_triple_post_init(self):
    idx = self.g.index_set
    for i, _ in (self.a, self.b, self.c):
        if i not in idx:
            raise ValueError(f"index {i} out of range for {self.g.code} N={self.g.N}")


# class -> (its old fields in order, "=" marking a default of None; its old
# __post_init__; whether it had order=True)
_DATACLASS_SPECS = {
    FiniteType: ("family rank", _finite_type_post_init, True),
    SpectralParam: ("zeta m", _spectral_param_post_init, False),
    AffineType: ("family twist N", _affine_type_post_init, True),
    DenominatorZeros: ("g k l factors roots", None, False),
    DynkinQuiver: ("ftype arrows", _dynkin_quiver_post_init, True),
    ARData: (
        "quiver height window phi phi_inv gamma_vertices gamma_arrows m", None, False
    ),
    ConvexPartialOrder: ("roots pairs", None, False),
    SeVertex: ("g i x", _se_vertex_post_init, False),
    LabeledQuiver: ("vertices arrows", _labeled_quiver_post_init, False),
    SchurWeylDatum: ("entries s X quiver cartan qexp", None, False),
    dorey.DoreyTriple: ("g a b c", _dorey_triple_post_init, False),
    dorey.DoreyVerdict: ("holds condition= witness=", None, False),
    dorey.EmbedResult: ("found reason= quiver= height= shift= positions=", None, False),
    VerifyReport: ("check_name universe passed counterexample elapsed_ms cases", None, False),
}


def _dataclass_twin(cls, names, post_init, order):
    fields = [
        (name[:-1], object, None) if name.endswith("=") else (name, object)
        for name in names.split()
    ]
    namespace = {"__post_init__": post_init} if post_init else {}
    return make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True, order=order)


DATACLASS_TWINS = {cls: _dataclass_twin(cls, *spec) for cls, spec in _DATACLASS_SPECS.items()}


def _value_samples():
    """(class, args, kwargs) per class: hand-picked fields, and the fields of
    library results re-passed the way the library passes them."""
    g1, g2, d2 = AffineType("A", 1, 4), AffineType("A", 2, 5), AffineType("D", 2, 5)
    x, y = SpectralParam(1, 2), SpectralParam(2, -3)
    q = DynkinQuiver(A3, ((1, 2), (3, 2)))
    q2 = DynkinQuiver(FiniteType("D", 4), ((2, 1), (2, 3), (4, 2)))
    ar, ar2 = ar_quiver(q), ar_quiver(q2)
    v = vertex_class(g1, 1, SpectralParam.one())
    w = vertex_class(g1, 2, SpectralParam.minus_q_power(3))

    def fields(obj):
        return tuple(getattr(obj, name) for name in type(obj).__slots__)

    def keywords(obj):
        return {name: getattr(obj, name) for name in type(obj).__slots__}

    return [
        (FiniteType, ("A", 2), {}), (FiniteType, ("A", 5), {}), (FiniteType, ("D", 4), {}),
        (FiniteType, (), {"family": "D", "rank": 7}),
        (SpectralParam, (1, 2), {}), (SpectralParam, (5, -3), {}), (SpectralParam, (-1, 0), {}),
        (SpectralParam, (), {"zeta": 6, "m": 7}), (SpectralParam, (3, 2), {}),
        (AffineType, ("A", 1, 3), {}), (AffineType, ("A", 2, 4), {}),
        (AffineType, ("D", 1, 4), {}), (AffineType, (), {"family": "D", "twist": 2, "N": 6}),
        (DenominatorZeros, fields(denominator(g1, 1, 2)), {}),
        (DenominatorZeros, (), keywords(denominator(d2, 2, 3))),
        (DynkinQuiver, (A3, ((3, 2), (1, 2))), {}), (DynkinQuiver, (A3, ((2, 1), (2, 3))), {}),
        (DynkinQuiver, (A3, ((1, 2), (2, 3))), {}), (DynkinQuiver, fields(q2), {}),
        (DynkinQuiver, (), {"ftype": FiniteType("A", 2), "arrows": [(2, 1)]}),
        (ARData, (), keywords(ar)), (ARData, fields(ar2), {}),
        (ConvexPartialOrder, fields(quiver.convex_order_Q(ar)), {}),
        (ConvexPartialOrder, (), keywords(quiver.convex_order_Q(ar2))),
        (SeVertex, (g1, 2, y), {}), (SeVertex, (d2, 1, y), {}), (SeVertex, (d2, 1, x), {}),
        (SeVertex, (g2, 3, -x), {}), (SeVertex, (), {"g": g2, "i": 1, "x": y}),
        (LabeledQuiver, ((("a", "A"), ("b", "B")), (("a", "b", 2),)), {}),
        (LabeledQuiver, (), {"vertices": (("a", "A"),), "arrows": ()}),
        (SchurWeylDatum, fields(schur_weyl_quiver(ar, 1)), {}),
        (SchurWeylDatum, (), keywords(schur_weyl_quiver(ar2, 2))),
        (dorey.DoreyTriple, (g1, (1, x), (2, y), (3, x)), {}),
        (dorey.DoreyTriple, (), {"g": g2, "a": (1, x), "b": (1, y), "c": (2, x)}),
        (dorey.DoreyVerdict, (True,), {}), (dorey.DoreyVerdict, (False,), {}),
        (dorey.DoreyVerdict, (True, "A-i"), {}),
        (dorey.DoreyVerdict, (True,), {"witness": ((1, x), (2, y), (3, x))}),
        (dorey.EmbedResult, (False, "dual pair"), {}),
        (dorey.EmbedResult, (False,), {"reason": "not adjacent"}),
        (dorey.EmbedResult, fields(dorey.embed_pair_in_AR(g1, v, w)), {}),
        (VerifyReport, ("pole_class", "every triple", True, None, 7, 164), {}),
        (VerifyReport, (), {
            "check_name": "m_values", "universe": "A2", "passed": False,
            "counterexample": "A2: m", "elapsed_ms": 12, "cases": 3,
        }),
    ]


VALUE_ERRORS = [
    (FiniteType, ("B", 3)), (FiniteType, ("A", 1)), (FiniteType, ("D", 3)),
    (AffineType, ("C", 1, 3)), (AffineType, ("A", 3, 3)), (AffineType, ("D", 1, 3)),
    (DynkinQuiver, (A3, ((1, 2),))), (DynkinQuiver, (A3, ((1, 2), (2, 1), (2, 3)))),
    (SeVertex, (AffineType("A", 2, 4), 3, SpectralParam.one())),
    (SeVertex, (AffineType("D", 1, 4), 0, SpectralParam.one())),
    (LabeledQuiver, ((("a", "A"), ("a", "B")), ())),
    (LabeledQuiver, ((("a", "A"),), (("a", "b", 1),))),
    (LabeledQuiver, ((("a", "A"), ("b", "B")), (("a", "b", 0),))),
    (LabeledQuiver, ((("a", "A"),), (("a", "a", 1),))),
    (LabeledQuiver, ((("a", "A"), ("b", "B")), (("a", "b", 1), ("b", "a", 1)))),
    (dorey.DoreyTriple, (AffineType("A", 2, 4), *((i, SpectralParam.one()) for i in (1, 3, 1)))),
]


def _result_or_error(fn, *args):
    """fn's result, or the type and text of the exception it raised; a
    dataclass's FrozenInstanceError counts as the AttributeError it is."""
    try:
        return fn(*args)
    except FrozenInstanceError as exc:
        return AttributeError, str(exc)
    except (AttributeError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_value_classes_keep_the_dataclass_signatures():
    """Same parameters, kinds and defaults, and fields in the same order."""
    for cls, twin in DATACLASS_TWINS.items():
        params = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
        assert params == [
            (p.name, p.kind, p.default) for p in inspect.signature(twin).parameters.values()
        ], cls.__name__
        assert cls.__slots__ == tuple(f.name for f in dataclass_fields(twin)), cls.__name__


@pytest.mark.parametrize("cls", list(DATACLASS_TWINS), ids=lambda cls: cls.__name__)
def test_value_classes_behave_as_the_frozen_dataclasses(cls):
    """repr, ==, hash, ordering, immutability, pickle and copies of sampled
    instances against the dataclass twins."""
    twin, ordered = DATACLASS_TWINS[cls], _DATACLASS_SPECS[cls][2]
    pairs = [
        (cls(*args, **kwargs), twin(*args, **kwargs))
        for c, args, kwargs in _value_samples() if c is cls
    ]
    assert len(pairs) >= 2
    for new, old in pairs:
        assert repr(new) == repr(old)
        assert _result_or_error(hash, new) == _result_or_error(hash, old)
        assert [getattr(new, n) for n in cls.__slots__] == [getattr(old, n) for n in cls.__slots__]
        for name in (*cls.__slots__, "extra"):
            assert _result_or_error(setattr, new, name, 0) == _result_or_error(setattr, old, name, 0)
            assert _result_or_error(delattr, new, name) == _result_or_error(delattr, old, name)
            assert _result_or_error(setattr, new, name, 0)[0] is AttributeError
        assert new != old and old != new
        for copied in (pickle.loads(pickle.dumps(new)), copy.copy(new), copy.deepcopy(new)):
            assert type(copied) is cls and copied == new
        assert copy.deepcopy(old) == old
    for (a, old_a), (b, old_b) in product(pairs, repeat=2):
        assert (a == b, a != b) == (old_a == old_b, old_a != old_b)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert _result_or_error(op, a, b) == _result_or_error(op, old_a, old_b)
            assert isinstance(_result_or_error(op, a, b), bool) == ordered


@pytest.mark.parametrize(
    "cls, args", VALUE_ERRORS, ids=[f"{cls.__name__}-{k}" for k, (cls, _) in enumerate(VALUE_ERRORS)]
)
def test_value_classes_raise_the_dataclass_errors(cls, args):
    new = _result_or_error(cls, *args)
    assert new == _result_or_error(DATACLASS_TWINS[cls], *args)
    assert new[0] is ValueError
