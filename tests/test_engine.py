import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lexcount import engine
from lexcount.engine import (_avoider_dp, avoiders, count_avoiders,
                             count_extensions, format_avoiders, insert_213,
                             is_extension, linear_extensions, list_avoiders,
                             listing)
from lexcount.formulas import fuss_catalan
from lexcount.perms import contains, format_perm, inv, maj
from lexcount.qstats import stat_gf
from lexcount.posets import (FAMILIES, GridPoset, build, parse_poset_spec,
                             saw_poset, zip_poset)
from lexcount.transfer import count_2143


def brute_avoiders(poset, patterns):
    """Reference implementation: filter the raw extension stream."""
    return [pi for pi in linear_extensions(poset)
            if all(not contains(pi, s) for s in patterns)]


def cyclic_poset():
    return GridPoset(family="EN", s=2, t=2,
                     extra_before=frozenset({(1, 2), (2, 1)}))


def cyclic_posets():
    """The two-element cycle above, and the self-loop 2 before 2."""
    return [cyclic_poset(),
            GridPoset(family="EN", s=2, t=2, extra_before=frozenset({(2, 2)}))]


SHAPES = [(1, 1), (1, 4), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]
PATTERNS = [(1, 2, 3), (3, 2, 1), (2, 1, 3), (2, 1, 4, 3), (1, 2, 4, 3),
            (1, 2, 3, 5, 4)]


class TestEnumeration:
    def test_chain_has_one_extension(self):
        assert list(linear_extensions(build("EN", 1, 1))) == [(1,)]
        assert count_avoiders(build("NE", 4, 1), []) == 1

    def test_2x2(self):
        # EN 2x2: 3 must come before 1, 2 before... enumerate and check
        exts = list(linear_extensions(build("EN", 2, 2)))
        assert len(exts) == 2
        assert exts == sorted(exts)  # lexicographic order

    def test_empty_poset(self):
        assert list(avoiders(GridPoset("EN", 0, 1), [])) == [()]

    def test_empty_pattern_forbids_all(self):
        assert list(avoiders(build("EN", 2, 2), [()])) == []

    def test_lex_order(self):
        for s, t in SHAPES:
            exts = list(linear_extensions(build("NE", s, t)))
            assert exts == sorted(exts)

    def test_all_outputs_are_extensions(self):
        p = build("EN", 3, 2)
        for pi in linear_extensions(p):
            assert is_extension(p, pi)

    def test_wrong_length_is_no_extension(self):
        # (3, 1, 4, 2) is an extension of EN:2x2
        assert not is_extension(build("EN", 2, 2), (3, 1, 4))
        assert not is_extension(build("EN", 2, 2), (3, 1, 4, 2, 5))

    def test_cycle_detected_eagerly(self):
        for poset in cyclic_posets():
            with pytest.raises(ValueError, match="cycle"):
                avoiders(poset, [])
            with pytest.raises(ValueError, match="cycle"):
                poset.must_precede(1, 2)

    def test_cycle_detected_with_the_empty_pattern(self):
        with pytest.raises(ValueError, match="cycle"):
            avoiders(cyclic_poset(), [()])


class TestPatternPruning:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sigma", PATTERNS)
    @pytest.mark.parametrize("family", ["EN", "NE"])
    def test_matches_filtering(self, shape, sigma, family):
        p = build(family, *shape)
        assert list(avoiders(p, [sigma])) == brute_avoiders(p, [sigma])

    def test_multiple_patterns(self):
        p = build("NE", 3, 2)
        pats = [(2, 1, 3), (1, 2, 3)]
        assert list(avoiders(p, pats)) == brute_avoiders(p, pats)

    def test_duplicate_patterns_collapse(self):
        p = build("NE", 2, 3)
        assert (count_avoiders(p, [(1, 2, 3), [1, 2, 3], (1, 2, 3)])
                == count_avoiders(p, [(1, 2, 3)]) == 5)


class TestCounting:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_grid_dp_matches_enumeration(self, shape):
        for family in ("EN", "NE", "SW"):
            p = build(family, *shape)
            assert count_extensions(p) == sum(1 for _ in linear_extensions(p))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_augmented_dp_matches_enumeration(self, shape):
        for p in (saw_poset(*shape), zip_poset(*shape)):
            assert count_extensions(p) == sum(1 for _ in linear_extensions(p))

    def test_augmented_posets_have_no_size_cap(self):
        # saw extensions are the 1243-avoiders, zip ones the 2143-avoiders
        for s, t in ((5, 6), (6, 6), (10, 10)):
            assert count_extensions(saw_poset(s, t)) == fuss_catalan(s, t)
        for s, t in ((5, 5), (6, 6), (12, 12)):
            assert count_extensions(zip_poset(s, t)) == count_2143(s, t)

    def test_large_grid_dp_is_fine(self):
        # the order-ideal DP does not materialize extensions
        assert count_extensions(build("EN", 6, 6)) > 10 ** 9


_shapes = st.integers(1, 12).flatmap(
    lambda s: st.tuples(st.just(s), st.integers(1, 12 // s)))
_posets = st.one_of(
    st.builds(lambda f, sh: build(f, *sh), st.sampled_from(FAMILIES), _shapes),
    st.builds(lambda sh: saw_poset(*sh), _shapes),
    st.builds(lambda sh: zip_poset(*sh), _shapes))
_patterns = st.lists(
    st.integers(1, 4).flatmap(
        lambda m: st.permutations(range(1, m + 1)).map(tuple)),
    max_size=3)


class TestAvoiderDP:
    """count_avoiders (state DP) against avoiders (plain backtracking)."""

    @given(_posets, _patterns)
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, poset, patterns):
        assert (count_avoiders(poset, patterns)
                == sum(1 for _ in avoiders(poset, patterns)))

    def test_empty_pattern(self):
        assert count_avoiders(build("EN", 2, 2), [()]) == 0
        assert count_avoiders(GridPoset("EN", 0, 1), [(1, 2), ()]) == 0

    def test_empty_poset(self):
        assert count_avoiders(GridPoset("EN", 0, 1), []) == 1
        assert count_avoiders(GridPoset("EN", 0, 1), [(1,)]) == 1

    def test_length_one_pattern(self):
        assert count_avoiders(build("NE", 2, 3), [(1,)]) == 0
        assert count_avoiders(build("NE", 1, 1), [(1,), (2, 1)]) == 0

    def test_cycle_detected(self):
        for poset in cyclic_posets():
            with pytest.raises(ValueError, match="cycle"):
                count_avoiders(poset, [(1, 2, 3)])
            with pytest.raises(ValueError, match="cycle"):
                count_extensions(poset)

    def test_cycle_detected_with_the_empty_pattern(self):
        with pytest.raises(ValueError, match="cycle"):
            count_avoiders(cyclic_poset(), [()])

    def test_bad_pattern(self):
        with pytest.raises(ValueError, match="not a permutation"):
            count_avoiders(build("EN", 2, 2), [(1, 3)])

    def test_en_5x5_2143(self):
        # the published t = 5, s = 5 entry of the 2143 table
        assert count_avoiders(build("EN", 5, 5), [(2, 1, 4, 3)]) == 266110

    def test_two_routes_past_the_other_tests(self):
        # 24 and 30 elements, each against a second route
        assert (count_avoiders(build("EN", 8, 3), [(1, 2, 4, 3)])
                == fuss_catalan(8, 3) == 43263)
        assert (count_avoiders(build("EN", 10, 3), [(2, 1, 4, 3)])
                == count_2143(10, 3) == 514229)

    def test_dominated_matches_are_dropped(self):
        # NE:6x6 avoiding 123 takes 63,357 states over all layers if every
        # partial match is kept; the non-dominated ones leave 3,676
        assert states_built(build("NE", 6, 6), [(1, 2, 3)]) < 10_000

    def test_dead_states_are_killed(self):
        # a match of 214 is dead or dropped as soon as it forms: 15,482
        # states without the gap rules, 285 with them
        assert states_built(build("EN", 10, 3), [(2, 1, 4, 3)]) < 1_000
        # sweep's repeated problem: 1,311 states without, 340 with
        assert states_built(build("EN", 4, 5),
                            [(1, 3, 2, 4), (2, 4, 1, 3)]) < 600
        # a live state's matches of 12 have no value left above them, so
        # they are dropped: 1,835 states if they were kept, 923 without
        assert states_built(build("NE", 6, 6), [(1, 2, 3)]) < 1_000

    @pytest.mark.parametrize("spec, patterns, states", [
        # the count problems and the 2143 table of the benchmark's sweep
        ("NE:4x5", ["123"], 125),
        ("EN:4x5", ["1324"], 570),
        ("NE:4x5", ["2143"], 125),
        ("EN:4x5", ["2413"], 289),
        ("EN:4x5", ["1324", "2413"], 340),
        ("EN:4x5", ["2143"], 125),
        # larger shapes, one per pattern class
        ("EN:8x5", ["2143"], 1_286),
        ("EN:8x3", ["1324"], 1_424),
        ("NE:8x4", ["123"], 494),
        ("EN:12x4", ["1243"], 1_819)])
    def test_exact_state_counts(self, spec, patterns, states):
        # the reduction keeps exactly the undominated live matches, so any
        # change to it that keeps the answers must keep these counts too
        assert states_built(parse_poset_spec(spec),
                            [tuple(map(int, p)) for p in patterns]) == states

    def test_reach_against_the_transfer_matrix(self):
        # 40 elements, past every test that runs backtracking
        assert (count_avoiders(build("EN", 8, 5), [(2, 1, 4, 3)])
                == count_2143(8, 5) == 1825158051)


def states_built(poset, patterns):
    """The number of distinct states the avoider DP builds over all
    layers."""
    states = set()

    def edge(nxt, state, ways, mask, x, r, k):
        states.add(state)
        nxt[state] = ways

    _avoider_dp(poset, patterns, 1, edge)
    return len(states)


def one_extra_pair():
    """EN:3x4 with 1 before 12 as well: the pair points across the whole
    grid, 341 extensions of the 462."""
    return GridPoset("EN", 3, 4, frozenset({(1, 12)}))


class TestPinnedOutputs:
    """Exact outputs on posets with more than the two grid offsets, a dual
    family and an arbitrary extra pair: the DP's state count, the lines of
    `list` (in the order backtracking gives, and as a digest of the text)
    and both q-polynomials as sums over those extensions."""

    CASES = [
        (saw_poset(4, 3), [], 24, 55, "b47b911d4e2b8343"),
        (saw_poset(4, 3), [(2, 4, 1, 3)], 39, 17, "032d4c3b738b6525"),
        (zip_poset(5, 4), [], 44, 9841, "b2bd472618518109"),
        (zip_poset(5, 4), [(1, 3, 2, 4)], 95, 1705, "d10293acc8b76d5f"),
        (build("WS", 3, 4), [], 34, 462, "bd4781fa47afe6f6"),
        (build("WS", 3, 4), [(3, 1, 4, 2)], 70, 61, "8f3b43c89190c120"),
        (one_extra_pair(), [], 29, 341, "0d6f30fb3aba0bad"),
        (one_extra_pair(), [(2, 4, 1, 3)], 41, 34, "0f45260de16ce44d")]

    @pytest.mark.parametrize("poset, patterns, states, count, digest", CASES)
    def test_outputs(self, poset, patterns, states, count, digest):
        assert states_built(poset, patterns) == states
        exts = list(avoiders(poset, patterns))
        lines = format_avoiders(poset, patterns)
        assert lines == [format_perm(pi) for pi in exts]
        assert len(lines) == count
        text = "\n".join(lines).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest
        for name, stat in (("inv", inv), ("maj", maj)):
            coeffs = [0] * (max(map(stat, exts)) + 1)
            for pi in exts:
                coeffs[stat(pi)] += 1
            assert stat_gf(poset, patterns, name) == tuple(coeffs)


class TestListAvoiders:
    """list_avoiders (walk of the DP's state graph) against avoiders
    (plain backtracking), order included."""

    @given(_posets, _patterns)
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, poset, patterns):
        assert (list(list_avoiders(poset, patterns))
                == list(avoiders(poset, patterns)))

    def test_sweep(self):
        # every family, every s, t <= 4 with s*t <= 9, every pattern of
        # length 1-4: 3,432 cases
        for family in FAMILIES:
            for s in range(1, 5):
                for t in range(1, min(4, 9 // s) + 1):
                    poset = build(family, s, t)
                    for m in range(1, 5):
                        for sigma in permutations(range(1, m + 1)):
                            got = list(list_avoiders(poset, [sigma]))
                            want = list(avoiders(poset, [sigma]))
                            assert got == want, (family, s, t, sigma)
                            assert count_avoiders(poset, [sigma]) == len(got)
                            assert (format_avoiders(poset, [sigma])
                                    == list(map(format_perm, want)))

    def test_empty_pattern(self):
        assert list(list_avoiders(build("EN", 2, 2), [()])) == []
        assert list(list_avoiders(GridPoset("EN", 0, 1), [(1, 2), ()])) == []

    def test_empty_poset(self):
        assert list(list_avoiders(GridPoset("EN", 0, 1), [])) == [()]
        assert list(list_avoiders(GridPoset("EN", 0, 1), [(1,)])) == [()]

    def test_length_one_pattern(self):
        assert list(list_avoiders(build("NE", 2, 3), [(1,)])) == []
        assert list(list_avoiders(build("NE", 1, 1), [(1,), (2, 1)])) == []

    def test_cycle_detected_eagerly(self):
        for poset in cyclic_posets():
            with pytest.raises(ValueError, match="cycle"):
                list_avoiders(poset, [(1, 2, 3)])

    def test_cycle_detected_with_the_empty_pattern(self):
        with pytest.raises(ValueError, match="cycle"):
            list_avoiders(cyclic_poset(), [()])

    def test_bad_pattern(self):
        with pytest.raises(ValueError, match="not a permutation"):
            list_avoiders(build("EN", 2, 2), [(1, 3)])


class TestFormatAvoiders:
    """format_avoiders (the lines of `list`, built in the walk) against
    format_perm of every extension avoiders gives."""

    @given(_posets, _patterns)
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, poset, patterns):
        assert (list(format_avoiders(poset, patterns))
                == [format_perm(p) for p in avoiders(poset, patterns)])

    def test_empty_poset(self):
        assert list(format_avoiders(GridPoset("EN", 0, 1), [])) == [""]
        # one empty line, told apart from no line at all
        assert listing(GridPoset("EN", 0, 1), []) == [""]
        assert list_avoiders(GridPoset("EN", 0, 1), []) == [()]

    def test_dead_root(self):
        assert list(format_avoiders(build("NE", 2, 3), [(1,)])) == []
        assert list(format_avoiders(build("EN", 2, 2), [()])) == []
        assert listing(build("NE", 2, 3), [(1,)]) == []
        assert listing(build("EN", 2, 2), [()]) == []

    def test_past_the_block_cap(self):
        # 24,024 lines with the comma separator, far more text than one
        # block may hold, so the walk appends several chunks
        poset = build("EN", 4, 4)
        chunks = listing(poset, [])
        assert len(chunks) > 1
        assert (format_avoiders(poset, [])
                == [format_perm(p) for p in avoiders(poset, [])])

    def test_root_with_one_completion(self):
        # a chain has one extension, so the root's only edge leads to a
        # state with one completion
        assert list(format_avoiders(build("NE", 4, 1), [])) == ["4321"]
        assert list(format_avoiders(build("NE", 11, 1), [])) == [
            "11,10,9,8,7,6,5,4,3,2,1"]
        assert list(list_avoiders(build("NE", 11, 1), [])) == [
            tuple(range(11, 0, -1))]


@pytest.fixture(scope="class", params=[0, 16], ids=["no_blocks", "mixed"])
def small_blocks(request):
    """BLOCK_CAP so small that no state above the last layer gets a block
    (0), or that small cases mix states with and without one (16), so that
    the walk descends and appends chunks where the default cap would give
    the root a block and return it whole."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "BLOCK_CAP", request.param)
        yield request.param


@pytest.mark.usefixtures("small_blocks")
class TestListAvoidersSmallBlocks(TestListAvoiders):
    """TestListAvoiders with small blocks."""


@pytest.mark.usefixtures("small_blocks")
class TestFormatAvoidersSmallBlocks(TestFormatAvoiders):
    """TestFormatAvoiders with small blocks."""

    def test_chunks(self, small_blocks):
        chunks = listing(build("EN", 3, 3), [])
        assert len(chunks) > 1
        assert any("\n" in c for c in chunks) == (small_blocks > 0)


def assert_every_weight_agrees(poset, patterns):
    """Every weight of the DP against backtracking: counts, both
    polynomials as a whole (maj's key must tell apart prefixes whose last
    values differ) and the walk's tuples and text."""
    exts = list(avoiders(poset, patterns))
    assert count_avoiders(poset, patterns) == len(exts)
    for stat, f in (("inv", inv), ("maj", maj)):
        want = [0] * (max(map(f, exts), default=-1) + 1)
        for pi in exts:
            want[f(pi)] += 1
        assert stat_gf(poset, patterns, stat) == tuple(want), stat
    assert list(list_avoiders(poset, patterns)) == exts
    assert (list(format_avoiders(poset, patterns))
            == [format_perm(pi) for pi in exts])


class TestPastTheProperties:
    """Every weight of the DP against backtracking on 13 to 16 elements,
    beyond the 12 the properties above draw."""

    @pytest.mark.parametrize("spec, patterns", [
        ("NE:4x4", [(1, 2, 3)]), ("EN:5x3+saw", []), ("EN:4x4+zip", []),
        ("WS:5x3", [(4, 2, 3, 1)]),
        ("EN:4x4", [(1, 3, 2, 4), (2, 4, 1, 3)])])
    def test_matches_enumeration(self, spec, patterns):
        assert_every_weight_agrees(parse_poset_spec(spec), patterns)


class TestLongerPatterns:
    """Every weight of the DP against backtracking on patterns of length 5
    and 6, past the 4 the properties draw.  From length 5 on, the matches
    of one length can have three or more gaps that bound slots, so the
    dominance reduction compares them pairwise (24 patterns of length 5,
    both of length 6 here)."""

    @pytest.mark.parametrize("spec", [
        "EN:3x3", "NE:3x3", "SW:2x4", "WN:4x2", "ES:3x2", "EN:3x3+saw",
        "EN:3x3+zip"])
    def test_every_length_5_pattern(self, spec):
        poset = parse_poset_spec(spec)
        for sigma in permutations(range(1, 6)):
            assert_every_weight_agrees(poset, [sigma])

    @pytest.mark.parametrize("spec", [
        "EN:4x3", "NE:3x4", "SW:4x3", "EN:6x2", "EN:4x3+zip", "EN:3x4+saw"])
    @pytest.mark.parametrize("sigma", [(1, 3, 4, 6, 2, 5),
                                       (3, 1, 6, 4, 2, 5)])
    def test_length_6_with_two_separated_slots(self, spec, sigma):
        assert_every_weight_agrees(parse_poset_spec(spec), [sigma])


class TestDeadStates:
    """Every weight of the DP against backtracking where the rules that
    kill dead states fire: a match one entry short is dead when its slot
    holds an unplaced value, bounded above by a matched value (132, 2143,
    2413, 3142) or open above and compared with the free count (123, 1324,
    2134, 3124)."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_shape_to_12_elements(self, family):
        for s in range(1, 13):
            for t in range(1, 12 // s + 1):
                poset = build(family, s, t)
                for sigma in [(1, 2, 3), (1, 3, 2, 4), (2, 1, 3, 4),
                              (3, 1, 2, 4), (1, 3, 2), (2, 1, 4, 3),
                              (2, 4, 1, 3), (3, 1, 4, 2)]:
                    assert_every_weight_agrees(poset, [sigma])


class TestFamilySymmetry:
    """NE(s, t) and NW(t, s), like EN(s, t) and WN(t, s), are one poset
    with one labelling, so every count and polynomial must agree."""

    @given(_shapes, _patterns, st.sampled_from([("NE", "NW"), ("EN", "WN")]))
    @settings(max_examples=60, deadline=None)
    def test_swapped_family_agrees(self, shape, patterns, pair):
        s, t = shape
        a, b = build(pair[0], s, t), build(pair[1], t, s)
        assert count_avoiders(a, patterns) == count_avoiders(b, patterns)
        for stat in ("inv", "maj"):
            assert (stat_gf(a, patterns, stat)
                    == stat_gf(b, patterns, stat)), stat


class TestInsert213:
    def test_worked_example(self):
        # growing the single-column 213-avoiders: 987 -> 9867 pattern family
        assert insert_213((3, 2, 1), 1, 3, 1) == (6, 3, 5, 4, 2, 1)
        got = insert_213((6, 3, 5, 4, 2, 1), 2, 3, 2)
        assert got == (9, 8, 6, 7, 3, 5, 4, 2, 1)

    def test_produces_avoiding_extensions(self):
        s, t = 2, 3
        for pi in avoiders(build("NE", s, t), [(2, 1, 3)]):
            for j in range(1, t + 1):
                child = insert_213(pi, s, t, j)
                assert is_extension(build("NE", s + 1, t), child)
                assert not contains(child, (2, 1, 3))

    def test_children_are_distinct(self):
        s, t = 2, 2
        children = set()
        for pi in avoiders(build("NE", s, t), [(2, 1, 3)]):
            for j in range(1, t + 1):
                children.add(insert_213(pi, s, t, j))
        # t^(s-1) parents each with t children, all distinct
        assert len(children) == t ** s

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            insert_213((1, 2, 3), 1, 3, 1)  # not an NE extension start
        with pytest.raises(ValueError):
            insert_213((3, 2, 1), 1, 3, 4)  # position out of range
        with pytest.raises(ValueError):
            insert_213((3, 2, 1), 2, 3, 1)  # wrong length

    def test_rejects_a_source_containing_213(self):
        # an extension of NE:2x3, so only the pattern check refuses it
        assert is_extension(build("NE", 2, 3), (6, 3, 5, 2, 4, 1))
        with pytest.raises(ValueError, match="contains 213"):
            insert_213((6, 3, 5, 2, 4, 1), 2, 3, 1)
