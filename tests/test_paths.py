from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lexcount import paths, verify
from lexcount.engine import avoiders, linear_extensions
from lexcount.formulas import catalan, fuss_catalan
from lexcount.paths import (_ballot, enumerate_12354_paths, enumerate_jk,
                            ext_to_fcpath, ext_to_tableau, ext_to_zipper,
                            ext_to_12354_path, fc_paths, fcpath_to_ext,
                            format_zipper, is_fuss_catalan, is_jk_catalan,
                            is_standard_tableau, is_zipper, is_12354_path,
                            jk_paths, parse_zipper, paths_12354,
                            standard_tableaux, tableau_to_ext, zipper_to_ext,
                            zippers)
from lexcount.posets import build, saw_poset, zip_poset
from lexcount.qstats import catalan_words
from lexcount.transfer import b_matrix

PATH_EXT = (10, 11, 7, 12, 8, 9, 4, 5, 1, 6, 2, 3)
TAB_EXT = (10, 7, 11, 4, 1, 8, 12, 5, 2, 9, 6, 3)
SHAPES = [(s, t) for s in range(1, 13) for t in range(1, 13) if s * t <= 12]


class TestFussCatalanPaths:
    def test_predicate(self):
        assert is_fuss_catalan("NNENNE", 3)
        assert not is_fuss_catalan("NENNNE", 3)
        assert not is_fuss_catalan("NNEN", 3)  # wrong letter balance
        assert is_fuss_catalan("", 4)

    def test_counts(self):
        for s in range(0, 5):
            for t in range(1, 4):
                if s * t <= 12:
                    assert sum(1 for _ in fc_paths(s, t)) == fuss_catalan(s, t)

    def test_worked_example(self):
        assert ext_to_fcpath(PATH_EXT, 4, 3) == "NNNENENNNENE"
        assert fcpath_to_ext("NNNENENNNENE", 4, 3) == PATH_EXT

    def test_roundtrip_both_ways(self):
        for s, t in [(1, 1), (2, 2), (3, 2), (2, 3), (4, 3)]:
            exts = set(linear_extensions(saw_poset(s, t)))
            words = set(fc_paths(s, t))
            assert {ext_to_fcpath(pi, s, t) for pi in exts} == words
            for w in words:
                pi = fcpath_to_ext(w, s, t)
                assert pi in exts
                assert ext_to_fcpath(pi, s, t) == w

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ext_to_fcpath((2, 1, 3), 1, 3)  # not a sawblade extension
        with pytest.raises(ValueError):
            fcpath_to_ext("ENNNNE", 2, 3)  # prefix dips below the line


class TestTableaux:
    def test_worked_example(self):
        rows = ext_to_tableau(TAB_EXT, 4, 3)
        assert rows == ((1, 3, 7), (2, 6, 10), (4, 8, 11), (5, 9, 12))
        assert tableau_to_ext(rows) == TAB_EXT

    def test_generator_counts(self):
        assert sum(1 for _ in standard_tableaux(2, 2)) == 2
        assert sum(1 for _ in standard_tableaux(4, 3)) == 462
        assert sum(1 for _ in standard_tableaux(2, 5)) == catalan(5)

    def test_images_coincide(self):
        for s, t in SHAPES:
            exts = sorted(linear_extensions(build("EN", s, t)))
            tabs = sorted(standard_tableaux(s, t))
            assert sorted(ext_to_tableau(pi, s, t) for pi in exts) == tabs
            assert sorted(tableau_to_ext(T) for T in tabs) == exts

    def test_predicate(self):
        assert is_standard_tableau([[1, 2], [3, 4]])
        assert not is_standard_tableau([[1, 3], [2, 3]])
        assert not is_standard_tableau([[2, 1], [3, 4]])
        assert not is_standard_tableau([[1, 4], [2, 3]])  # column decreases

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            tableau_to_ext([[1, 2, 3], [4, 5]])


class TestZippers:
    def test_predicate(self):
        assert is_zipper((1, 1, 2, 2), 2, 2)
        assert is_zipper((1, 2, 1, 2), 2, 2)
        assert not is_zipper((2, 1, 1, 2), 2, 2)  # projection dips
        assert not is_zipper((1, 1, 2), 2, 2)  # wrong multiplicities
        # rightmost N1 must precede leftmost N3
        assert not is_zipper((1, 2, 3, 1, 2, 3), 3, 2)

    @pytest.mark.parametrize("w, s, t", [
        ((), 0, 1), ((), 1, 0), ((1, 1, 1, 2), 2, 2), ((1, 1, 1), 3, 1)])
    def test_predicate_rejects_bad_sizes_and_counts(self, w, s, t):
        # right length, letters in range: only the size or count check
        # refuses these
        assert not is_zipper(w, s, t)

    def test_counts(self):
        assert sum(1 for _ in zippers(1, 4)) == 1
        assert sum(1 for _ in zippers(2, 2)) == 2
        assert sum(1 for _ in zippers(3, 3)) == 21
        assert sum(1 for _ in zippers(4, 2)) == 8  # 2^(s-1)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_one_zipper_of_length_one(self, s):
        assert list(zippers(s, 1)) == [tuple(range(1, s + 1))]

    @pytest.mark.parametrize("s, t", [(0, 2), (2, 0)])
    def test_no_zippers_of_an_empty_size(self, s, t):
        assert list(zippers(s, t)) == []

    def test_encoding_rejects_non_extensions(self):
        with pytest.raises(ValueError, match="not a 2143-avoiding"):
            ext_to_zipper((2, 1), 1, 2)

    def test_decoding_rejects_non_zippers(self):
        with pytest.raises(ValueError, match="not a Catalan zipper"):
            zipper_to_ext((2, 1, 1, 2), 2, 2)

    def test_images_coincide(self):
        for s, t in [(1, 3), (2, 2), (3, 2), (2, 3), (3, 3)]:
            exts = set(linear_extensions(zip_poset(s, t)))
            words = set(zippers(s, t))
            assert {ext_to_zipper(pi, s, t) for pi in exts} == words
            for w in words:
                pi = zipper_to_ext(w, s, t)
                assert ext_to_zipper(pi, s, t) == w

    def test_avoiders_match(self):
        s, t = 3, 3
        direct = set(avoiders(build("EN", s, t), [(2, 1, 4, 3)]))
        assert set(linear_extensions(zip_poset(s, t))) == direct

    def test_serialization(self):
        assert format_zipper((1, 2, 1)) == "N1 N2 N1"
        assert parse_zipper("N1 N2 N10") == (1, 2, 10)
        with pytest.raises(ValueError):
            parse_zipper("N1 X2")
        with pytest.raises(ValueError, match="bad zipper letter 'N²'"):
            parse_zipper("N1 N²")

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=9, deadline=None)
    def test_roundtrip(self, s, t):
        for w in zippers(s, t):
            assert ext_to_zipper(zipper_to_ext(w, s, t), s, t) == w


class TestJkCatalan:
    def test_predicate(self):
        assert is_jk_catalan("ENEE", 3, 1, 2)
        assert not is_jk_catalan("NEEE", 3, 1, 2)  # wrong tail
        assert is_jk_catalan("EEE", 3, 0, 3)  # all-E degenerate case

    def test_small_counts(self):
        assert enumerate_jk(3, 2, 1) == 2
        assert enumerate_jk(1, 1, 1) == 1
        assert enumerate_jk(2, 0, 2) == 1

    def test_counts_match_transfer_matrix(self):
        for n in range(1, 6):
            bm = b_matrix(n)
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    assert bm[j - 1][k - 1] == enumerate_jk(n, j, k), (n, j, k)

    def test_generator_matches_predicate(self):
        for w in jk_paths(4, 2, 2):
            assert is_jk_catalan(w, 4, 2, 2)


class TestPaths12354:
    def test_predicate(self):
        assert is_12354_path(("E", "N1", "N2"), 1, 3)
        # Es must stay ahead of N1s by a factor of t - 2
        assert not is_12354_path(("N1", "E", "N2"), 1, 3)
        # N1s must stay ahead of N2s
        assert not is_12354_path(("E", "N2", "N1"), 1, 3)
        assert not is_12354_path(("E", "N1", "N2", "E"), 1, 3)
        # both ballots hold, but there is no N2
        assert not is_12354_path(("E", "N1", "E"), 1, 3)
        assert not is_12354_path(("E", "E", "E"), 1, 3)

    def test_counts_match_avoiders(self):
        for s in range(1, 4):
            for t in range(2, 5):
                if s * t > 12:
                    continue
                direct = sum(1 for _ in avoiders(build("EN", s, t),
                                                 [(1, 2, 3, 5, 4)]))
                assert enumerate_12354_paths(s, t) == direct, (s, t)

    def test_encoding_is_injective_onto_paths(self):
        for s, t in SHAPES:
            if t < 2:
                continue
            exts = list(avoiders(build("EN", s, t), [(1, 2, 3, 5, 4)]))
            images = {ext_to_12354_path(pi, s, t) for pi in exts}
            assert len(images) == len(exts), (s, t)
            assert images == set(paths_12354(s, t)), (s, t)

    @pytest.mark.parametrize("pi, s, t, message", [
        ((1,), 1, 1, "t >= 2"), ((1, 2), 2, 1, "t >= 2"),
        ((2, 1), 1, 2, "not a linear extension")])
    def test_encoding_rejects_bad_input(self, pi, s, t, message):
        with pytest.raises(ValueError, match=message):
            ext_to_12354_path(pi, s, t)


class TestExactMaps:
    """Which word each extension maps to, on every extension the encoder
    accepts: the letter at one position is decided by one entry of pi
    (entry i gives position n - 1 - i of a path, position i of a zipper),
    and the decoder returns pi."""

    @pytest.mark.parametrize("s, t", SHAPES)
    def test_fcpath(self, s, t):
        n = s * t
        roots = {i * t + 1 for i in range(s)}
        for pi in linear_extensions(saw_poset(s, t)):
            w = ext_to_fcpath(pi, s, t)
            assert w == "".join("E" if pi[n - 1 - p] in roots else "N"
                                for p in range(n))
            assert fcpath_to_ext(w, s, t) == pi

    @pytest.mark.parametrize("s, t", SHAPES)
    def test_zipper(self, s, t):
        for pi in linear_extensions(zip_poset(s, t)):
            w = ext_to_zipper(pi, s, t)
            tooth = [(x - 1) // t + 1 for x in pi]
            assert w == tuple(s + 1 - k for k in tooth)
            assert zipper_to_ext(w, s, t) == pi

    @pytest.mark.parametrize("s, t", [(s, t) for s, t in SHAPES if t >= 2])
    def test_12354_path(self, s, t):
        n = s * t
        for pi in linear_extensions(build("EN", s, t)):
            spine = [t - (x - 1) % t for x in pi]
            want = ["N2" if k == t else "N1" if k == t - 1 else "E"
                    for k in spine]
            assert ext_to_12354_path(pi, s, t) == tuple(reversed(want))


class TestCheckBijections:
    """`verify.check_bijections` with one encoding broken."""

    def test_roundtrip_failure(self, monkeypatch):
        # each extension gets the next one's word: every word is valid and
        # the image is whole, but the words decode to the wrong extensions
        real = paths.ext_to_zipper

        def next_word(pi, s, t):
            exts = sorted(linear_extensions(zip_poset(s, t)))
            return real(exts[(exts.index(pi) + 1) % len(exts)], s, t)

        monkeypatch.setitem(paths.BIJECTIONS, "zipper",
                            paths.BIJECTIONS["zipper"]._replace(
                                encode=next_word))
        res = verify.check_bijections(4)
        assert res.status == "fail"
        assert res.detail.startswith("zipper 2x2 (")
        assert "image" not in res.detail

    def test_image_failure(self, monkeypatch):
        # every extension roundtrips, but the 2 x 2 words it should cover
        # include one no extension encodes to
        real = paths.zippers
        monkeypatch.setitem(
            paths.BIJECTIONS, "zipper",
            paths.BIJECTIONS["zipper"]._replace(objects=lambda s, t: [
                *real(s, t), *([(2, 2, 1, 1)] if (s, t) == (2, 2) else [])]))
        res = verify.check_bijections(4)
        assert res == ("bijection roundtrips and images", "fail",
                       "zipper image 2x2")

    def test_invalid_object(self, monkeypatch):
        # the words equal the true ones, but their letters are floats,
        # which is_zipper refuses
        real = paths.zippers
        monkeypatch.setitem(
            paths.BIJECTIONS, "zipper",
            paths.BIJECTIONS["zipper"]._replace(objects=lambda s, t: [
                tuple(map(float, w)) for w in real(s, t)]))
        res = verify.check_bijections(2)
        assert res == ("bijection roundtrips and images", "fail",
                       "zipper image 1x1; zipper image 1x2; "
                       "zipper image 2x1")


@pytest.mark.parametrize("decode, args", [
    (tableau_to_ext, ([[1, "a"]],)), (tableau_to_ext, ([[True, 2]],)),
    (tableau_to_ext, ([[]],)), (tableau_to_ext, ([[], []],)),
    (zipper_to_ext, (["a"], 1, 1)), (zipper_to_ext, ([1.0], 1, 1)),
    (zipper_to_ext, ([True], 1, 1)), (fcpath_to_ext, ([1, 2], 1, 2)),
    (fcpath_to_ext, (["N", "E"], 1, 2)), (tableau_to_ext, ([1, 2],)),
    (tableau_to_ext, ([[1], 2],)), (tableau_to_ext, (5,)),
    (zipper_to_ext, (5, 1, 1))])
def test_decoders_refuse_non_words(decode, args):
    # letters or entries of the wrong type, bool included, empty rows, and
    # words or rows that are not sequences at all
    with pytest.raises(ValueError, match="^not a "):
        decode(*args)


@pytest.mark.parametrize("valid, args", [
    (is_jk_catalan, (5, 1, 1, 1)), (is_12354_path, (5, 1, 2)),
    (is_12354_path, (iter(["N1", "N2"]), 1, 2)), (is_zipper, (5, 1, 1)),
    (is_zipper, ({1: 1}, 1, 1)), (is_zipper, (iter([1]), 1, 1)),
    (is_standard_tableau, (5,)), (is_standard_tableau, ([1, 2],)),
    (is_standard_tableau, ([[1], 2],)), (is_standard_tableau, ({(1,): 0},)),
    (is_standard_tableau, ([range(1, 3)],))])
def test_validators_refuse_non_words(valid, args):
    # a path word that is not a str; a zipper or 12354 word, a tableau or
    # one of its rows that is not a list or tuple, even one that would
    # pass once converted
    assert valid(*args) is False


def _prefixes(word):
    return [word[:i] for i in range(len(word) + 1)]


@st.composite
def _arrangements(draw, letters, stray):
    """A shuffle of letters; now and then one entry becomes a stray
    letter, which also breaks the letter counts."""
    word = list(draw(st.permutations(letters)))
    if word and draw(st.booleans()):
        word[draw(st.integers(0, len(word) - 1))] = stray
    return word


class TestPredicatesByPrefix:
    """Each path predicate against its definition restated prefix by
    prefix."""

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuss_catalan(self, s, t, data):
        w = "".join(data.draw(_arrangements(
            "N" * (max(t - 1, 0) * s) + "E" * s, "x")))
        want = (t >= 1 and set(w) <= set("NE")
                and w.count("N") == (t - 1) * w.count("E")
                and all(p.count("N") >= (t - 1) * p.count("E")
                        for p in _prefixes(w)))
        assert is_fuss_catalan(w, t) == want

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_jk_catalan(self, n, data):
        j = data.draw(st.integers(0, n + 1))
        w = "".join(data.draw(_arrangements("N" * j + "E" * n, "x")))
        # mostly the number of trailing Es, so that the tail often fits
        k = data.draw(st.just(len(w) - len(w.rstrip("E")))
                      | st.integers(0, n + 1))
        want = (0 <= j <= n and 1 <= k <= n and len(w) == j + n
                and w.count("N") == j and w.count("E") == n
                and (w.endswith("N" + "E" * k) or w == "E" * k == "E" * n)
                and all(n - j + p.count("N") >= p.count("E")
                        for p in _prefixes(w)))
        assert is_jk_catalan(w, n, j, k) == want

    @given(st.integers(0, 3), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_12354_path(self, s, t, data):
        w = tuple(data.draw(_arrangements(
            ("N1", "N2") * s + ("E",) * (max(t - 2, 0) * s), "N3")))
        want = (t >= 2 and len(w) == s * t
                and set(w) <= {"N1", "N2", "E"}
                and w.count("N1") == w.count("N2") == s
                and all(p.count("N1") >= p.count("N2")
                        and p.count("E") >= (t - 2) * p.count("N1")
                        for p in _prefixes(w)))
        assert is_12354_path(w, s, t) == want

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_zipper(self, s, t, data):
        w = tuple(data.draw(_arrangements(
            tuple(range(1, s + 1)) * t, s + 1)))
        at = lambda j: [i for i, x in enumerate(w) if x == j]
        want = (len(w) == s * t and set(w) <= set(range(1, s + 1))
                and all(w.count(j) == t for j in range(1, s + 1))
                and all(p.count(j) >= p.count(j + 1)
                        for p in _prefixes(w) for j in range(1, s))
                and all(max(at(j)) < min(at(j + 2))
                        for j in range(1, s - 1)))
        assert is_zipper(w, s, t) == want


def _arrangements_of(counts):
    """Every word with counts[x] copies of each letter x, lexicographically
    in the order counts lists the letters."""
    if not any(counts.values()):
        yield ()
    for x, c in counts.items():
        if c:
            for rest in _arrangements_of({**counts, x: c - 1}):
                yield (x, *rest)


# every (s, t) with s, t >= 1 and at most 9 letters
LATTICE_SHAPES = [(s, t) for s in range(1, 10) for t in range(1, 9 // s + 1)]
# those whose s letters of t copies each have at most 2,520 arrangements:
# all but 7 x 1 to 9 x 1, whose 7! to 9! arrangements take seconds to check
ROW_SHAPES = [(s, t) for s, t in LATTICE_SHAPES
              if factorial(s * t) // factorial(t) ** s <= 2520]
# every shape with a zero size and at most 9 for the other; fc_paths and
# paths_12354 take only those with s = 0, since (s, 0) would need -s Ns
# and -2s Es
NO_ROWS = [(0, t) for t in range(10)]
ZERO_SHAPES = NO_ROWS + [(s, 0) for s in range(1, 10)]


class TestEnumeratorsAgainstValidators:
    """Each lattice-word enumerator gives exactly the arrangements of its
    letter multiset that its validator accepts: as a list where the
    enumerator promises a lexicographic order, as a set otherwise."""

    @staticmethod
    def _accepted(counts, valid, word=tuple):
        return [word(w) for w in _arrangements_of(counts) if valid(word(w))]

    @pytest.mark.parametrize("s, t", LATTICE_SHAPES + NO_ROWS)
    def test_fc_paths(self, s, t):
        want = self._accepted({"E": s, "N": (t - 1) * s},
                              lambda w: is_fuss_catalan(w, t), "".join)
        assert list(fc_paths(s, t)) == want

    @pytest.mark.parametrize("n", range(0, 7))
    def test_jk_paths(self, n):
        # n, j and k each start at 0, so the zero sizes are all here
        for j in range(0, min(n + 1, 9 - n) + 1):
            for k in range(0, n + 2):
                want = self._accepted(
                    {"N": j, "E": n}, lambda w: is_jk_catalan(w, n, j, k),
                    "".join)
                assert list(jk_paths(n, j, k)) == want, (n, j, k)

    @pytest.mark.parametrize("s, t", [(s, t) for s, t in LATTICE_SHAPES
                                      if t >= 2] + NO_ROWS)
    def test_paths_12354(self, s, t):
        want = self._accepted({"N1": s, "N2": s, "E": (t - 2) * s},
                              lambda w: is_12354_path(w, s, t))
        assert sorted(paths_12354(s, t)) == sorted(want)

    @pytest.mark.parametrize("s, t", ROW_SHAPES + ZERO_SHAPES)
    def test_zippers(self, s, t):
        want = self._accepted(dict.fromkeys(range(1, s + 1), t),
                              lambda w: is_zipper(w, s, t))
        assert sorted(zippers(s, t)) == sorted(want)

    @pytest.mark.parametrize("s, t", ROW_SHAPES + ZERO_SHAPES)
    def test_standard_tableaux(self, s, t):
        def rows(w):  # row r holds the positions of the letter r
            return tuple(tuple(k for k, x in enumerate(w, 1) if x == r)
                         for r in range(s))
        want = self._accepted(dict.fromkeys(range(s), t),
                              is_standard_tableau, rows)
        assert list(standard_tableaux(s, t)) == want

    @pytest.mark.parametrize("n", range(0, 5))
    def test_catalan_words(self, n):
        want = self._accepted({0: n, 1: n}, lambda w: _ballot(w, 0, 1))
        assert list(catalan_words(n)) == want

    @pytest.mark.parametrize("enumerate_, args", [
        (fc_paths, (-1, 3)), (paths_12354, (-1, 3)), (jk_paths, (3, -1, 1))])
    def test_negative_letter_counts_raise(self, enumerate_, args):
        with pytest.raises(ValueError):
            list(enumerate_(*args))

    @pytest.mark.parametrize("enumerate_, args, want", [
        (fc_paths, (2, 0), []), (paths_12354, (2, 1), []),
        (zippers, (-1, 3), []), (catalan_words, (-1,), []),
        (fc_paths, (0, 3), [""]), (paths_12354, (0, 3), [()]),
        (jk_paths, (2, 0, 2), ["EE"]), (standard_tableaux, (2, 0), []),
        (standard_tableaux, (2, -1), []), (standard_tableaux, (-1, 2), [()]),
        (standard_tableaux, (-1, -1), [()])])
    def test_degenerate_shapes(self, enumerate_, args, want):
        assert list(enumerate_(*args)) == want
