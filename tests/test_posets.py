import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from lexcount import cli
from lexcount.formulas import FormulaResult
from lexcount.posets import (FAMILIES, TAGS, CanonicalProblem, GridPoset,
                             build, canonicalize, parse_poset_spec, saw_poset,
                             zip_poset)
from lexcount.verify import CheckResult

# The module docstring's table: family -> (label convention, whether (s, t)
# swap, whether the order is reversed)
DOCSTRING_TABLE = {
    "EN": ("EN", False, False), "NE": ("NE", False, False),
    "WN": ("EN", True, False), "NW": ("NE", True, False),
    "WS": ("EN", False, True), "ES": ("EN", True, True),
    "SW": ("NE", False, True), "SE": ("NE", True, True)}


def docstring_order(family, s, t):
    """Every pair (a, b) with a before b, written out from the label
    formulas: (i, j) precedes (i', j') when i >= i' and j >= j'."""
    labels, swapped, dual = DOCSTRING_TABLE[family]
    gs, gt = (t, s) if swapped else (s, t)
    label = {(i, j): i * gt - j + 1 if labels == "EN" else (i - 1) * gt + j
             for i in range(1, gs + 1) for j in range(1, gt + 1)}
    order = {(label[c], label[d]) for c in label for d in label
             if c != d and c[0] >= d[0] and c[1] >= d[1]}
    return {(b, a) for a, b in order} if dual else order


SMALL_SHAPES = [(s, t) for s in range(1, 5) for t in range(1, 5)]


class TestLabels:
    def test_en_labels(self):
        # EN 2x3: tooth i, spine j carries label i*t - j + 1, so tooth 1 is
        # 1, 2, 3 from spine 3 down, and each x precedes x - 3 and x + 1
        assert build("EN", 2, 3).direct_preds == (
            {4}, {1, 5}, {2, 6}, set(), {4}, {5})

    def test_ne_labels(self):
        # NE: label (i - 1)*t + j; each x precedes x - 3 and x - 1
        assert build("NE", 2, 3).direct_preds == (
            {2, 4}, {3, 5}, {6}, {5}, {6}, set())

    def test_tooth_and_spine(self):
        # tooth 3 of EN 4x3 is 7, 8, 9, spine 3 down to 1
        assert build("EN", 4, 3).direct_preds == (
            {4}, {1, 5}, {2, 6}, {7}, {4, 8}, {5, 9},
            {10}, {7, 11}, {8, 12}, set(), {10}, {11})

    def test_out_of_range(self):
        p = build("EN", 2, 2)
        with pytest.raises(ValueError):
            p.must_precede(5, 1)


class TestOrder:
    def test_en_precedence(self):
        p = build("EN", 2, 3)
        # (2,3) has label 4 and precedes everything
        for x in (1, 2, 3, 5, 6):
            assert p.must_precede(4, x)
        assert not p.must_precede(1, 4)
        # same-spine, different tooth: higher tooth first
        assert p.must_precede(4, 1)
        # incomparable pair
        assert not p.must_precede(5, 1)
        assert not p.must_precede(1, 5)

    def test_chain(self):
        p = build("EN", 3, 1)
        assert p.must_precede(3, 1)
        assert p.must_precede(2, 1)

    def test_dual_reverses(self):
        en = build("EN", 2, 3)
        ws = build("WS", 2, 3)
        for a in range(1, 7):
            for b in range(1, 7):
                if a != b:
                    assert en.must_precede(a, b) == ws.must_precede(b, a)

    def test_swap_is_relabel_only(self):
        # WN(s,t) is EN(t,s): same element count, same comparability count
        en = build("EN", 3, 2)
        wn = build("WN", 2, 3)
        assert en.n == wn.n
        count = lambda p: sum(p.must_precede(a, b)
                              for a in range(1, 7) for b in range(1, 7))
        assert count(en) == count(wn)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_follows_the_docstring_rule(self, family):
        for s, t in SMALL_SHAPES:
            p = build(family, s, t)
            order = docstring_order(family, s, t)
            assert {(a, b) for a in range(1, s * t + 1)
                    for b in range(1, s * t + 1)
                    if p.must_precede(a, b)} == order

    @pytest.mark.parametrize("family", FAMILIES)
    def test_direct_preds_are_the_covers(self, family):
        for s, t in SMALL_SHAPES:
            order = docstring_order(family, s, t)
            covers = {(a, b) for a, b in order
                      if not any((a, c) in order and (c, b) in order
                                 for c in range(1, s * t + 1))}
            p = build(family, s, t)
            assert {(a, b) for b in range(1, s * t + 1)
                    for a in p.direct_preds[b - 1]} == covers

    def test_bad_family(self):
        with pytest.raises(ValueError):
            build("XX", 2, 2)
        with pytest.raises(ValueError):
            build("EN", 0, 2)


UP_TO_12 = [(s, t) for s in range(1, 13) for t in range(1, 12 // s + 1)]


def assert_ready_everywhere(p):
    """ready(mask) is {x not in mask : direct_preds[x-1] within mask} for
    every mask, and bits at n and above change nothing."""
    n = p.n
    preds = [sum(1 << (a - 1) for a in ps) for ps in p.direct_preds]
    above = ((1 << (n + 3)) - 1) << n
    for mask in range(1 << n):
        want = sum(1 << x for x in range(n)
                   if not mask >> x & 1 and not preds[x] & ~mask)
        assert p.ready(mask) == p.ready(mask | above) == want, (p, mask)


class TestReady:
    """The one mask the engines ask which elements may come next."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_mask_on_every_family(self, family):
        for s, t in UP_TO_12:
            assert_ready_everywhere(build(family, s, t))

    def test_every_mask_on_augmented_and_extra_pair_posets(self):
        for s, t in UP_TO_12:
            assert_ready_everywhere(saw_poset(s, t))
            assert_ready_everywhere(zip_poset(s, t))
        p = GridPoset("EN", 3, 4, frozenset({(1, 12)}))
        assert (-11, 1 << 11) in p._offsets
        assert_ready_everywhere(p)

    def test_offsets(self):
        # a grid has two offsets, each extra pair at most one more
        assert len(build("NE", 3, 4)._offsets) == 2
        assert len(saw_poset(4, 3)._offsets) == 3
        assert len(zip_poset(5, 4)._offsets) == 3
        assert build("EN", 1, 1)._offsets == ()


class TestAugmentations:
    def test_saw_extra_pairs(self):
        p = saw_poset(4, 3)
        assert p.extra_before == {(6, 2), (9, 5), (12, 8)}
        assert p.tag == "saw"

    def test_zip_extra_pairs(self):
        p = zip_poset(4, 3)
        assert p.extra_before == {(9, 1), (12, 4)}
        assert p.tag == "zip"

    def test_degenerate_sizes(self):
        assert saw_poset(0, 3).n == 0
        # no pairs, but the tag stays, t = 1 included
        for p, tag in [(saw_poset(0, 3), "saw"), (saw_poset(1, 4), "saw"),
                       (saw_poset(3, 1), "saw"), (zip_poset(2, 3), "zip"),
                       (zip_poset(5, 1), "zip")]:
            assert (p.extra_before, p.tag) == (frozenset(), tag)
        assert saw_poset(3, 1).spec_string() == "EN:3x1+saw"
        assert zip_poset(5, 1) != build("EN", 5, 1)

    @pytest.mark.parametrize("s, t, message", [
        (0, 0, "t must be positive, got 0"), (2, -1, "t must be positive"),
        (-1, 2, "s must be non-negative, got -1")])
    def test_saw_rejects_bad_sizes(self, s, t, message):
        with pytest.raises(ValueError, match=message):
            saw_poset(s, t)

    def test_empty_poset(self):
        assert GridPoset("EN", 0, 1).n == 0


class TestCanonicalize:
    def test_identity_on_en(self):
        prob = canonicalize("EN", 3, 4, [(1, 2, 3)])
        assert (prob.family, prob.s, prob.t) == ("EN", 3, 4)
        assert prob.patterns == {(1, 2, 3)}

    def test_swapped_family(self):
        prob = canonicalize("WN", 3, 4, [(1, 2, 3)])
        assert (prob.family, prob.s, prob.t) == ("EN", 4, 3)
        assert prob.patterns == {(1, 2, 3)}

    def test_dual_reverses_patterns(self):
        prob = canonicalize("WS", 3, 4, [(1, 2, 3)])
        assert (prob.family, prob.s, prob.t) == ("EN", 3, 4)
        assert prob.patterns == {(3, 2, 1)}

    def test_all_families_canonicalize(self):
        for fam in FAMILIES:
            prob = canonicalize(fam, 2, 3, [(2, 1, 3)])
            assert prob.family in ("EN", "NE")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family 'XY'"):
            canonicalize("XY", 2, 3, [(2, 1, 3)])


# The spec grammar as a regex, the form parse_poset_spec once took: the
# reference its hand parser is checked against.
SPEC_RE = re.compile(r"^([A-Z]{2}):(\d+)x(\d+)(?:\+(%s))?$" % "|".join(TAGS))


def regex_parse(text: str) -> GridPoset:
    m = SPEC_RE.match(text.strip())
    if not m:
        tags = "|".join(f"+{tag}" for tag in TAGS)
        raise ValueError(
            f"bad poset spec {text!r}; expected FAMILY:SxT[{tags}]")
    family, tag = m.group(1), m.group(4)
    s, t = int(m.group(2)), int(m.group(3))
    if tag and family != "EN":
        raise ValueError(f"{tag} augmentation is defined on EN only")
    if not tag or s == 0 or t == 0:
        return build(family, s, t)
    return TAGS[tag][0](s, t)


def parsed(parse, text: str) -> tuple:
    """(poset, "") or (None, the error message)."""
    try:
        return parse(text), ""
    except ValueError as e:
        return None, str(e)


# ASCII letters and digits, three digits outside ASCII (two of them
# decimal), and the spec's separators, tags and whitespace
SPEC_TOKENS = [*string.ascii_letters, *string.digits, "\u0664", "\uff15",
               "\xb2", ":", "x", "+", "saw", "zip", " ", "\n"]
DIGITS = st.lists(st.sampled_from([*"0123459", "\u0664", "\uff15", "\xb2"]),
                  min_size=1, max_size=3).map("".join)
# Draws with four digits or more in a row are dropped: they could make a
# saw or zip poset too large to build.
SPEC_TEXTS = st.one_of(
    st.lists(st.sampled_from(SPEC_TOKENS), max_size=12).map("".join),
    # close to a spec, so that many draws parse
    st.tuples(st.sampled_from(["EN", "EN", "NE", "SW", "QQ", "ENE", "E",
                               "E1", "en", "\xc9N"]),
              st.sampled_from([":", ":", ":", "", "x"]), DIGITS,
              st.sampled_from(["x", "x", "x", "", "xx", "+"]), DIGITS,
              st.sampled_from(["", "", "+saw", "+zip", "+saw", "+", "saw",
                               " ", "\n"])).map("".join),
).filter(lambda text: not re.search(r"\d{4}", text))


class TestSpecParsing:
    @pytest.mark.parametrize("text, family, s, t, tag", [
        ("EN:4x3", "EN", 4, 3, ""),
        ("SW:2x4", "SW", 2, 4, ""),
        ("EN:4x3+saw", "EN", 4, 3, "saw"),
        ("EN:5x3+zip", "EN", 5, 3, "zip"),
    ])
    def test_good_specs(self, text, family, s, t, tag):
        p = parse_poset_spec(text)
        assert (p.family, p.s, p.t, p.tag) == (family, s, t, tag)
        assert p.spec_string() == text

    @pytest.mark.parametrize("text", [
        "EN4x3", "EN:4x", "QQ:2x2", "NE:2x2+saw", "EN:2x2+zap", "",
        "EN:0x3+saw"])
    def test_bad_specs(self, text):
        with pytest.raises(ValueError):
            parse_poset_spec(text)

    @given(SPEC_TEXTS)
    @settings(max_examples=500, deadline=None)
    @example("EN:\u0664x3")  # Arabic-Indic four: a decimal digit
    @example("EN:\uff15x3+saw")  # fullwidth five: a decimal digit
    @example("EN:\xb2x3")  # superscript two: a digit, but not decimal
    @example("EN:3x\xb2")
    @example(" EN:4x3+zip\n")
    @example("EN:4x3\n+saw")
    @example("EN:4x3+")
    @example("EN:4x3+sawzip")
    @example("EN:4x3x3")
    @example("EN::4x3")
    @example("EN:x3")
    @example("EN:4x")
    @example("NE:2x2+saw")
    @example("EN:0x3+saw")
    @example("en:4x3")
    @example("\xc9N:4x3")  # a capital, but not an ASCII one
    @example("ENE:4x3")
    @example("E1:4x3")
    def test_parse_matches_the_regex(self, text):
        assert parsed(parse_poset_spec, text) == parsed(regex_parse, text)

    @given(SPEC_TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_both_argv_readers_share_the_key(self, text):
        plain, other = ["count", "--poset", text], ["count", f"--poset={text}"]
        assert cli._plain(plain) is not None and cli._plain(other) is None
        assert (cli._cache_key(cli.parse_args(plain))
                == cli._cache_key(cli.parse_args(other)))


class TestRecords:
    """The value semantics the CLI and the engines rely on."""

    def test_equal_posets_hash_equal(self):
        a, b = build("EN", 3, 4), build("EN", 3, 4)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_posets(self):
        en = build("EN", 3, 4)
        assert en != saw_poset(3, 4)
        assert en != build("WS", 3, 4)
        assert GridPoset(family="EN", s=3, t=4) == en
        assert en != (en.family, en.s, en.t)

    def test_cached_properties_are_computed_once(self):
        p = build("EN", 3, 4)
        assert p.direct_preds is p.direct_preds
        p.ready(0)
        assert p._offsets is p._offsets
        p.must_precede(1, 2)
        assert p._closure is p._closure
        assert p == build("EN", 3, 4)  # caches do not enter equality
        assert hash(p) == hash(build("EN", 3, 4))

    def test_immutable(self):
        p = build("EN", 2, 2)
        with pytest.raises(AttributeError):
            p.s = 3
        with pytest.raises(AttributeError):
            p.anything = 1
        with pytest.raises(AttributeError):
            del p.s
        assert p.s == 2 and p == build("EN", 2, 2)
        assert hash(p) == hash(build("EN", 2, 2))

    @pytest.mark.parametrize("make, s, t, extra, tag", [
        (saw_poset, 3, 4, {(8, 2), (12, 6)}, "saw"),
        (zip_poset, 4, 3, {(9, 1), (12, 4)}, "zip")])
    def test_augmented_posets_are_fresh_records(self, make, s, t, extra,
                                                tag):
        base = build("EN", s, t)
        base.direct_preds  # a cached table on the base grid
        p = make(s, t)
        assert type(p) is GridPoset
        by_field = GridPoset(family="EN", s=s, t=t,
                             extra_before=frozenset(extra), tag=tag)
        assert p == by_field and hash(p) == hash(by_field)
        assert "direct_preds" not in base._replace(tag=tag).__dict__
        for a, b in extra:
            assert a in p.direct_preds[b - 1]
            assert a not in base.direct_preds[b - 1]

    def test_repr_names_the_class(self):
        text = repr(saw_poset(2, 2))
        assert text.startswith("GridPoset(")
        assert "family='EN'" in text and "tag='saw'" in text

    def test_small_records_keep_their_fields(self):
        assert GridPoset._fields == ("family", "s", "t", "extra_before",
                                     "tag")
        assert CanonicalProblem._fields == ("family", "s", "t", "patterns")
        assert CanonicalProblem("EN", 2, 3).patterns == frozenset()
        assert FormulaResult._fields == ("value", "provenance")
        assert CheckResult._fields == ("name", "status", "detail")
        assert CheckResult("x", "pass").detail == ""

    @pytest.mark.parametrize("status, ok", [
        ("pass", True), ("consistent", True), ("fail", False),
        ("counterexample", False)])
    def test_check_result_ok(self, status, ok):
        assert CheckResult("name", status, "detail").ok is ok
