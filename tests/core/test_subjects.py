"""Tests for subject validation, wildcard matching, and the trie."""

import pytest

from repro.core import (BadSubjectError, SubjectTrie, is_valid_pattern,
                        subject_matches, validate_pattern, validate_subject)
from repro.core import subjects as subjects_module


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_paper_example_subject_is_valid():
    assert validate_subject("fab5.cc.litho8.thick") == \
        ["fab5", "cc", "litho8", "thick"]


@pytest.mark.parametrize("bad", ["", ".", "a..b", ".a", "a.", "a b",
                                 "news.*", "news.>", "a.#.b", "ü.x",
                                 "a.b\n", "a\n.b"])
def test_invalid_subjects(bad):
    with pytest.raises(BadSubjectError):
        validate_subject(bad)


@pytest.mark.parametrize("good", ["a", "a.b", "news.equity.gmc",
                                  "x_1.y-2.Z3"])
def test_valid_subjects(good):
    assert validate_subject(good) == good.split(".")


@pytest.mark.parametrize("good", ["*", ">", "a.*", "a.>", "*.b", "a.*.c",
                                  "news.equity.*"])
def test_valid_patterns(good):
    assert is_valid_pattern(good)


@pytest.mark.parametrize("bad", ["", ">.a", "a.>.b", "a..b", "a.**",
                                 "a.b\n"])
def test_invalid_patterns(bad):
    assert not is_valid_pattern(bad)
    with pytest.raises(BadSubjectError):
        validate_pattern(bad)


def test_too_deep_subject_rejected():
    deep = ".".join(["x"] * 33)
    with pytest.raises(BadSubjectError):
        validate_subject(deep)


def test_deepest_subject_accepted():
    assert len(validate_subject(".".join(["x"] * 32))) == 32


# ----------------------------------------------------------------------
# matching semantics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("pattern,subject,expected", [
    ("news.equity.gmc", "news.equity.gmc", True),
    ("news.equity.gmc", "news.equity.ibm", False),
    ("news.equity.*", "news.equity.gmc", True),
    ("news.equity.*", "news.equity", False),
    ("news.equity.*", "news.equity.gmc.update", False),
    ("news.*.gmc", "news.equity.gmc", True),
    ("news.*.gmc", "news.bond.gmc", True),
    ("news.*.gmc", "news.gmc", False),
    ("*", "news", True),
    ("*", "news.equity", False),
    ("news.>", "news.equity", True),
    ("news.>", "news.equity.gmc.update", True),
    ("news.>", "news", False),
    (">", "anything", True),
    (">", "a.b.c", True),
    ("fab5.cc.*.thick", "fab5.cc.litho8.thick", True),
])
def test_subject_matches(pattern, subject, expected):
    assert subject_matches(pattern, subject) is expected


# ----------------------------------------------------------------------
# the trie
# ----------------------------------------------------------------------

def test_trie_exact_match():
    trie = SubjectTrie()
    trie.insert("news.equity.gmc", "A")
    trie.insert("news.equity.ibm", "B")
    assert trie.match("news.equity.gmc") == {"A"}
    assert trie.match("news.equity.ibm") == {"B"}
    assert trie.match("news.equity.xom") == set()


def test_trie_star_and_tail():
    trie = SubjectTrie()
    trie.insert("news.equity.*", "star")
    trie.insert("news.>", "tail")
    trie.insert("news.equity.gmc", "exact")
    assert trie.match("news.equity.gmc") == {"star", "tail", "exact"}
    assert trie.match("news.equity.gmc.update") == {"tail"}
    assert trie.match("news.bond.us") == {"tail"}
    assert trie.match("news") == set()   # '>' needs at least one more


def test_trie_multiple_values_same_pattern():
    trie = SubjectTrie()
    trie.insert("a.b", "x")
    trie.insert("a.b", "y")
    assert trie.match("a.b") == {"x", "y"}
    assert len(trie) == 2


def test_trie_duplicate_insert_is_noop():
    trie = SubjectTrie()
    trie.insert("a.b", "x")
    trie.insert("a.b", "x")
    assert len(trie) == 1


def test_trie_remove():
    trie = SubjectTrie()
    trie.insert("a.*", "x")
    trie.insert("a.>", "x")
    assert trie.remove("a.*", "x") is True
    assert trie.match("a.b") == {"x"}
    assert trie.remove("a.>", "x") is True
    assert trie.match("a.b") == set()
    assert trie.remove("a.>", "x") is False
    assert trie.remove("never.inserted", "x") is False
    assert len(trie) == 0


def test_trie_prunes_empty_branches():
    trie = SubjectTrie()
    trie.insert("a.b.c.d", "x")
    trie.remove("a.b.c.d", "x")
    assert trie._root.empty()


def test_trie_star_only_matches_one_level():
    trie = SubjectTrie()
    trie.insert("*.b", "x")
    assert trie.match("a.b") == {"x"}
    assert trie.match("a.c") == set()
    assert trie.match("a.b.c") == set()


def test_trie_rejects_bad_patterns():
    trie = SubjectTrie()
    with pytest.raises(BadSubjectError):
        trie.insert("a..b", "x")
    with pytest.raises(BadSubjectError):
        trie.match("a.*")   # match takes concrete subjects only


def test_trie_scales_independent_of_subscription_count():
    """The Figure 8 property: matching cost depends on subject depth, not
    on how many patterns are registered (validated functionally here,
    timed in benchmarks/test_fig8_subjects.py)."""
    trie = SubjectTrie()
    for i in range(10_000):
        trie.insert(f"bench.sub{i:05d}.data", i)
    assert trie.match("bench.sub04567.data") == {4567}
    assert trie.matches_anything("bench.sub00000.data")
    assert not trie.matches_anything("bench.nope.data")


# ----------------------------------------------------------------------
# match memoization
# ----------------------------------------------------------------------

def test_memo_repeated_match_returns_same_object():
    trie = SubjectTrie()
    trie.insert("a.>", "x")
    first = trie.match("a.b")
    assert trie.match("a.b") is first   # one shared frozen result


def test_memo_invalidated_by_insert():
    """A subscribe lands on the very next match — no stale memo."""
    trie = SubjectTrie()
    trie.insert("a.>", "x")
    assert trie.match("a.b") == {"x"}
    trie.insert("a.b", "y")
    assert trie.match("a.b") == {"x", "y"}


def test_memo_invalidated_by_remove():
    trie = SubjectTrie()
    trie.insert("a.>", "x")
    trie.insert("a.*", "y")
    assert trie.match("a.b") == {"x", "y"}
    trie.remove("a.*", "y")
    assert trie.match("a.b") == {"x"}


def test_memo_noop_insert_keeps_cache_valid():
    """Duplicate inserts and failed removes change nothing, so they must
    not clear the memo."""
    trie = SubjectTrie()
    trie.insert("a.b", "x")
    trie.insert("a.>", "y")
    first = trie.match("a.b")
    trie.insert("a.b", "x")              # duplicate: no-op
    trie.insert("a.>", "y")              # duplicate: no-op
    trie.remove("a.b", "never-there")    # miss: no-op
    trie.remove("a.*", "y")              # miss: no-op
    assert trie._memo == {"a.b": first}


def test_memo_capacity_bound(monkeypatch):
    monkeypatch.setattr(subjects_module, "MEMO_CAPACITY", 4)
    trie = SubjectTrie()
    trie.insert("s.>", "x")
    for i in range(100):
        trie.match(f"s.{i}")
    assert len(trie._memo) <= 4


def test_memo_capacity_zero_disables(monkeypatch):
    monkeypatch.setattr(subjects_module, "MEMO_CAPACITY", 0)
    trie = SubjectTrie()
    trie.insert("a.>", "x")
    assert trie.match("a.b") == {"x"}
    assert trie.match("a.b") == {"x"}
    assert trie._memo == {}


def test_memo_and_uncached_agree(monkeypatch):
    """Property check: cached and cache-free tries give identical answers
    across a mixed pattern set, including admin subjects."""
    patterns = ["a.>", "a.*", "a.b", "a.*.c", "*.b", ">", "_sys.control",
                "news.equity.*", "news.>"]
    subjects = ["a.b", "a.c", "a.b.c", "x.b", "news.equity.gmc",
                "news.bond.us", "_sys.control", "_sys.other", "zzz"]
    cached = SubjectTrie()
    monkeypatch.setattr(subjects_module, "MEMO_CAPACITY", 0)
    plain = SubjectTrie()
    for i, pattern in enumerate(patterns):
        cached.insert(pattern, i)
        plain.insert(pattern, i)
    for subject in subjects + subjects:   # repeats exercise memo hits
        assert cached.match(subject) == plain.match(subject), subject
        assert (cached.matches_anything(subject)
                == plain.matches_anything(subject)), subject


def test_matches_anything_consistent_with_match():
    trie = SubjectTrie()
    trie.insert("fab5.>", "tail")
    trie.insert("*.cc", "star")
    trie.insert("_admin.cmd", "adm")
    for subject in ["fab5.cc", "fab5.cc.litho8", "x.cc", "x.dd",
                    "_admin.cmd", "_admin.other", "fab5"]:
        assert trie.matches_anything(subject) == bool(trie.match(subject))


# ----------------------------------------------------------------------
# the two stores: literal patterns in a dict, wildcards in the trie
# ----------------------------------------------------------------------

def test_literal_patterns_stay_out_of_the_trie():
    trie = SubjectTrie()
    trie.insert("a.b.c", "x")
    trie.insert("_sys.control", "y")
    assert trie._root.empty()
    trie.insert("a.*.c", "w")
    assert trie.match("a.b.c") == {"x", "w"}
    assert trie.match("_sys.control") == {"y"}
    assert len(trie) == 3


def test_literal_hit_returns_the_stored_frozen_set():
    trie = SubjectTrie()
    trie.insert("a.b", "x")
    first = trie.match("a.b")
    assert isinstance(first, frozenset)
    assert trie.match("a.b") is first


ILL_FORMED = ["a..b", "a.*", "ü.x", "a.b\n"]


@pytest.mark.parametrize("wildcards", [False, True])
@pytest.mark.parametrize("probe", ILL_FORMED)
def test_ill_formed_probes_raise_from_either_store(probe, wildcards):
    trie = SubjectTrie()
    trie.insert("a.b", "x")
    if wildcards:
        trie.insert("a.>", "y")
    with pytest.raises(BadSubjectError):
        trie.match(probe)
    with pytest.raises(BadSubjectError):
        trie.matches_anything(probe)


def test_literal_only_trie_never_memoizes():
    """Working-set independence: however many distinct subjects a
    literal-only trie is asked about, it keeps nothing per subject."""
    trie = SubjectTrie()
    for i in range(0, 4000, 2):
        trie.insert(f"mkt.s{i}.tick", i)
    for i in range(10_000):
        subject = f"mkt.s{i}.tick"
        expected = {i} if i < 4000 and i % 2 == 0 else set()
        assert trie.match(subject) == expected
        assert trie.matches_anything(subject) is bool(expected)
    assert trie._memo == {}


def test_last_wildcard_removed_drops_the_memo():
    trie = SubjectTrie()
    trie.insert("a.b", "x")
    trie.insert("a.>", "y")
    assert trie.match("a.b") == {"x", "y"}
    assert not trie.matches_anything("c.d")
    assert trie._memo == {"a.b": {"x", "y"}, "c.d": set()}
    trie.remove("a.>", "y")
    assert trie._memo == {}
    assert trie.match("a.b") == {"x"}
