"""Property-based tests: subject matching and the subscription trie.

The trie must agree exactly with the reference matcher
(:func:`subject_matches`) on arbitrary pattern/subject populations —
that equivalence is what makes Figure 8's flat curve trustworthy.
"""

import string
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SubjectTrie, subject_matches
from repro.core import subjects as subjects_module

_ELEMENT_ALPHABET = string.ascii_lowercase[:6] + "01"

element = st.text(_ELEMENT_ALPHABET, min_size=1, max_size=3)

subject = st.lists(element, min_size=1, max_size=5).map(".".join)

pattern_element = st.one_of(element, st.just("*"))


@st.composite
def pattern(draw):
    elements = draw(st.lists(pattern_element, min_size=1, max_size=5))
    if draw(st.booleans()):
        elements.append(">")
    return ".".join(elements)


@given(st.lists(pattern(), min_size=0, max_size=30), subject)
@settings(max_examples=300, deadline=None)
def test_trie_agrees_with_reference_matcher(patterns, probe):
    trie = SubjectTrie()
    for index, p in enumerate(patterns):
        trie.insert(p, index)
    expected = {index for index, p in enumerate(patterns)
                if subject_matches(p, probe)}
    assert trie.match(probe) == expected


admin_subject = st.tuples(element, st.lists(element, max_size=3)).map(
    lambda parts: ".".join(["_" + parts[0]] + parts[1]))


@st.composite
def admin_pattern(draw):
    """A pattern naming a reserved first element literally."""
    rest = draw(st.lists(pattern_element, max_size=3))
    if draw(st.booleans()):
        rest.append(">")
    return ".".join(["_" + draw(element)] + rest)


any_pattern = st.one_of(subject, pattern(), admin_pattern())
any_subject = st.one_of(subject, admin_subject)


@given(st.sampled_from([0, 4, subjects_module.MEMO_CAPACITY]), st.data())
@settings(max_examples=200, deadline=None)
def test_split_store_agrees_with_brute_force(capacity, data):
    """Interleaved inserts, removes and probes of literal, wildcard and
    ``_``-first patterns: the two stores (and the wildcard memo, at any
    capacity) answer exactly as the reference matcher over what is
    registered at that moment."""
    with mock.patch.object(subjects_module, "MEMO_CAPACITY", capacity):
        trie = SubjectTrie()
    registered = set()
    for _ in range(data.draw(st.integers(1, 40))):
        action = data.draw(st.sampled_from(["insert", "remove", "probe"]))
        if action == "insert":
            entry = (data.draw(any_pattern), data.draw(st.integers(0, 3)))
            trie.insert(*entry)
            registered.add(entry)
        elif action == "remove":
            if registered and data.draw(st.booleans()):
                entry = data.draw(st.sampled_from(sorted(registered)))
            else:
                entry = (data.draw(any_pattern), data.draw(st.integers(0, 3)))
            assert trie.remove(*entry) is (entry in registered)
            registered.discard(entry)
        probe = data.draw(any_subject)
        expected = {v for p, v in registered if subject_matches(p, probe)}
        assert trie.match(probe) == expected
        assert trie.matches_anything(probe) is bool(expected)
        assert len(trie) == len(registered)
        if not any("*" in p or ">" in p for p, _ in registered):
            assert not trie._memo
    # every registration is stored once, and nothing else is
    for entry in sorted(registered):
        assert trie.remove(*entry)
    assert len(trie) == 0


@given(st.lists(st.tuples(pattern(), st.integers(0, 5)),
                min_size=1, max_size=25),
       st.data())
@settings(max_examples=200, deadline=None)
def test_trie_remove_is_exact_inverse_of_insert(entries, data):
    """Insert everything, remove a random subset, and the trie must
    behave as if only the survivors were ever inserted."""
    trie = SubjectTrie()
    for p, v in entries:
        trie.insert(p, v)
    unique = list(dict.fromkeys(entries))
    to_remove = data.draw(st.lists(st.sampled_from(unique), unique=True,
                                   max_size=len(unique)))
    for p, v in to_remove:
        assert trie.remove(p, v)
    survivors = [e for e in unique if e not in to_remove]
    reference = SubjectTrie()
    for p, v in survivors:
        reference.insert(p, v)
    assert len(trie) == len(reference)
    probe = data.draw(subject)
    assert trie.match(probe) == reference.match(probe)


@given(st.lists(pattern(), min_size=1, max_size=20), subject)
@settings(max_examples=200, deadline=None)
def test_duplicate_inserts_do_not_change_matching(patterns, probe):
    once = SubjectTrie()
    twice = SubjectTrie()
    for index, p in enumerate(patterns):
        once.insert(p, index)
        twice.insert(p, index)
        twice.insert(p, index)
    assert once.match(probe) == twice.match(probe)
    assert len(once) == len(twice)


@given(subject)
@settings(max_examples=100, deadline=None)
def test_exact_pattern_always_matches_itself(probe):
    assert subject_matches(probe, probe)
    trie = SubjectTrie()
    trie.insert(probe, "self")
    assert trie.match(probe) == {"self"}


@given(subject)
@settings(max_examples=100, deadline=None)
def test_tail_wildcard_matches_any_extension(probe):
    assert subject_matches(">", probe)
    assert subject_matches(f"{probe}.>", probe + ".more")
    assert not subject_matches(f"{probe}.>", probe)


@given(st.lists(element, min_size=2, max_size=5))
@settings(max_examples=100, deadline=None)
def test_star_matches_exactly_one_element(elements):
    probe = ".".join(elements)
    for index in range(len(elements)):
        wild = elements[:index] + ["*"] + elements[index + 1:]
        assert subject_matches(".".join(wild), probe)
    # a pattern with one fewer/more element never matches
    assert not subject_matches(".".join(["*"] * (len(elements) - 1)), probe)
    assert not subject_matches(".".join(["*"] * (len(elements) + 1)), probe)
