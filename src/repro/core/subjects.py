"""Subject-Based Addressing (the heart of P4, anonymous communication).

Subjects are hierarchically structured, dot-separated strings — the
paper's example is ``"fab5.cc.litho8.thick"`` (plant, cell controller,
lithography station, wafer thickness).  Consumers may subscribe with
patterns that are "partially specified or 'wildcarded'":

* ``*`` matches exactly one element: ``news.equity.*`` matches
  ``news.equity.gmc`` but not ``news.equity.gmc.update``;
* ``>`` as the final element matches one or more trailing elements:
  ``fab5.>`` matches everything under ``fab5``.

The Information Bus itself "enforces no policy on the interpretation of
subjects" — matching is purely structural.

:class:`SubjectTrie` is the daemon's subscription table, in two stores.
A wildcard-free pattern is a key of one dict, so matching a subject
against N literal patterns is one probe, independent of N — which is
why Figure 8 (ten thousand subjects) shows no throughput effect.  Only
patterns holding ``*`` or ``>`` go in the trie proper, whose walk costs
O(subject depth × branching on wildcards).  The walk's results are
memoized per concrete subject: wildcard subscribers see the same
subjects thousands of times (Figs 5–8 publish on a handful of
subjects), so steady-state wildcard matching is one dict hit too.  Any
insert/remove that changes the trie clears the memo on the spot, so a
mid-stream subscribe/unsubscribe is visible on the very next match.  A
trie with no wildcard registration never touches the memo: its cost
does not depend on how many distinct subjects it is asked about.  The
interest gate asks the same :meth:`SubjectTrie.match`, so a subject no
one wants is memoized as an empty result beside the wanted ones.
"""

from __future__ import annotations

import re
from typing import Any, Dict, FrozenSet, Generic, List, Optional, Set, TypeVar

__all__ = ["BadSubjectError", "SubjectTrie", "is_valid_pattern",
           "split_subject", "subject_matches", "validate_pattern",
           "validate_subject"]

#: Maximum elements in a subject; a sanity bound, not a protocol limit.
MAX_DEPTH = 32

_ELEMENT = r"[A-Za-z0-9_\-]+"
_ELEMENT_RE = re.compile(_ELEMENT)
#: A whole well-formed subject, one to ``MAX_DEPTH`` elements, in one
#: call (``fullmatch`` only: ``$`` would accept a trailing newline).
_is_subject = re.compile(
    rf"{_ELEMENT}(?:\.{_ELEMENT}){{0,{MAX_DEPTH - 1}}}").fullmatch

_EMPTY: FrozenSet[Any] = frozenset()

#: Bound on memoized concrete subjects per trie (used only while the trie
#: holds a wildcard registration), read when a trie is built.  0 disables
#: the memo entirely: the cache-free reference the tests cross-check the
#: memo against.
MEMO_CAPACITY = 1024


class BadSubjectError(ValueError):
    """A malformed subject or subscription pattern."""


def split_subject(subject: str) -> List[str]:
    return subject.split(".")


def validate_subject(subject: str) -> List[str]:
    """Validate a *concrete* subject (no wildcards); return its elements.

    One regex call decides; the rest only words the error."""
    if _is_subject(subject) is not None:
        return subject.split(".")
    if not subject:
        raise BadSubjectError("empty subject")
    elements = split_subject(subject)
    if len(elements) > MAX_DEPTH:
        raise BadSubjectError(f"subject too deep ({len(elements)} elements)")
    bad = next(element for element in elements
               if _ELEMENT_RE.fullmatch(element) is None)
    raise BadSubjectError(f"bad subject element {bad!r} in {subject!r}")


def validate_pattern(pattern: str) -> List[str]:
    """Validate a subscription pattern; return its elements."""
    if not pattern:
        raise BadSubjectError("empty pattern")
    elements = split_subject(pattern)
    if len(elements) > MAX_DEPTH:
        raise BadSubjectError(f"pattern too deep ({len(elements)} elements)")
    for index, element in enumerate(elements):
        if element == "*":
            continue
        if element == ">":
            if index != len(elements) - 1:
                raise BadSubjectError(
                    f"'>' must be the final element: {pattern!r}")
            continue
        if _ELEMENT_RE.fullmatch(element) is None:
            raise BadSubjectError(
                f"bad pattern element {element!r} in {pattern!r}")
    return elements


def is_valid_pattern(pattern: str) -> bool:
    try:
        validate_pattern(pattern)
        return True
    except BadSubjectError:
        return False


def subject_matches(pattern: str, subject: str) -> bool:
    """True if ``pattern`` matches the concrete ``subject``."""
    p_elements = validate_pattern(pattern)
    s_elements = validate_subject(subject)
    if s_elements[0].startswith("_") and p_elements[0] in ("*", ">"):
        return False   # reserved subjects need a literal first element
    for index, p_element in enumerate(p_elements):
        if p_element == ">":
            return len(s_elements) > index   # one or more remaining
        if index >= len(s_elements):
            return False
        if p_element != "*" and p_element != s_elements[index]:
            return False
    return len(p_elements) == len(s_elements)


def _is_literal(pattern: str) -> bool:
    """True for a valid pattern with no wildcard element (those are the
    only places ``*`` and ``>`` may appear)."""
    return "*" not in pattern and ">" not in pattern


T = TypeVar("T")


class _TrieNode(Generic[T]):
    __slots__ = ("children", "star", "tail", "values", "tail_values")

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode[T]"] = {}
        self.star: Optional["_TrieNode[T]"] = None
        self.values: Set[T] = set()        # subscriptions ending exactly here
        self.tail_values: Set[T] = set()   # '>' subscriptions rooted here

    def empty(self) -> bool:
        return (not self.children and self.star is None
                and not self.values and not self.tail_values)


class SubjectTrie(Generic[T]):
    """Maps subscription patterns to sets of opaque values.

    Used by daemons (pattern -> local subscriptions), routers (pattern ->
    remote buses), and anywhere else subjects fan out.  Two stores: a
    wildcard-free pattern is a key of ``_literals`` (pattern -> frozen
    value set), and only patterns with ``*`` or ``>`` live in the trie
    under ``_root``.  While no wildcard is registered, ``match`` is one
    dict probe (plus one regex call to validate a miss), whatever the
    number of registrations or of distinct subjects asked about.
    Otherwise it costs O(depth × branching on wildcards) — and for a
    concrete subject seen since the trie last changed, one memo lookup
    (bounded by :data:`MEMO_CAPACITY`).
    """

    def __init__(self) -> None:
        #: wildcard-free pattern -> frozen set of its values (never empty)
        self._literals: Dict[str, FrozenSet[T]] = {}
        #: the patterns holding ``*`` or ``>``
        self._root: _TrieNode[T] = _TrieNode()
        self._count = 0
        #: registrations under ``_root``; 0 means no walk and no memo
        self._wildcards = 0
        self._memo_capacity = MEMO_CAPACITY
        #: concrete subject -> frozen match result (empty for a subject
        #: nothing wants); cleared by every change to the trie
        self._memo: Dict[str, FrozenSet[T]] = {}

    def insert(self, pattern: str, value: T) -> None:
        """Register ``value`` under ``pattern``.  Duplicate inserts are no-ops."""
        elements = validate_pattern(pattern)
        if _is_literal(pattern):
            values = self._literals.get(pattern, _EMPTY)
            if value in values:
                return
            self._literals[pattern] = values | {value}
        else:
            tail = elements[-1] == ">"
            node = self._root
            for element in (elements[:-1] if tail else elements):
                if element == "*":
                    if node.star is None:
                        node.star = _TrieNode()
                    node = node.star
                else:
                    node = node.children.setdefault(element, _TrieNode())
            values = node.tail_values if tail else node.values
            if value in values:
                return
            values.add(value)
            self._wildcards += 1
        self._count += 1
        # a memoized result is a union that includes literal values, so
        # a literal change clears it too
        self._memo.clear()

    def remove(self, pattern: str, value: T) -> bool:
        """Remove one registration; returns True if it existed.

        Empty trie branches and emptied literal patterns are pruned so
        long-running daemons with churning subscriptions do not leak.
        """
        elements = validate_pattern(pattern)
        if _is_literal(pattern):
            values = self._literals.get(pattern, _EMPTY)
            if value not in values:
                return False
            if len(values) == 1:
                del self._literals[pattern]
            else:
                self._literals[pattern] = values - {value}
        elif self._remove(self._root, elements, 0, value):
            self._wildcards -= 1
        else:
            return False
        self._count -= 1
        self._memo.clear()
        return True

    def _remove(self, node: _TrieNode[T], elements: List[str], index: int,
                value: T) -> bool:
        if index < len(elements) and elements[index] == ">":
            if value in node.tail_values:
                node.tail_values.discard(value)
                return True
            return False
        if index == len(elements):
            if value in node.values:
                node.values.discard(value)
                return True
            return False
        element = elements[index]
        if element == "*":
            child = node.star
            if child is None:
                return False
            removed = self._remove(child, elements, index + 1, value)
            if removed and child.empty():
                node.star = None
            return removed
        child = node.children.get(element)
        if child is None:
            return False
        removed = self._remove(child, elements, index + 1, value)
        if removed and child.empty():
            del node.children[element]
        return removed

    def match(self, subject: str) -> FrozenSet[T]:
        """Every value whose pattern matches the concrete ``subject``.

        Reserved subjects (leading ``_`` element: bus-internal traffic
        such as ``_discovery.*`` and ``_sub.advert``) are only reached by
        patterns that name the first element literally — a ``>``
        subscriber sees application data, not protocol chatter.  The
        returned set is frozen: one result
        object is shared by every repeat of the same subject until the
        trie next changes.
        """
        if not self._wildcards:
            if subject in self._literals:
                return self._literals[subject]   # registered: well-formed
            if _is_subject(subject) is None:
                validate_subject(subject)   # raises, saying why
            return _EMPTY
        memo = self._memo
        if self._memo_capacity:
            hit = memo.get(subject)
            if hit is not None:
                return hit
        elements = validate_subject(subject)
        found = self._walk(elements, elements[0].startswith("_"))
        literal = self._literals.get(subject)
        if literal is not None:
            found |= literal
        result = frozenset(found)
        if self._memo_capacity:
            if len(memo) >= self._memo_capacity:
                # epoch eviction: a steady-state working set refills in
                # one pass, and nothing is scanned per match
                memo.clear()
            memo[subject] = result
        return result

    def _walk(self, elements: List[str], admin: bool) -> Set[T]:
        """Iterative trie walk (no per-level Python call frames)."""
        out: Set[T] = set()
        depth = len(elements)
        stack = [(self._root, 0)]
        while stack:
            node, index = stack.pop()
            wildcards_ok = not (admin and index == 0)
            if index == depth:
                out |= node.values
                continue
            if wildcards_ok and node.tail_values:
                out |= node.tail_values   # '>' matches the non-empty rest
            child = node.children.get(elements[index])
            if child is not None:
                stack.append((child, index + 1))
            if node.star is not None and wildcards_ok:
                stack.append((node.star, index + 1))
        return out

    def matches_anything(self, subject: str) -> bool:
        """Whether any registration matches ``subject``."""
        return bool(self.match(subject))

    def __len__(self) -> int:
        """Number of (pattern, value) registrations."""
        return self._count
