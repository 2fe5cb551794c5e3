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

:class:`SubjectTrie` is the daemon's subscription table: inserting N
patterns and matching a subject costs O(subject depth), independent of N
— which is why Figure 8 (ten thousand subjects) shows no throughput
effect.  On top of that structural bound the trie memoizes concrete
subjects: dispatch workloads repeat the same subjects thousands of times
(Figs 5–8 publish on a handful of subjects), so steady-state matching is
one dict hit.  The memo is generation-stamped — any insert/remove bumps
the generation and lazily discards every memoized result — so a
mid-stream subscribe/unsubscribe is visible on the very next match.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Generic, List, Optional, Set, TypeVar

__all__ = ["BadSubjectError", "SubjectTrie", "is_admin_subject",
           "is_valid_pattern",
           "is_valid_subject", "split_subject", "subject_matches",
           "validate_pattern", "validate_subject"]

_ELEMENT_RE = re.compile(r"^[A-Za-z0-9_\-]+$")

#: Maximum elements in a subject; a sanity bound, not a protocol limit.
MAX_DEPTH = 32

#: Default bound on memoized concrete subjects per trie.  0 disables the
#: memo entirely (the cache-free reference ``tests/core/test_subjects.py``
#: cross-checks the memo against).
DEFAULT_MEMO_CAPACITY = 1024


class BadSubjectError(ValueError):
    """A malformed subject or subscription pattern."""


def split_subject(subject: str) -> List[str]:
    return subject.split(".")


def validate_subject(subject: str) -> List[str]:
    """Validate a *concrete* subject (no wildcards); return its elements."""
    if not subject:
        raise BadSubjectError("empty subject")
    elements = split_subject(subject)
    if len(elements) > MAX_DEPTH:
        raise BadSubjectError(f"subject too deep ({len(elements)} elements)")
    for element in elements:
        if not _ELEMENT_RE.match(element):
            raise BadSubjectError(
                f"bad subject element {element!r} in {subject!r}")
    return elements


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
        if not _ELEMENT_RE.match(element):
            raise BadSubjectError(
                f"bad pattern element {element!r} in {pattern!r}")
    return elements


def is_valid_subject(subject: str) -> bool:
    try:
        validate_subject(subject)
        return True
    except BadSubjectError:
        return False


def is_valid_pattern(pattern: str) -> bool:
    try:
        validate_pattern(pattern)
        return True
    except BadSubjectError:
        return False


def is_admin_subject(subject: str) -> bool:
    """True for reserved/administrative subjects (first element starts
    with ``_``): bus-internal traffic such as ``_discovery.*`` and
    ``_sub.advert``.  Wildcards never match these — a ``>`` subscriber
    should see application data, not protocol chatter — so the first
    pattern element must name them literally."""
    return subject.split(".", 1)[0].startswith("_")


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

    Used by daemons (pattern -> local clients), routers (pattern ->
    remote buses), and anywhere else subjects fan out.  ``match`` cost is
    O(depth × branching on wildcards), not O(#subscriptions) — and for a
    concrete subject seen before (and no interleaving insert/remove), one
    dict lookup.  ``memo_capacity=0`` disables memoization.
    """

    def __init__(self, memo_capacity: Optional[int] = None) -> None:
        self._root: _TrieNode[T] = _TrieNode()
        self._count = 0
        if memo_capacity is None:
            memo_capacity = DEFAULT_MEMO_CAPACITY
        self._memo_capacity = memo_capacity
        #: concrete subject -> frozen match result, valid only while
        #: ``_memo_generation`` equals ``_generation``
        self._memo: Dict[str, FrozenSet[T]] = {}
        #: concrete subject -> bool, the :meth:`matches_anything` memo.
        #: Separate from ``_memo`` because the interest gate asks about
        #: subjects this daemon will *never* ``match()`` (that is the
        #: point), so the full-result memo stays cold for them.  Guarded
        #: by the same generation stamp.
        self._bool_memo: Dict[str, bool] = {}
        self._generation = 0
        self._memo_generation = 0

    def _fresh_memos(self) -> None:
        """Discard both memos after a subscription change (lazily, on
        the next lookup that notices the generation moved)."""
        self._memo.clear()
        self._bool_memo.clear()
        self._memo_generation = self._generation

    def insert(self, pattern: str, value: T) -> None:
        """Register ``value`` under ``pattern``.  Duplicate inserts are no-ops."""
        elements = validate_pattern(pattern)
        node = self._root
        for element in elements:
            if element == ">":
                if value not in node.tail_values:
                    node.tail_values.add(value)
                    self._count += 1
                    self._generation += 1
                return
            if element == "*":
                if node.star is None:
                    node.star = _TrieNode()
                node = node.star
            else:
                node = node.children.setdefault(element, _TrieNode())
        if value not in node.values:
            node.values.add(value)
            self._count += 1
            self._generation += 1

    def remove(self, pattern: str, value: T) -> bool:
        """Remove one registration; returns True if it existed.

        Empty trie branches are pruned so long-running daemons with
        churning subscriptions do not leak.
        """
        elements = validate_pattern(pattern)
        removed = self._remove(self._root, elements, 0, value)
        if removed:
            self._generation += 1
        return removed

    def _remove(self, node: _TrieNode[T], elements: List[str], index: int,
                value: T) -> bool:
        if index < len(elements) and elements[index] == ">":
            if value in node.tail_values:
                node.tail_values.discard(value)
                self._count -= 1
                return True
            return False
        if index == len(elements):
            if value in node.values:
                node.values.discard(value)
                self._count -= 1
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

        Reserved subjects (leading ``_`` element) are only reached by
        patterns that name the first element literally — see
        :func:`is_admin_subject`.  The returned set is frozen: one result
        object is shared by every repeat of the same subject until the
        trie next changes.
        """
        memo = self._memo
        if self._memo_capacity:
            if self._memo_generation != self._generation:
                self._fresh_memos()
            hit = memo.get(subject)
            if hit is not None:
                return hit
        elements = validate_subject(subject)
        result = frozenset(self._walk(elements,
                                      elements[0].startswith("_")))
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
        """Cheaper ``bool(match(subject))`` for forwarding decisions.

        Short-circuits on the first registration found instead of
        materializing the full match set (routers call this once per
        envelope heard on a bus, and the interest gate once per digest
        subject).  Results are memoized alongside the full-match memo —
        steady-state disinterest is one dict hit — and invalidated by
        the same generation stamp, so a mid-stream subscribe is visible
        on the very next frame.
        """
        if self._memo_capacity:
            if self._memo_generation != self._generation:
                self._fresh_memos()
            hit = self._memo.get(subject)
            if hit is not None:
                return bool(hit)
            bool_hit = self._bool_memo.get(subject)
            if bool_hit is not None:
                return bool_hit
        elements = validate_subject(subject)
        result = self._walk_any(elements, elements[0].startswith("_"))
        if self._memo_capacity:
            if len(self._bool_memo) >= self._memo_capacity:
                self._bool_memo.clear()   # epoch eviction, like _memo
            self._bool_memo[subject] = result
        return result

    def _walk_any(self, elements: List[str], admin: bool) -> bool:
        depth = len(elements)
        stack = [(self._root, 0)]
        while stack:
            node, index = stack.pop()
            wildcards_ok = not (admin and index == 0)
            if index == depth:
                if node.values:
                    return True
                continue
            if wildcards_ok and node.tail_values:
                return True
            child = node.children.get(elements[index])
            if child is not None:
                stack.append((child, index + 1))
            if node.star is not None and wildcards_ok:
                stack.append((node.star, index + 1))
        return False

    def patterns_for(self, value: T) -> List[str]:
        """Every pattern under which ``value`` is registered (diagnostics)."""
        out: List[str] = []
        self._collect(self._root, [], value, out)
        return sorted(out)

    def _collect(self, node: _TrieNode[T], prefix: List[str], value: T,
                 out: List[str]) -> None:
        if value in node.values and prefix:
            out.append(".".join(prefix))
        if value in node.tail_values:
            out.append(".".join(prefix + [">"]))
        for element, child in node.children.items():
            self._collect(child, prefix + [element], value, out)
        if node.star is not None:
            self._collect(node.star, prefix + ["*"], value, out)

    def __len__(self) -> int:
        """Number of (pattern, value) registrations."""
        return self._count
