"""Ablation: subject trie vs. linear subscription matching.

The reason Figure 8 comes out flat: the daemon's subscription table is a
trie whose match cost depends on subject depth, not on how many patterns
are registered.  The strawman — test every pattern with
``subject_matches`` — degrades linearly.  This is the design choice
behind the paper's "subject-based addressing scales more easily ... than
attribute qualification" argument.
"""

import statistics
import time

from repro.bench import Report
from repro.core import SubjectTrie, subject_matches

PATTERN_COUNTS = [100, 1000, 10000]
PROBES = 200
#: timed passes per point; the table reports their median, after one
#: untimed warm-up pass (a single cold pass read 20x the committed
#: figure on one machine)
REPEATS = 5


def build_patterns(count):
    # a realistic mix: exact subjects, one-level wildcards, tails
    patterns = []
    for i in range(count):
        if i % 10 == 0:
            patterns.append(f"bench.s{i:05d}.>")
        elif i % 10 == 1:
            patterns.append(f"bench.s{i:05d}.*")
        else:
            patterns.append(f"bench.s{i:05d}.data")
    return patterns


def probe_subjects(count):
    step = max(1, count // PROBES)
    return [f"bench.s{i:05d}.data" for i in range(0, count, step)][:PROBES]


def trie_match_all(trie, subjects):
    total = 0
    for subject in subjects:
        total += len(trie.match(subject))
    return total


def linear_match_all(patterns, subjects):
    total = 0
    for subject in subjects:
        total += sum(1 for p in patterns if subject_matches(p, subject))
    return total


def timed(match_all, table, subjects):
    """``(hits, median seconds per pass)`` of ``match_all`` over
    ``subjects``: one warm-up pass, then :data:`REPEATS` timed ones."""
    hits = match_all(table, subjects)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        assert match_all(table, subjects) == hits
        times.append(time.perf_counter() - t0)
    return hits, statistics.median(times)


def test_trie_matching_scales(benchmark, monkeypatch):
    # the trie walks every probe: with its match memo on, every pass
    # after the first would time a dict lookup, not the walk
    monkeypatch.setattr("repro.core.subjects.MEMO_CAPACITY", 0)
    rows = []
    for count in PATTERN_COUNTS:
        patterns = build_patterns(count)
        trie = SubjectTrie()
        for index, pattern in enumerate(patterns):
            trie.insert(pattern, index)
        subjects = probe_subjects(count)
        trie_hits, trie_time = timed(trie_match_all, trie, subjects)
        linear_hits, linear_time = timed(linear_match_all, patterns,
                                         subjects)
        assert trie_hits == linear_hits   # same semantics
        rows.append([count, trie_time * 1e6 / len(subjects),
                     linear_time * 1e6 / len(subjects),
                     linear_time / trie_time])

    # benchmark the trie at the Figure 8 scale for the timing record
    patterns = build_patterns(10000)
    trie = SubjectTrie()
    for index, pattern in enumerate(patterns):
        trie.insert(pattern, index)
    subjects = probe_subjects(10000)
    benchmark(trie_match_all, trie, subjects)

    report = Report("ablation_matching")
    report.table(
        "Subject matching: trie vs linear scan (per-subject cost)",
        ["patterns", "trie (us/match)", "linear (us/match)", "speedup"],
        rows)
    report.emit()

    # the trie's per-match cost must not grow with the table size ...
    assert rows[-1][1] < rows[0][1] * 3
    # ... while the linear scan visibly does
    assert rows[-1][2] > rows[0][2] * 20
    assert rows[-1][3] > 50   # at 10k patterns the trie wins big
