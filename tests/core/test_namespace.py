"""Tests for subject-naming schemes."""

import pytest

from repro.core import (BadSubjectError, FAB_SENSOR_SCHEME, NEWS_SCHEME,
                        SubjectScheme, subject_matches)


def test_paper_example_roundtrip():
    subject = FAB_SENSOR_SCHEME.subject(plant="fab5", station="litho8",
                                        metric="thick")
    assert subject == "fab5.cc.litho8.thick"
    assert FAB_SENSOR_SCHEME.parse(subject) == {
        "plant": "fab5", "station": "litho8", "metric": "thick"}
    assert FAB_SENSOR_SCHEME.matches(subject)


def test_pattern_wildcards_unbound_fields():
    pattern = FAB_SENSOR_SCHEME.pattern(plant="fab5", metric="thick")
    assert pattern == "fab5.cc.*.thick"
    assert subject_matches(pattern, "fab5.cc.litho8.thick")
    assert not subject_matches(pattern, "fab5.cc.litho8.temp")
    assert FAB_SENSOR_SCHEME.pattern() == "*.cc.*.*"


def test_pattern_tail():
    assert NEWS_SCHEME.pattern(category="equity", tail=True) == \
        "news.equity.*.>"


def test_field_named_tail_is_reserved():
    """``pattern(tail=...)`` is the ``>`` switch, so a ``{tail}`` field
    could never be bound: ``pattern(tail="x")`` used to answer
    ``root.*.*.>`` instead of ``root.*.x``."""
    with pytest.raises(BadSubjectError, match="reserved"):
        SubjectScheme("root.{a}.{tail}")
    # the switch itself and near-miss names are unaffected
    assert NEWS_SCHEME.pattern(category="equity", tail=True) == \
        "news.equity.*.>"
    assert SubjectScheme("root.{tails}.{tail_}").pattern(tails="x") == \
        "root.x.*"


def test_subject_requires_all_fields():
    with pytest.raises(BadSubjectError, match="unbound"):
        NEWS_SCHEME.subject(category="equity")


def test_unknown_field_rejected():
    with pytest.raises(BadSubjectError, match="unknown"):
        NEWS_SCHEME.subject(category="equity", topic="gmc", bogus="x")
    with pytest.raises(BadSubjectError):
        NEWS_SCHEME.pattern(bogus="x")


def test_field_values_validated():
    with pytest.raises(BadSubjectError):
        NEWS_SCHEME.subject(category="equity", topic="a.b")
    with pytest.raises(BadSubjectError):
        NEWS_SCHEME.subject(category="equity", topic="")


def test_parse_rejects_mismatches():
    assert NEWS_SCHEME.parse("sports.equity.gmc") is None
    assert NEWS_SCHEME.parse("news.equity") is None
    assert NEWS_SCHEME.parse("news.equity.gmc.extra") is None
    assert not NEWS_SCHEME.matches("not..valid")


def test_bad_templates_rejected():
    for bad in ["a.{}.b", "a.{x}{y}.b", "a.{x}.{x}", "pre{x}.b"]:
        with pytest.raises(BadSubjectError):
            SubjectScheme(bad)


def test_scheme_without_fields():
    scheme = SubjectScheme("status.heartbeat")
    assert scheme.subject() == "status.heartbeat"
    assert scheme.parse("status.heartbeat") == {}
    assert scheme.parse("status.other") is None
