"""Tests for the TDL reader."""

import pytest

from repro.tdl import Keyword, Symbol, TdlSyntaxError, read_all, to_source


def test_read_atoms():
    forms = read_all('42 -17 3.5 t nil "hello" foo :type')
    assert forms == [42, -17, 3.5, True, None, "hello", Symbol("foo"),
                     Keyword("type")]
    assert forms[3] is True and forms[4] is None
    assert isinstance(forms[6], Symbol)
    assert isinstance(forms[7], Keyword)


def test_read_list():
    assert read_all("(+ 1 (a b) 2)") == [
        [Symbol("+"), 1, [Symbol("a"), Symbol("b")], 2]]


def test_read_quote_sugar():
    assert read_all("'x '(1 2)") == [[Symbol("quote"), Symbol("x")],
                                     [Symbol("quote"), [1, 2]]]


def test_string_escapes():
    assert read_all(r'"a\"b\n\t\\"') == ['a"b\n\t\\']


def test_comments_skipped():
    forms = read_all("; leading comment\n(a) ; trailing\n(b)")
    assert forms == [[Symbol("a")], [Symbol("b")]]


def test_multiline_string_tracks_lines():
    assert read_all('"line1\nline2"') == ["line1\nline2"]


def test_read_all_multiple_forms():
    assert read_all("1 2 3") == [1, 2, 3]


@pytest.mark.parametrize("bad", ["(", ")", "(a (b)", '"unterminated',
                                 "(a))" ])
def test_malformed_input(bad):
    with pytest.raises(TdlSyntaxError):
        read_all(bad)


def test_symbols_with_special_chars():
    names = ["slot-value", "string-upcase", "/=", "&rest"]
    assert read_all(" ".join(names)) == [Symbol(name) for name in names]


def test_colon_alone_is_a_symbol():
    [form] = read_all(":")
    assert isinstance(form, Symbol)


def test_to_source_roundtrip():
    source = '(defclass story (object) ((headline :type string)) :doc "a\\nb")'
    forms = read_all(source)
    assert read_all(to_source(forms[0])) == forms


def test_to_source_scalars():
    assert to_source(True) == "t"
    assert to_source(None) == "nil"
    assert to_source(Keyword("k")) == ":k"
    assert to_source([1, "two"]) == '(1 "two")'
