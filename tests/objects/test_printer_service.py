"""Tests for the generic print utility and service objects."""

import pytest

from repro.objects import (AttributeSpec, DataObject, OperationSpec, ParamSpec,
                           TypeDescriptor, standard_registry)
from repro.objects.printer import render
from repro.objects.service import ServiceError, ServiceObject


@pytest.fixture
def reg():
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "source", attributes=[AttributeSpec("name", "string")]))
    registry.register(TypeDescriptor(
        "story",
        attributes=[AttributeSpec("headline", "string"),
                    AttributeSpec("codes", "list<string>", required=False),
                    AttributeSpec("source", "source", required=False)]))
    return registry


# ----------------------------------------------------------------------
# printer
# ----------------------------------------------------------------------

def test_render_recursively_descends(reg):
    story = DataObject(reg, "story", headline="Fab yields up",
                       codes=["semis", "fab5"],
                       source=DataObject(reg, "source", name="Reuters"))
    text = render(story)
    assert "<story>" in text
    assert 'headline: "Fab yields up"' in text
    assert "[0]" in text and '"semis"' in text
    assert "<source>" in text and '"Reuters"' in text


def test_render_marks_unset_attributes(reg):
    story = DataObject(reg, "story", headline="x")
    assert "<unset list<string>>" in render(story)


def test_render_handles_any_type_generically(reg):
    """The print utility needs no per-type code: a brand-new type renders."""
    reg.register(TypeDescriptor(
        "recipe", attributes=[AttributeSpec("steps", "list<string>")]))
    recipe = DataObject(reg, "recipe", steps=["etch", "rinse"])
    assert "<recipe>" in render(recipe)


def test_render_scalars_and_containers(reg):
    assert render(None) == "nil"
    assert render(42) == "42"
    assert render("hi") == '"hi"'
    assert render(b"abc") == "<3 bytes>"
    assert render([]) == "[]"
    assert render({}) == "{}"
    assert "map of 2" in render({"b": 1, "a": 2})


def test_render_depth_limit(reg):
    nested = [[[[[["deep"]]]]]]
    text = render(nested, max_depth=3)
    assert "..." in text


# ----------------------------------------------------------------------
# service objects
# ----------------------------------------------------------------------

@pytest.fixture
def quote_service(reg):
    reg.register(TypeDescriptor(
        "quote_service",
        operations=[
            OperationSpec("last_price", params=(ParamSpec("symbol", "string"),),
                          result_type="float", doc="latest trade price"),
            OperationSpec("symbols", result_type="list<string>"),
            OperationSpec("reset"),
        ],
        doc="market data access"))
    svc = ServiceObject(reg, "quote_service")
    prices = {"GM": 41.5, "IBM": 58.25}
    svc.implement("last_price", lambda symbol: prices[symbol])
    svc.implement("symbols", lambda: sorted(prices))
    return svc


def test_invoke_checks_signature(quote_service):
    assert quote_service.invoke("last_price", {"symbol": "GM"}) == 41.5
    assert quote_service.invoke("symbols", {}) == ["GM", "IBM"]


def test_invoke_unknown_operation(quote_service):
    with pytest.raises(ServiceError, match="no operation"):
        quote_service.invoke("ghost", {})


def test_invoke_missing_argument(quote_service):
    with pytest.raises(ServiceError, match="missing"):
        quote_service.invoke("last_price", {})


def test_invoke_unknown_argument(quote_service):
    with pytest.raises(ServiceError, match="unknown"):
        quote_service.invoke("symbols", {"bogus": 1})


def test_invoke_bad_argument_type(quote_service):
    with pytest.raises(Exception):
        quote_service.invoke("last_price", {"symbol": 123})


def test_invoke_unimplemented_operation(quote_service):
    with pytest.raises(ServiceError, match="not implemented"):
        quote_service.invoke("reset", {})
    assert quote_service.missing_operations() == ["reset"]


def test_result_type_checked(reg):
    reg.register(TypeDescriptor(
        "bad_service",
        operations=[OperationSpec("n", result_type="int")]))
    svc = ServiceObject(reg, "bad_service")
    svc.implement("n", lambda: "not an int")
    with pytest.raises(Exception):
        svc.invoke("n", {})


def test_implement_unknown_operation_rejected(reg):
    reg.register(TypeDescriptor("empty_service"))
    svc = ServiceObject(reg, "empty_service")
    with pytest.raises(ServiceError):
        svc.implement("ghost", lambda: None)


def test_service_is_self_describing(quote_service):
    desc = quote_service.describe()
    ops = {o["name"] for o in desc["operations"]}
    assert ops == {"last_price", "symbols", "reset"}
    sig = quote_service.operation("last_price").signature()
    assert sig == "last_price(symbol: string) -> float"
