"""Tests for the widget toolkit and the metadata-driven app builder."""

import pytest

from repro.apps import ApplicationBuilder
from repro.apps.app_builder import (Button, Form, Label, ListView,
                                    TextField, WidgetError)
from repro.core import InformationBus
from repro.core.rmi import RmiClient, RmiServer
from repro.objects import (AttributeSpec, DataObject, OperationSpec, ParamSpec,
                           TypeDescriptor, standard_registry)
from repro.objects.service import ServiceObject
from repro.sim import CostModel


# ----------------------------------------------------------------------
# widgets
# ----------------------------------------------------------------------

def test_form_renders_widgets_in_order():
    form = Form("f", title="Test Form")
    form.add(Label("l1", "Hello"))
    form.add(TextField("name", value="ada"))
    form.add(Button("ok"))
    text = form.render_text()
    assert "Test Form" in text
    assert text.index("Hello") < text.index("name: [ada]") < \
        text.index("<ok>")


def test_field_set_and_get():
    form = Form("f")
    form.add(TextField("name"))
    form.set_field("name", 42)
    assert form.field_value("name") == "42"
    with pytest.raises(WidgetError):
        form.set_field("ghost", "x")
    form.add(Label("lab"))
    with pytest.raises(WidgetError):
        form.set_field("lab", "not a field")


def test_button_press_invokes_action():
    pressed = []
    form = Form("f")
    form.add(Button("go", action=lambda f: pressed.append(f.name)))
    form.press("go")
    assert pressed == ["f"]
    assert form.widget("go").presses == 1
    with pytest.raises(WidgetError):
        form.press("ghost")


def test_duplicate_widget_name_rejected():
    form = Form("f")
    form.add(Label("x"))
    with pytest.raises(WidgetError):
        form.add(Label("x"))


def test_listview_rows_and_selection():
    lv = ListView("stories", ["topic", "headline"], [6, 20])
    lv.add_row(["gmc", "GM rises"])
    lv.add_row(["ibm", "IBM falls"])
    selected = []
    lv.on_select(selected.append)
    lv.select(1)
    assert selected == [1]
    lines = lv.render()
    assert lines[0].startswith("topic")
    assert lines[3].startswith(">")          # selection marker
    with pytest.raises(WidgetError):
        lv.select(9)
    with pytest.raises(WidgetError):
        lv.add_row(["only-one"])


def test_listview_bounded():
    lv = ListView("l", ["a"], max_rows=3)
    for i in range(5):
        lv.add_row([i])
    assert [r[0] for r in lv.rows] == ["2", "3", "4"]


# ----------------------------------------------------------------------
# metadata-driven service UI ("a basic user interface for any service")
# ----------------------------------------------------------------------

@pytest.fixture
def service_world():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(3)
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "calc_service",
        operations=[
            OperationSpec("add", params=(ParamSpec("a", "int"),
                                         ParamSpec("b", "int")),
                          result_type="int"),
            OperationSpec("motto", result_type="string"),
        ]))
    svc = ServiceObject(reg, "calc_service")
    svc.implement("add", lambda a, b: a + b)
    svc.implement("motto", lambda: "publish and subscribe")
    RmiServer(bus.client("node01", "calc"), "svc.calc", svc)
    rmi = RmiClient(bus.client("node00", "user"), "svc.calc")
    # prime discovery so the interface metadata is known
    done = []
    rmi.call("motto", {}, lambda v, e: done.append(v))
    bus.run_for(2.0)
    assert done == ["publish and subscribe"]
    return bus, rmi


def test_form_generated_from_interface(service_world):
    bus, rmi = service_world
    builder = ApplicationBuilder()
    form = builder.form_for_service(rmi)
    text = form.render_text()
    assert "add" in text and "motto" in text
    assert "a (int)" in text and "b (int)" in text


def test_generated_form_performs_calls(service_world):
    bus, rmi = service_world
    builder = ApplicationBuilder()
    form = builder.form_for_service(rmi)
    form.set_field("add.a", "20")
    form.set_field("add.b", "22")
    form.press("add.call")
    assert "pending" in form.widget("add.result").text
    bus.run_for(2.0)
    assert form.widget("add.result").text == "42"


def test_generated_form_reports_bad_input(service_world):
    bus, rmi = service_world
    builder = ApplicationBuilder()
    form = builder.form_for_service(rmi)
    form.set_field("add.a", "not-a-number")
    form.set_field("add.b", "2")
    form.press("add.call")
    assert "must be int" in form.widget("add.result").text


def test_form_for_service_requires_discovery():
    bus = InformationBus(seed=2, cost=CostModel.ideal())
    bus.add_hosts(2)
    rmi = RmiClient(bus.client("node00", "u"), "svc.ghost")
    with pytest.raises(WidgetError):
        ApplicationBuilder().form_for_service(rmi)


def test_form_for_object():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "recipe", attributes=[AttributeSpec("name", "string"),
                              AttributeSpec("steps", "list<string>",
                                            required=False)]))
    obj = DataObject(reg, "recipe", name="etch-a", steps=["etch", "rinse"])
    form = ApplicationBuilder().form_for_object(obj)
    text = form.render_text()
    assert "name (string): [etch-a]" in text
    assert "steps (list<string>): [etch,rinse]" in text


# ----------------------------------------------------------------------
# TDL scripting ("all high-level application behavior is interpreted")
# ----------------------------------------------------------------------

def test_tdl_script_builds_and_drives_a_form():
    builder = ApplicationBuilder()
    result = builder.tdl.eval_text("""
        (define f (make-form "hello" "Hello Form"))
        (add-field! f "who")
        (add-label! f "greeting" "")
        (add-button! f "greet"
          (lambda (form)
            (set-label! form "greeting"
                        (concat "hello, " (field-value form "who")))))
        (set-field! f "who" "fab5")
        (press! f "greet")
        (render-form f)
    """)
    assert "hello, fab5" in result
    assert "hello" in builder.forms


def test_tdl_views():
    builder = ApplicationBuilder()
    builder.tdl.eval_text("""
        (defclass note (object) ((title :type string)))
    """)
    row = builder.tdl.eval_text("""
        (define v (make-view "notes" (list "title" 10)))
        (view-row v (make-instance 'note :title "remember"))
    """)
    assert row.startswith("remember")
