"""The Graphical Application Builder (Section 5.1).

    "The application builder is an interpreter-driven, user interface
    toolkit. ... All high-level application behavior is encoded in the
    interpreted language; only low-level behavior that is common to many
    applications is actually compiled. ... Services are self-describing,
    so users can inspect the interface description for each service.
    Using that information, a user can quickly construct a basic user
    interface for any service."

Two capabilities implement that paragraph:

* :meth:`ApplicationBuilder.form_for_service` — generate a working form
  (field per parameter, button per operation) purely from a discovered
  service's interface metadata; pressing the button performs the RMI
  call and writes the result into the form.  No compilation, no stubs.
* TDL scripting — the builder installs widget builtins (``make-form``,
  ``add-field!``, ``press!`` ...) into a TDL interpreter so application
  behavior is written in the interpreted language.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...core.rmi import RmiClient
from ...objects import DataObject
from ...objects.printer import render
from ...tdl import Interpreter
from .views import View
from .widgets import Button, Form, Label, ListView, TextField, WidgetError

__all__ = ["ApplicationBuilder"]


def _parse_field(value: str, type_name: str) -> Any:
    """Best-effort conversion of typed-in text to the declared type."""
    if type_name == "int":
        return int(value)
    if type_name == "float":
        return float(value)
    if type_name == "bool":
        return value.strip().lower() in ("t", "true", "yes", "1")
    if type_name.startswith("list<"):
        return [v.strip() for v in value.split(",") if v.strip()]
    return value   # strings and anything else pass through


class ApplicationBuilder:
    """Builds interactive applications from metadata and TDL scripts."""

    def __init__(self):
        self.tdl = Interpreter()
        self.forms: Dict[str, Form] = {}
        self._install_tdl_builtins()

    # ------------------------------------------------------------------
    # metadata-driven UI generation
    # ------------------------------------------------------------------
    def form_for_service(self, rmi: RmiClient,
                         name: Optional[str] = None) -> Form:
        """A form for a discovered service, one section per operation.

        Requires the RMI client to have completed at least one discovery
        (so ``rmi.server_interface`` is populated); or call
        :meth:`form_for_interface` with an interface description.
        """
        interface = rmi.server_interface
        if interface is None:
            raise WidgetError(
                "service interface not yet discovered; make a call first "
                "or pass the interface explicitly")
        return self.form_for_interface(interface, rmi,
                                       name or rmi.service_subject)

    def form_for_interface(self, interface: Dict, rmi: RmiClient,
                           name: str) -> Form:
        form = Form(name, title=f"Service: {interface.get('name', name)}")
        for op in interface.get("operations", []):
            op_name = op["name"]
            form.add(Label(f"{op_name}__head",
                           f"-- {op_name} -> {op.get('result', 'void')}"))
            for param in op.get("params", []):
                form.add(TextField(f"{op_name}.{param['name']}",
                                   label=f"{param['name']} "
                                         f"({param['type']})"))
            result_label = Label(f"{op_name}.result", "(not called)")

            def action(form_, op=op, result_label=result_label):
                self._invoke(form_, rmi, op, result_label)

            form.add(Button(f"{op_name}.call", label=f"Call {op_name}",
                            action=action))
            form.add(result_label)
        self.forms[form.name] = form
        return form

    def _invoke(self, form: Form, rmi: RmiClient, op: Dict,
                result_label: Label) -> None:
        args: Dict[str, Any] = {}
        for param in op.get("params", []):
            raw = form.field_value(f"{op['name']}.{param['name']}")
            try:
                args[param["name"]] = _parse_field(raw, param["type"])
            except ValueError:
                result_label.set(
                    f"error: {param['name']} must be {param['type']}")
                return
        result_label.set("(pending)")

        def on_result(value: Any, error: Optional[str]) -> None:
            if error is not None:
                result_label.set(f"error: {error}")
            elif isinstance(value, DataObject):
                result_label.set(render(value))
            elif isinstance(value, list):
                result_label.set(f"[{len(value)} results] " + "; ".join(
                    (v.get("headline", v.oid)
                     if isinstance(v, DataObject) else str(v))
                    for v in value[:5]))
            else:
                result_label.set(str(value))

        rmi.call(op["name"], args, on_result)

    def form_for_object(self, obj: DataObject,
                        name: Optional[str] = None) -> Form:
        """An editor form for any data object, one field per attribute."""
        form = Form(name or f"edit-{obj.oid}",
                    title=f"Object {obj.oid} <{obj.type_name}>")
        for attr_name in obj.attribute_names():
            field = TextField(
                attr_name,
                label=f"{attr_name} ({obj.attribute_type(attr_name)})")
            value = obj.get(attr_name)
            if value is not None and not isinstance(value, DataObject):
                field.set(value if not isinstance(value, list)
                          else ",".join(map(str, value)))
            form.add(field)
        self.forms[form.name] = form
        return form

    def _install_tdl_builtins(self) -> None:
        tdl = self.tdl

        def make_form(name, title=None):
            form = Form(str(name), title=str(title) if title else None)
            self.forms[form.name] = form
            return form

        tdl.define("make-form", make_form)
        tdl.define("get-form", lambda name: self.forms[str(name)])
        tdl.define("add-label!", lambda form, name, text="":
                   form.add(Label(str(name), str(text))))
        tdl.define("add-field!", lambda form, name, label=None:
                   form.add(TextField(str(name))))
        tdl.define("add-button!", lambda form, name, fn:
                   form.add(Button(str(name),
                                   action=lambda f: fn(f))))
        tdl.define("add-list!", lambda form, name, columns:
                   form.add(ListView(str(name),
                                     [str(c) for c in columns])))
        tdl.define("set-field!", lambda form, name, value:
                   form.set_field(str(name), value))
        tdl.define("field-value", lambda form, name:
                   form.field_value(str(name)))
        tdl.define("set-label!", lambda form, name, text:
                   form.widget(str(name)).set(str(text)))
        tdl.define("press!", lambda form, name: form.press(str(name)))
        tdl.define("add-row!", lambda listview, values:
                   listview.add_row(values))
        tdl.define("get-widget", lambda form, name: form.widget(str(name)))
        tdl.define("render-form", lambda form: form.render_text())
        tdl.define("make-view", lambda name, *specs: View.of(
            str(name), *[(str(s[0]), int(s[1])) for s in specs]))
        tdl.define("view-row", lambda view, obj: view.row(obj))
