"""Subject naming conventions.

    "The Information Bus itself enforces no policy on the interpretation
    of subjects.  Instead, the system designers and developers have the
    freedom and responsibility to establish conventions on the use of
    subjects."  (Section 3.1)

A :class:`SubjectScheme` is such a convention, made executable: a
template of named fields (``plant.cc.{station}.{metric}``) that builds
concrete subjects, parses received ones back into fields, and produces
subscription patterns for any subset of bindings.  The factory apps use
the scheme the paper's own example subject implies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .subjects import BadSubjectError, validate_pattern, validate_subject

__all__ = ["SubjectScheme", "FAB_SENSOR_SCHEME", "NEWS_SCHEME"]


class SubjectScheme:
    """A dot-template with ``{named}`` fields.

    >>> scheme = SubjectScheme("fab.cc.{station}.{metric}")
    >>> scheme.subject(station="litho8", metric="thick")
    'fab.cc.litho8.thick'
    >>> scheme.parse("fab.cc.litho8.thick")
    {'station': 'litho8', 'metric': 'thick'}
    >>> scheme.pattern(metric="thick")
    'fab.cc.*.thick'
    """

    def __init__(self, template: str):
        self.template = template
        self._elements: List[str] = template.split(".")
        self.fields: List[str] = []
        for element in self._elements:
            if element.startswith("{") and element.endswith("}"):
                name = element[1:-1]
                if (not name or name in self.fields
                        or "{" in name or "}" in name
                        or not name.replace("_", "").isalnum()):
                    raise BadSubjectError(
                        f"bad template field {element!r} in {template!r}")
                if name == "tail":
                    # pattern(tail=True) is the ``>`` switch; a field of
                    # that name could never be bound through it
                    raise BadSubjectError(
                        f"field name 'tail' is reserved: {template!r}")
                self.fields.append(name)
            elif "{" in element or "}" in element:
                raise BadSubjectError(
                    f"braces must span a whole element: {element!r}")
        # validate the fixed skeleton by substituting a placeholder
        validate_subject(".".join(
            "x" if e.startswith("{") else e for e in self._elements))

    # ------------------------------------------------------------------
    def subject(self, **bindings: str) -> str:
        """A concrete subject; every field must be bound."""
        missing = set(self.fields) - set(bindings)
        if missing:
            raise BadSubjectError(
                f"unbound fields {sorted(missing)} for {self.template!r}")
        return self._fill(bindings, wildcard=None)

    def pattern(self, tail: bool = False, **bindings: str) -> str:
        """A subscription pattern; unbound fields become ``*``.

        ``tail=True`` appends ``>`` to also match deeper subjects.
        """
        pattern = self._fill(bindings, wildcard="*")
        if tail:
            pattern += ".>"
        validate_pattern(pattern)
        return pattern

    def _fill(self, bindings: Dict[str, str],
              wildcard: Optional[str]) -> str:
        unknown = set(bindings) - set(self.fields)
        if unknown:
            raise BadSubjectError(
                f"unknown fields {sorted(unknown)} for {self.template!r}")
        out: List[str] = []
        for element in self._elements:
            if element.startswith("{"):
                name = element[1:-1]
                if name in bindings:
                    value = bindings[name]
                    validate_subject(value)   # a single element, no dots
                    if "." in value:
                        raise BadSubjectError(
                            f"field {name!r} value may not contain dots: "
                            f"{value!r}")
                    out.append(value)
                elif wildcard is not None:
                    out.append(wildcard)
                else:
                    raise BadSubjectError(f"field {name!r} unbound")
            else:
                out.append(element)
        subject = ".".join(out)
        if wildcard is None:
            validate_subject(subject)
        return subject

    # ------------------------------------------------------------------
    def matches(self, subject: str) -> bool:
        try:
            return self.parse(subject) is not None
        except BadSubjectError:
            return False

    def parse(self, subject: str) -> Optional[Dict[str, str]]:
        """Field bindings if ``subject`` fits the template, else None."""
        elements = validate_subject(subject)
        if len(elements) != len(self._elements):
            return None
        bindings: Dict[str, str] = {}
        for template_element, element in zip(self._elements, elements):
            if template_element.startswith("{"):
                bindings[template_element[1:-1]] = element
            elif template_element != element:
                return None
        return bindings

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SubjectScheme {self.template!r}>"


#: The paper's own example: "fab5.cc.litho8.thick" — plant, cell
#: controller, station, metric.
FAB_SENSOR_SCHEME = SubjectScheme("{plant}.cc.{station}.{metric}")

#: The trading-floor example: "news.equity.gmc".
NEWS_SCHEME = SubjectScheme("news.{category}.{topic}")
