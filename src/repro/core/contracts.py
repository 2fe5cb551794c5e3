"""The bus's own control messages, each shape stated once.

Application payloads are typed objects, checked against registered
types (P2).  The bus's own control traffic is plain dicts: subscription
and service adverts, discovery questions and answers, server-group
presence, RMI calls and replies, ``_bus.stat.*`` snapshots.  Any
application may publish on those subjects, so :data:`CONTRACTS` states
each message's shape as data, and every listener admits a payload
through :func:`admits` before it reads a key: a forged or malformed
payload is refused and counted, never raised on.

A contract maps each key its listeners read to a *rule*, a predicate
on that key's value.  A key the payload lacks reaches its rule as a
sentinel that only :func:`optional` accepts; keys no rule names are
ignored.  Rules compare ``type()``, not ``isinstance``, for scalars and
for the literal choices of :func:`one_of` alike: ``True`` is not an
int, and ``1`` is not ``True``.

A refusal counts in ``<scope>.contract.<name>.refused`` of the
listener's owner, created on the first refusal, so the registry of a
run that refuses nothing holds no such counter.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict

from .metrics import MetricsScope
from .subjects import is_valid_pattern

__all__ = ["CONTRACTS", "admits", "conforms"]

#: A rule: whether one value (or the missing-key sentinel) is acceptable.
Rule = Callable[[Any], bool]

#: What a rule receives for a key the payload lacks.
_MISSING = object()


def of(*types: type) -> Rule:
    """A value whose ``type()`` is one of ``types``."""
    return lambda value: type(value) in types


def one_of(*choices: Any) -> Rule:
    """A value equal to one of ``choices`` and of that choice's ``type()``."""
    return lambda value: any(type(value) is type(choice) and value == choice
                             for choice in choices)


def optional(rule: Rule) -> Rule:
    """A missing key, or a value ``rule`` accepts."""
    return lambda value: value is _MISSING or rule(value)


def list_of(rule: Rule) -> Rule:
    """A list each of whose items ``rule`` accepts."""
    return lambda value: type(value) is list and all(map(rule, value))


def _finite(value: Any) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


#: what ``bus_top()`` reads of an instrument snapshot: a counter's
#: ``value`` and a gauge's (the other kinds carry nothing it reads)
_VALUE = {"counter": of(int), "gauge": _finite}


def _instrument(entry: Any) -> bool:
    if type(entry) is not dict:
        return False
    kind = entry.get("type")
    rule = _VALUE.get(kind) if type(kind) is str else None
    return rule is None or rule(entry.get("value", _MISSING))


#: name -> {key: rule}: each control message, with the subject (or
#: stream) it travels on and who admits it
CONTRACTS: Dict[str, Dict[str, Rule]] = {
    # ``_sub.advert``: a daemon plane's table change (``add``,
    # ``remove``) or whole table (``snapshot``), to router legs; a
    # missing ``patterns`` reads as none
    "sub_advert": {"host": of(str),
                   "action": one_of("add", "remove", "snapshot"),
                   "patterns": optional(list_of(
                       lambda pattern: type(pattern) is str
                       and is_valid_pattern(pattern)))},
    # ``_sub.solicit``: a router leg's poll, to every host's plane 0;
    # ``host`` is the leg's, ``views`` its digest of each plane's table
    # by the plane's session without the epoch (missing: no views; a
    # marshalled map's keys are always strings)
    "sub_solicit": {"host": of(str),
                    "views": optional(lambda views: type(views) is dict
                                      and all(type(digest) is bytes
                                              and len(digest) == 8
                                              for digest in views.values()))},
    # ``_svc.advert``: an RmiServer's announcement, to browsers
    "svc_advert": {"action": one_of("up", "presence", "down"),
                   "service": of(str), "server": of(str),
                   "interface_name": of(str), "operations": list_of(of(str))},
    # ``_bus.stat.<source>``: a registry snapshot, to browsers
    "stat_snapshot": {"metrics": lambda metrics: type(metrics) is dict and all(
                          type(name) is str and _instrument(entry)
                          for name, entry in metrics.items()),
                      "interval": lambda value: _finite(value) and value > 0,
                      "shard": optional(of(int))},
    # ``_discovery.<service>``: the question, to responders, and the
    # answers, to the inquiry
    "discovery_who": {"kind": one_of("who"), "inquiry_id": of(str),
                      "service": of(str)},
    "discovery_iam": {"kind": one_of("iam"), "inquiry_id": of(str),
                      "service": of(str), "responder": of(str),
                      "info": optional(of(dict))},
    # an answer's ``info``, as an RmiClient ranks and connects to it
    "rmi_server_info": {"endpoint": lambda pair: (
                            type(pair) is list and len(pair) == 2
                            and type(pair[0]) is str and type(pair[1]) is int),
                        "load": optional(of(int, float))},
    # ``_rmi.group.<service>``: a server-group member's presence
    "rmi_presence": {"member": of(str), "rank": optional(of(int))},
    # the RMI stream: a call, to the server, and the reply naming it,
    # to the client, which carries either a result or an error
    "rmi_call": {"kind": one_of("call"), "request_id": of(str),
                 "op": of(str), "args": of(bytes)},
    "rmi_reply": {"kind": one_of("reply"), "request_id": of(str)},
    "rmi_result": {"ok": one_of(True), "value": of(bytes)},
    "rmi_error": {"ok": one_of(False), "error": of(str)},
}


def conforms(payload: Any, name: str) -> bool:
    """Whether ``payload`` is a dict that every rule of contract ``name``
    accepts."""
    return type(payload) is dict and all(
        rule(payload.get(key, _MISSING))
        for key, rule in CONTRACTS[name].items())


def admits(payload: Any, name: str, scope: MetricsScope) -> bool:
    """:func:`conforms`, counting a refusal in
    ``<scope>.contract.<name>.refused``."""
    if conforms(payload, name):
        return True
    scope.counter(f"contract.{name}.refused").inc()
    return False
