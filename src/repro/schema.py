"""Declarative JSON schemas — one validator for every committed format.

Each JSON format the library writes (metrics and bench snapshots, fleet
rollups, lint/audit/margins/automata reports) is declared once, as a
tree of :class:`Field` nodes, next to the documentation of its layout.
:func:`validate` lists a document's problems and never raises, whatever
JSON value it is given; :func:`require_valid` raises
:class:`SchemaError` (a ``ReproError`` and a ``ValueError``) naming the
schema's title, e.g. ``invalid fleet rollup: fleet.streams must be ...``.

A node has a kind (``int``, ``num``, ``str``, ``bool``, ``object``,
``map``, ``array``, or a tuple of them) and optional constraints:
``gt``/``ge``/``le`` bounds (which NaN fails), ``enum``, ``nullable``,
``optional`` (a member that may be absent), ``closed`` (no undeclared
members) and ``min_items``.  A cross-field invariant is the node's
``check(value, where)``; it runs only once the node's whole subtree
validated, so it may rely on every declared type.  Problems name the
offending path (``streams['v1'].margins['pos']``, ``sweep[2].kernel``;
the root is ``document``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ReproError

_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

#: A cross-field invariant: ``check(value, where) -> problems``.
Check = Callable[[Any, str], List[str]]

#: kind -> (Python types, description); bools never count as numbers.
_KINDS = {
    "int": ((int,), "an integer"),
    "num": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "a boolean"),
    "object": ((dict,), "an object"),
    "map": ((dict,), "an object"),
    "array": ((list,), "an array"),
}


class SchemaError(ReproError, ValueError):
    """A JSON document does not conform to its declared schema."""


@dataclass(frozen=True, eq=False)
class Field:
    """One node of a declared JSON layout (see the module docstring).

    ``fields`` declares an ``object``'s members; ``of`` declares the
    values of a ``map`` or the items of an ``array``.  ``title`` names
    a top-level schema in :func:`require_valid`'s error.
    """

    kind: Union[str, Tuple[str, ...]]
    fields: Mapping[str, "Field"] = field(default_factory=dict)
    of: Optional["Field"] = None
    gt: Optional[float] = None
    ge: Optional[float] = None
    le: Optional[float] = None
    enum: Optional[Tuple[object, ...]] = None
    nullable: bool = False
    optional: bool = False
    closed: bool = False
    min_items: int = 0
    check: Optional[Check] = None
    title: str = ""

    @property
    def kinds(self) -> Tuple[str, ...]:
        return (self.kind,) if isinstance(self.kind, str) else self.kind

    @property
    def bounds(self) -> List[Tuple[str, float]]:
        pairs = ((">", self.gt), (">=", self.ge), ("<=", self.le))
        return [(op, bound) for op, bound in pairs if bound is not None]

    def describe(self) -> str:
        """What a conforming value looks like, for problem messages."""
        if self.enum is not None:
            text = "/".join(repr(option) for option in self.enum)
            text = text if len(self.enum) == 1 else "one of " + text
        else:
            text = " or ".join(_KINDS[kind][1] for kind in self.kinds)
            if self.bounds:
                text += " " + " and ".join("%s %r" % bound for bound in self.bounds)
        return "null or " + text if self.nullable else text

    def admits(self, value: object) -> bool:
        """Whether ``value`` itself (not its members) is acceptable."""
        if not any(
            isinstance(value, _KINDS[kind][0])
            and (kind == "bool" or not isinstance(value, bool))
            for kind in self.kinds
        ):
            return False
        if self.enum is not None and value not in self.enum:
            return False
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return True
        # Written so that NaN fails every bound.
        return all(_OPS[op](value, bound) for op, bound in self.bounds)


def _show(value: object) -> str:
    if isinstance(value, (dict, list)):
        return type(value).__name__
    return repr(value)


def _walk(value: object, node: Field, where: str, problems: List[str]) -> None:
    here = where or "document"
    if value is None and node.nullable:
        return
    if not node.admits(value):
        problems.append(
            "%s must be %s, got %s" % (here, node.describe(), _show(value))
        )
        return
    before = len(problems)
    if isinstance(value, dict):
        prefix = where + "." if where else ""
        for name, member in node.fields.items():
            if name in value:
                _walk(value[name], member, prefix + name, problems)
            elif not member.optional:
                problems.append("%s%s is missing" % (prefix, name))
        if node.closed:
            problems.extend(
                "%s has unknown key %r" % (here, key)
                for key in value
                if key not in node.fields
            )
    if isinstance(value, (dict, list)):
        if node.of is not None:
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, item in items:
                _walk(item, node.of, "%s[%r]" % (where, key), problems)
        if len(value) < node.min_items:
            problems.append(
                "%s must have at least %d item(s), got %d"
                % (here, node.min_items, len(value))
            )
    if node.check is not None and len(problems) == before:
        problems.extend(node.check(value, here))


def validate(document: object, schema: Field) -> List[str]:
    """All the ways ``document`` fails ``schema``; empty when it conforms."""
    problems: List[str] = []
    _walk(document, schema, "", problems)
    return problems


def require_valid(document: object, schema: Field) -> Dict[str, object]:
    """Return ``document`` if it conforms to ``schema``; raise
    :class:`SchemaError` listing every problem otherwise."""
    problems = validate(document, schema)
    if problems:
        raise SchemaError(
            "invalid %s: %s" % (schema.title or "document", "; ".join(problems))
        )
    return document  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Declarations shared by several formats
# ----------------------------------------------------------------------

COUNT = Field("int", ge=0)
POSITIVE_INT = Field("int", gt=0)
POSITIVE = Field("num", gt=0)
STRINGS = Field("array", of=Field("str"))


def tag(version: str) -> Field:
    """The ``"schema"`` member every format carries: exactly ``version``."""
    return Field("str", enum=(version,))


def _bound(value: Any, where: str) -> List[str]:
    if value in ("inf", "-inf") or (not isinstance(value, str) and value == value):
        return []
    return ["%s is not a margin bound: %r" % (where, value)]


def _bound_value(value: Any) -> Any:
    # Exact int/float comparison: float() would overflow on huge ints.
    return {"inf": math.inf, "-inf": -math.inf}.get(value, value)


def ordered_bounds(entry: Any, where: str) -> List[str]:
    """Check that an entry's ``lower`` bound does not exceed its ``upper``."""
    if _bound_value(entry["lower"]) > _bound_value(entry["upper"]):
        return [
            "%s bounds are inverted: [%s, %s]"
            % (where, entry["lower"], entry["upper"])
        ]
    return []


#: A robustness bound as ``repro.core.robustness.float_to_json`` writes
#: it: a number, or "inf"/"-inf" for the infinities; never NaN.
BOUND = Field(("num", "str"), check=_bound)


def partition(block: Any, where: str) -> List[str]:
    """Check that ``required`` and ``droppable`` partition ``referenced``."""
    if set(block["required"]) | set(block["droppable"]) != set(block["referenced"]):
        return ["%s sets do not partition 'referenced'" % where]
    return []


#: The minimal observable-signal sets of the symbolic automata pass.
SIGNAL_SETS = {"referenced": STRINGS, "required": STRINGS, "droppable": STRINGS}
