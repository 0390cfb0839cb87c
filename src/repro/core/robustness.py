"""Quantitative robustness — the numeric lattice beside the boolean one.

The boolean evaluator answers *whether* each row satisfies a formula;
this module defines the types for *how far* it is from the boundary, in
the style of STL robust satisfaction degrees (Deshmukh et al., *Robust
Online Monitoring of STL*).  Because truncated temporal windows make
some rows undecidable, a row's robustness is not a point but an interval
``[lower, upper]``:

* ``lower == upper``      — the row is decided; the common value is the
  classic robustness degree ρ.
* ``lower < upper``       — evidence is incomplete (UNKNOWN padding or a
  masked region contributed); ρ lies somewhere inside the interval.

The invariant tying the two lattices together — checked exhaustively by
the differential test harness — is *sign consistency* with the
three-valued verdict codes:

* ``TRUE``    ⇒ ``lower ≥ 0`` (and hence ``upper ≥ 0``),
* ``FALSE``   ⇒ ``upper ≤ 0`` (and hence ``lower ≤ 0``),
* ``UNKNOWN`` ⇒ ``lower ≤ 0 ≤ upper``;

equivalently ``lower > 0 ⇒ TRUE`` and ``upper < 0 ⇒ FALSE``.  Infinities
are first-class citizens of the lattice (boolean atoms have no metric, a
vacuous ``always`` over an empty window is infinitely robust); NaN is
*never* a legal bound, and the JSON helpers below enforce that at every
serialization boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from repro.schema import SchemaError


class Bounds(NamedTuple):
    """Per-row robustness interval arrays for one formula node.

    Like the boolean evaluator's code arrays, :class:`Bounds` arrays are
    shared through the memo cache — consumers must copy before writing.
    """

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def point(cls, values: np.ndarray) -> "Bounds":
        """Decided rows: the interval collapses to a point.

        Both tuple slots alias the same array; this is safe under the
        copy-before-write contract.
        """
        return cls(values, values)


def float_to_json(value: Optional[float]) -> object:
    """Encode a robustness bound for JSON (``±inf`` as strings).

    ``json.dumps`` would happily emit the non-standard ``Infinity`` /
    ``NaN`` tokens, which most parsers outside Python reject; encoding
    infinities as ``"inf"`` / ``"-inf"`` keeps every artifact strictly
    RFC 8259.  NaN is a hard error — a NaN bound means the evaluator
    broke its own no-NaN invariant, and silently serializing it would
    hide the bug in a golden file.
    """
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        raise ValueError("robustness bounds must never be NaN")
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def float_from_json(value: object) -> Optional[float]:
    """Decode a bound written by :func:`float_to_json`.

    Anything else (a NaN, a number beyond float range, another type)
    raises :class:`~repro.schema.SchemaError`, which is a ``ValueError``.
    """
    if value is None:
        return None
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("not an encoded robustness bound: %r" % (value,))
    try:
        result = float(value)
    except OverflowError:
        raise SchemaError("robustness bound is beyond float range") from None
    if math.isnan(result):
        raise SchemaError("robustness bounds must never be NaN")
    return result


@dataclass(frozen=True)
class RuleRobustness:
    """Rule-level robustness interval over one checked trace.

    The rule-level degree is the minimum over all unmasked rows (a rule
    holds iff it holds at *every* checked row, and min is the robust
    counterpart of conjunction), so:

    Attributes:
        lower/upper: interval bracketing the rule's true margin.  When
            every row is decided the interval is a point.
        worst_row: row index (absolute, in the checked view/stream) that
            attains the minimal upper bound — the moment the rule came
            closest to (or deepest into) violation.  ``None`` when no
            row ever produced a finite bound (empty view, fully vacuous
            rule): there is no "closest moment" to point at.
        worst_time: timestamp of ``worst_row``, seconds.
    """

    lower: float
    upper: float
    worst_row: Optional[int] = None
    worst_time: Optional[float] = None

    @property
    def decided(self) -> bool:
        """Whether the margin is exact (interval collapsed to a point)."""
        return self.lower == self.upper

    @property
    def margin(self) -> float:
        """The certain margin bound: the rule's robustness is ≤ this.

        A negative value proves a violation by at least ``-margin``; a
        positive value bounds how robust the rule *can* be (and equals
        the true degree when :attr:`decided`).
        """
        return self.upper

    @property
    def excludes_zero(self) -> bool:
        """Whether the interval already decides the boolean verdict."""
        return self.upper < 0.0 or self.lower > 0.0

    def to_dict(self) -> dict:
        """JSON-safe digest (``±inf`` encoded, NaN rejected)."""
        return {
            "lower": float_to_json(self.lower),
            "upper": float_to_json(self.upper),
            "worst_row": self.worst_row,
            "worst_time": self.worst_time,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RuleRobustness":
        """Rebuild from :meth:`to_dict` output."""
        worst_row = payload.get("worst_row")
        worst_time = payload.get("worst_time")
        return cls(
            lower=float_from_json(payload["lower"]),
            upper=float_from_json(payload["upper"]),
            worst_row=None if worst_row is None else int(worst_row),
            worst_time=None if worst_time is None else float(worst_time),
        )

    def __str__(self) -> str:
        if self.decided:
            span = "ρ=%s" % _fmt(self.upper)
        else:
            span = "ρ∈[%s, %s]" % (_fmt(self.lower), _fmt(self.upper))
        if self.worst_time is None:
            return span
        return "%s (worst at %.3fs)" % (span, self.worst_time)


def summarize_bounds(
    lower: np.ndarray, upper: np.ndarray, times: np.ndarray
) -> RuleRobustness:
    """Fold per-row bounds into the rule-level interval.

    Masked rows must already be neutralized to ``+inf`` (paralleling the
    boolean path's ``codes[masked] = TRUE``).  A zero-row view carries
    no evidence at all, so its interval is the whole line ``[-inf, inf]``
    — the robust counterpart of ``summarize_codes([]) == UNKNOWN``.
    """
    if len(upper) == 0:
        return RuleRobustness(lower=-math.inf, upper=math.inf)
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("robustness bounds must never be NaN")
    rule_upper = float(upper.min())
    rule_lower = float(lower.min())
    if rule_upper == math.inf:
        # Every row is masked or vacuously satisfied with no metric:
        # nothing to point at as the closest approach.
        return RuleRobustness(lower=rule_lower, upper=rule_upper)
    worst = int(np.argmin(upper))
    return RuleRobustness(
        lower=rule_lower,
        upper=rule_upper,
        worst_row=worst,
        worst_time=float(times[worst]),
    )


def _fmt(value: float) -> str:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return "%+.4g" % value
