"""Predicates: the atoms subscriptions are made of.

A predicate constrains one attribute: equality, inequality, ordered
comparisons or ranges — "equality constraints or generally any kind of
ranges over the values of the attributes" (paper §3.2). Subscriptions
normalise conjunctions of predicates into per-attribute
:class:`Constraint` objects (an interval plus an exclusion set), on
which both matching and containment are defined. Each constraint
carries its :class:`ConstraintForm`: how the vectorised matchers (the
columnar plane, the forest's root table) decide it, classified once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import FrozenSet, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import MatchingError
from repro.matching.attributes import (AttributeValue, is_numeric,
                                       validate_attribute_name,
                                       validate_value, values_comparable)

__all__ = ["Op", "Predicate", "Constraint", "ConstraintForm",
           "constraint_from_predicates", "encode_values", "EXACT_INTS"]

_NEG_INF = -math.inf
_POS_INF = math.inf
_NAN = math.nan
_MAX_FLOAT = sys.float_info.max
#: float64 holds every int up to here, and adjacent floats inside
#: these limits are at most 1 apart.
EXACT_INTS = 2.0 ** 53


class Op:
    """Predicate operators (string constants keep wire formats simple)."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    RANGE = "in"  # closed interval [lo, hi]
    EXISTS = "exists"

    ALL = (EQ, NE, LT, LE, GT, GE, RANGE, EXISTS)


@dataclass(frozen=True)
class Predicate:
    """One constraint over one attribute, e.g. ``price < 50``.

    For ``Op.RANGE`` the value is a ``(lo, hi)`` tuple; ``Op.EXISTS``
    takes no value. Ordered operators require numeric values; strings
    support only ``==``, ``!=`` and ``exists``.
    """

    attribute: str
    op: str
    value: Optional[AttributeValue] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "attribute",
                           validate_attribute_name(self.attribute))
        if self.op not in Op.ALL:
            raise MatchingError(f"unknown operator: {self.op!r}")
        if self.op == Op.EXISTS:
            if self.value is not None:
                raise MatchingError("exists predicate takes no value")
            return
        if self.op == Op.RANGE:
            if (not isinstance(self.value, tuple) or len(self.value) != 2):
                raise MatchingError("range predicate needs a (lo, hi) pair")
            lo, hi = self.value
            validate_value(lo)
            validate_value(hi)
            if not (is_numeric(lo) and is_numeric(hi)):
                raise MatchingError("range bounds must be numeric")
            if lo > hi:
                raise MatchingError(f"empty range: {lo} > {hi}")
            return
        validate_value(self.value)
        if self.op in (Op.LT, Op.LE, Op.GT, Op.GE) \
                and not is_numeric(self.value):
            raise MatchingError(
                f"ordered operator {self.op} requires a numeric value")

    def __str__(self) -> str:
        if self.op == Op.EXISTS:
            return f"{self.attribute} exists"
        if self.op == Op.RANGE:
            lo, hi = self.value
            return f"{self.attribute} in [{lo}, {hi}]"
        return f"{self.attribute} {self.op} {self.value!r}"


class ConstraintForm(NamedTuple):
    """How the vectorised matchers decide one :class:`Constraint`.

    Plain data, so it pickles with its constraint. A numeric equality
    has a pin and bounds, any other constraint one kind at most; one
    with none (``!=`` sets, string wildcards, bounds float64 cannot
    carry, unsatisfiable shapes) is decided by its compiled closure.
    """

    #: The one value admitted (a satisfiable equality), else None.
    pin: Optional[AttributeValue]
    #: Closed float64 ``(lo, hi)``: a number is admitted iff ``lo <= v
    #: <= hi`` (``v`` as :func:`encode_values` brackets it), a string
    #: never; None where no such pair exists.
    bounds: Optional[Tuple[float, float]]
    #: Every present value, of any type, is admitted (bare ``exists``).
    always: bool


@dataclass(frozen=True)
class Constraint:
    """Normalised per-attribute constraint: interval + exclusions.

    ``lo``/``hi`` bound numeric values (open bounds flagged); for string
    attributes ``equals`` pins an exact value. ``excluded`` holds values
    ruled out by ``!=`` predicates. The admitted set is::

        { v : lo (<|<=) v (<|<=) hi,  v not in excluded }   (numeric)
        { equals } - excluded  or  any-string - excluded     (string)
    """

    lo: float = _NEG_INF
    hi: float = _POS_INF
    lo_open: bool = False
    hi_open: bool = False
    equals: Optional[str] = None  # exact string pin, if string-typed
    is_string: bool = False
    excluded: FrozenSet[AttributeValue] = frozenset()
    #: How the vectorised matchers decide this constraint: classified
    #: once, at construction (:func:`_classify`).
    form: ConstraintForm = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "form", _classify(self))

    def is_universal_interval(self) -> bool:
        """True when the numeric interval part constrains nothing.

        Such a constraint (e.g. built from ``exists`` or pure ``!=``
        predicates) admits values of *any* type modulo exclusions.
        """
        return (not self.is_string and self.lo == _NEG_INF
                and self.hi == _POS_INF)

    def admits(self, value: AttributeValue) -> bool:
        """Does ``value`` satisfy this constraint?"""
        if value in self.excluded:
            return False
        if self.is_string:
            if not isinstance(value, str):
                return False
            return self.equals is None or value == self.equals
        if not is_numeric(value):
            # An unbounded non-string constraint ("exists", bare "!=")
            # admits any type; a bounded interval admits numerics only.
            return self.is_universal_interval()
        if value < self.lo or (self.lo_open and value == self.lo):
            return False
        if value > self.hi or (self.hi_open and value == self.hi):
            return False
        return True

    def is_satisfiable(self) -> bool:
        """False when no value can ever satisfy the constraint."""
        if self.is_string:
            return self.equals is None or self.equals not in self.excluded
        if self.lo > self.hi:
            return False
        if self.lo == self.hi:
            return not (self.lo_open or self.hi_open) \
                and self.lo not in self.excluded
        return True

    def is_equality(self) -> bool:
        """True when exactly one value is admitted."""
        if self.is_string:
            return self.equals is not None
        return self.lo == self.hi and not self.lo_open and not self.hi_open

    def covers(self, other: "Constraint") -> bool:
        """Is every value admitted by ``other`` admitted by ``self``?

        Conservative where exclusions interact with continuous
        intervals: we require each of our excluded values to be
        explicitly ruled out by ``other`` (excluded or outside its
        interval), which is exact for the discrete cases workloads use.
        """
        if not other.is_satisfiable():
            return True
        if self.is_string != other.is_string:
            # Different domains: only a universal (unbounded, non-string)
            # constraint covers across types; exclusions checked below.
            if not self.is_universal_interval():
                return False
        elif self.is_string:
            if self.equals is not None and (other.equals is None
                                            or other.equals != self.equals):
                return False
        else:
            if other.lo < self.lo or (other.lo == self.lo
                                      and self.lo_open
                                      and not other.lo_open):
                return False
            if other.hi > self.hi or (other.hi == self.hi
                                      and self.hi_open
                                      and not other.hi_open):
                return False
        for value in self.excluded:
            if other.admits(value):
                return False
        return True

    def key(self) -> Tuple:
        """Hashable canonical form (used to deduplicate subscriptions)."""
        return (self.is_string, self.equals, self.lo, self.hi,
                self.lo_open, self.hi_open,
                tuple(sorted(self.excluded, key=repr)))

    def compile(self):
        """Specialised ``value -> bool`` closure equivalent to
        :meth:`admits` for validated header values.

        Header values are restricted to int/float/str (bools and NaN
        are rejected at :class:`~repro.matching.events.Event`
        construction), so the closures can drop the general type
        dispatch :meth:`admits` performs and test only what this
        constraint's shape requires. The containment index caches one
        composed closure per stored node
        (:attr:`~repro.matching.poset.PosetNode.count`).
        """
        excluded = self.excluded
        if self.is_string:
            equals = self.equals
            if equals is not None:
                if equals in excluded:   # unsatisfiable pin
                    return lambda value: False
                return lambda value: value == equals
            if excluded:
                return lambda value: (isinstance(value, str)
                                      and value not in excluded)
            return lambda value: isinstance(value, str)
        if self.is_universal_interval():
            if excluded:
                return lambda value: value not in excluded
            return lambda value: True
        lo, hi = self.lo, self.hi
        if not self.lo_open and not self.hi_open:
            base = lambda value: (not isinstance(value, str)
                                  and lo <= value <= hi)
        elif self.lo_open and not self.hi_open:
            base = lambda value: (not isinstance(value, str)
                                  and lo < value <= hi)
        elif not self.lo_open and self.hi_open:
            base = lambda value: (not isinstance(value, str)
                                  and lo <= value < hi)
        else:
            base = lambda value: (not isinstance(value, str)
                                  and lo < value < hi)
        if excluded:
            return lambda value, _base=base: (_base(value)
                                              and value not in excluded)
        return base


def constraint_from_predicates(predicates) -> Constraint:
    """Fold same-attribute predicates into one :class:`Constraint`."""
    lo, hi = _NEG_INF, _POS_INF
    lo_open = hi_open = False
    equals: Optional[str] = None
    is_string = False
    excluded = set()

    def _tighten_lo(value: float, open_: bool) -> None:
        nonlocal lo, lo_open
        if value > lo or (value == lo and open_):
            lo, lo_open = value, open_

    def _tighten_hi(value: float, open_: bool) -> None:
        nonlocal hi, hi_open
        if value < hi or (value == hi and open_):
            hi, hi_open = value, open_

    for pred in predicates:
        if pred.op == Op.EXISTS:
            continue
        value = pred.value
        if pred.op == Op.NE:
            excluded.add(value)
            if isinstance(value, str):
                is_string = True
            continue
        if isinstance(value, str):
            if pred.op != Op.EQ:
                raise MatchingError(
                    f"operator {pred.op} unsupported for strings")
            is_string = True
            if equals is not None and equals != value:
                # Contradictory equalities: exclude the pinned value so
                # the constraint becomes unsatisfiable.
                excluded.add(equals)
            else:
                equals = value
            continue
        if pred.op == Op.EQ:
            _tighten_lo(value, False)
            _tighten_hi(value, False)
        elif pred.op == Op.LT:
            _tighten_hi(value, True)
        elif pred.op == Op.LE:
            _tighten_hi(value, False)
        elif pred.op == Op.GT:
            _tighten_lo(value, True)
        elif pred.op == Op.GE:
            _tighten_lo(value, False)
        elif pred.op == Op.RANGE:
            range_lo, range_hi = value
            _tighten_lo(range_lo, False)
            _tighten_hi(range_hi, False)
    if is_string and (lo != _NEG_INF or hi != _POS_INF):
        raise MatchingError(
            "attribute mixes string and numeric predicates")
    return Constraint(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open,
                      equals=equals, is_string=is_string,
                      excluded=frozenset(excluded))


# -- float64 forms of bounds and values ---------------------------------------
#
# float64 compares are exact only between float64s, while predicates
# and headers may carry ints of any length. The rule both vectorised
# matchers follow: a bound enters an array only in a closed float64
# form that decides every value a header can carry, and a value float64
# cannot hold is compared as its two float64 neighbours.


def _closed_bound(bound, is_open: bool, toward: float
                  ) -> Optional[float]:
    """The closed float64 bound that stands for ``bound`` over the
    whole value domain, or None when there is none.

    A closed bound is itself, provided float64 holds it exactly (an
    int past 2**53 may not). An open one is the adjacent float on the
    ``toward`` side — exact when nothing a header can carry lies
    between the two, which holds inside ``±2**53`` (beyond, adjacent
    floats are two or more apart and an int fits between them; at an
    infinity there is no neighbour to step to).
    """
    try:
        value = float(bound)
    except OverflowError:
        return None
    if value != bound:
        return None
    if not is_open:
        return value
    if not -EXACT_INTS < value < EXACT_INTS:
        return None
    return math.nextafter(value, toward)


def _closed_interval(constraint: Constraint
                     ) -> Optional[Tuple[float, float]]:
    """The closed float64 ``(lo, hi)`` that admits exactly the numbers
    ``constraint``'s interval admits, or None when there is none: a
    bound :func:`_closed_bound` cannot fold, or an open interval
    between two adjacent floats (satisfiable on paper, it folds to
    ``lo > hi``). Exclusions and the string domain are the caller's
    to route."""
    lo = _closed_bound(constraint.lo, constraint.lo_open, _POS_INF)
    hi = _closed_bound(constraint.hi, constraint.hi_open, _NEG_INF)
    if lo is None or hi is None or lo > hi:
        return None
    return lo, hi


def _classify(constraint: Constraint) -> ConstraintForm:
    """``constraint``'s :class:`ConstraintForm`, the one classification
    both vectorised matchers read.

    A satisfiable equality is a pin (a numeric one has its bounds too).
    Otherwise exclusions and the string domain leave only the closure,
    an unbounded numeric interval admits every present value, and any
    other interval has bounds where :func:`_closed_interval` finds them.
    """
    if constraint.is_string:
        pin = constraint.equals
        if pin is None or pin in constraint.excluded:
            return ConstraintForm(None, None, False)
        return ConstraintForm(pin, None, False)
    if constraint.is_equality():
        if constraint.lo in constraint.excluded:
            return ConstraintForm(None, None, False)
        return ConstraintForm(constraint.lo, _closed_interval(constraint),
                              False)
    if constraint.excluded:
        return ConstraintForm(None, None, False)
    if constraint.is_universal_interval():
        return ConstraintForm(None, None, True)
    return ConstraintForm(None, _closed_interval(constraint), False)


def _bracket(value) -> Tuple[float, float]:
    """Adjacent float64s ``down <= value <= up`` (equal when float64
    holds ``value``): ``value >= lo`` is ``down >= lo`` and ``value <=
    hi`` is ``up <= hi`` for every float64 bound, with no rounding."""
    try:
        nearest = float(value)
    except OverflowError:
        return (_MAX_FLOAT, _POS_INF) if value > 0 \
            else (_NEG_INF, -_MAX_FLOAT)
    if nearest < value:
        return nearest, math.nextafter(nearest, _POS_INF)
    if nearest > value:
        return math.nextafter(nearest, _NEG_INF), nearest
    return nearest, nearest


def encode_values(values) -> Tuple[np.ndarray, np.ndarray]:
    """A column of header values as the float64 pair ``(down, up)``
    that meets ``ConstraintForm.bounds``: ``lo <= v <= hi`` is ``lo <=
    down and up <= hi``. A missing value (None) or a string is NaN,
    which no bound admits; a number is itself, or — outside ``±2**53``
    — its two float64 neighbours (:func:`_bracket`); ``up is down``
    when the column holds no such number."""
    column = []
    append = column.append
    wide = []
    for value in values:
        if value is None or isinstance(value, str):
            append(_NAN)
        elif -EXACT_INTS <= value <= EXACT_INTS:
            append(value)
        else:
            wide.append(len(column))
            append(_NAN)
    down = up = np.array(column, dtype=np.float64)
    if wide:
        up = down.copy()
        for index in wide:
            down[index], up[index] = _bracket(values[index])
    return down, up
