"""Subscriptions: conjunctions of predicates, normalised per attribute.

A subscription such as ``symbol = "HAL" AND price < 50`` (the paper's
running example) is normalised into one :class:`Constraint` per
attribute. Normalisation makes both matching and containment checks a
per-attribute interval comparison, and yields a canonical key used to
deduplicate identical subscriptions in the index.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.predicates import (Constraint, Op, Predicate,
                                       constraint_from_predicates)

__all__ = ["Subscription"]

_subscription_ids = itertools.count(1)

#: Bytes of index memory a stored subscription node occupies: a node
#: header (pointers, subscriber list) plus per-constraint storage.
#: Chosen so the paper's footprint holds: ~100k original-workload
#: subscriptions occupy ~43 MB (§4, Fig. 5 text).
NODE_BASE_BYTES = 256
PER_CONSTRAINT_BYTES = 48
#: The part of the node header every visit reads: one cache line.
VISIT_BASE_BYTES = 64


class Subscription:
    """An immutable normalised subscription.

    ``items`` is the tuple of ``(attribute, Constraint)`` pairs sorted
    by attribute name — the form every hot loop iterates over.
    """

    __slots__ = ("sub_id", "items", "_key", "_hash")

    def __init__(self, predicates: Sequence[Predicate],
                 sub_id: Optional[int] = None) -> None:
        if not predicates:
            raise MatchingError("subscription needs at least one predicate")
        by_attribute: Dict[str, List[Predicate]] = {}
        for predicate in predicates:
            by_attribute.setdefault(predicate.attribute, []).append(
                predicate)
        items = []
        for attribute in sorted(by_attribute):
            constraint = constraint_from_predicates(by_attribute[attribute])
            items.append((attribute, constraint))
        self.items: Tuple[Tuple[str, Constraint], ...] = tuple(items)
        self.sub_id = next(_subscription_ids) if sub_id is None else sub_id
        self._key = tuple((attr, c.key()) for attr, c in self.items)
        self._hash = hash(self._key)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, *predicates: Predicate) -> "Subscription":
        """Convenience constructor: ``Subscription.of(p1, p2, ...)``."""
        return cls(predicates)

    @classmethod
    def parse(cls, spec: Dict[str, object]) -> "Subscription":
        """Build from a simple dict spec, e.g.::

            {"symbol": "HAL", "price": ("<", 50), "volume": (1e3, 1e6)}

        Scalars mean equality, ``(op, value)`` pairs use the operator,
        and 2-tuples of numbers are closed ranges.
        """
        predicates = []
        for attribute, value in spec.items():
            if isinstance(value, tuple) and len(value) == 2 \
                    and isinstance(value[0], str) and value[0] in Op.ALL:
                predicates.append(Predicate(attribute, value[0], value[1]))
            elif isinstance(value, tuple) and len(value) == 2:
                predicates.append(Predicate(attribute, Op.RANGE, value))
            else:
                predicates.append(Predicate(attribute, Op.EQ, value))
        return cls(predicates)

    # -- identity -------------------------------------------------------------

    def key(self) -> Tuple:
        """Canonical hashable form; equal keys = identical constraints."""
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subscription) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{attr}:{c.key()}" for attr, c in self.items)
        return f"Subscription(id={self.sub_id}, {parts})"

    # -- semantics -------------------------------------------------------------

    @property
    def n_constraints(self) -> int:
        return len(self.items)

    @property
    def n_equality_constraints(self) -> int:
        """Number of attributes pinned to a single value."""
        return sum(1 for _, c in self.items if c.is_equality())

    def size_bytes(self) -> int:
        """Modelled index-memory footprint of this subscription."""
        return NODE_BASE_BYTES + PER_CONSTRAINT_BYTES * len(self.items)

    def is_satisfiable(self) -> bool:
        return all(c.is_satisfiable() for _, c in self.items)

    def required_attributes(self) -> frozenset:
        """Attribute names an event must carry to possibly match.

        Every constraint requires its attribute to be present, so this
        set gates whole containment trees: descendants are covered and
        therefore constrain *at least* these attributes
        (:meth:`covers` demands a same-attribute constraint for each of
        ours), making the root's set a necessary condition for the
        entire subtree.
        """
        return frozenset(attribute for attribute, _c in self.items)

    def visit_bytes(self, n_evals: int) -> int:
        """Bytes of the stored node a visit reads: the header line plus
        the constraints evaluated before short-circuiting (a failed
        first predicate does not stream the whole node through the
        cache)."""
        return min(self.size_bytes(),
                   VISIT_BASE_BYTES + PER_CONSTRAINT_BYTES * n_evals)

    def compiled(self):
        """One ``header-dict -> int`` closure equivalent to
        :meth:`matches_counting`: ``+n`` when the header matches, ``-n``
        when it does not, ``n`` being the constraints evaluated.

        Folds the per-constraint closures from
        :meth:`~repro.matching.predicates.Constraint.compile` into a
        single callable with no per-event attribute re-dispatch; the
        index caches it per node so the interpreted predicate walk is
        paid once at registration, not on every event. The first
        constraint is tested outside the loop: almost every visit of a
        walk ends on it.
        """
        (first_attribute, first_test), *rest = (
            (attribute, constraint.compile())
            for attribute, constraint in self.items)
        rest = tuple(rest)

        def count(header):
            value = header.get(first_attribute)
            if value is None or not first_test(value):
                return -1
            get = header.get
            evaluated = 1
            for attribute, test in rest:
                evaluated += 1
                value = get(attribute)
                if value is None or not test(value):
                    return -evaluated
            return evaluated
        return count

    def matches(self, event: Event) -> bool:
        """Does the event header satisfy every constraint?"""
        header = event.header
        for attribute, constraint in self.items:
            value = header.get(attribute)
            if value is None or not constraint.admits(value):
                return False
        return True

    def matches_counting(self, event: Event) -> Tuple[bool, int]:
        """Like :meth:`matches` but also reports predicates evaluated.

        Used by the traced matcher to charge per-evaluation cycles
        exactly (short-circuiting included).
        """
        header = event.header
        evaluated = 0
        for attribute, constraint in self.items:
            evaluated += 1
            value = header.get(attribute)
            if value is None or not constraint.admits(value):
                return False, evaluated
        return True, evaluated

    def covers(self, other: "Subscription") -> bool:
        """Containment: does every event matching ``other`` match us?

        ``s covers s'`` (written s ⊒ s') iff for each of our
        constraints, ``other`` constrains the same attribute at least as
        tightly (paper §3.2: "x > 0" covers "x = 1" and
        "x > 0 AND y = 1").
        """
        other_items = dict(other.items)
        for attribute, constraint in self.items:
            other_constraint = other_items.get(attribute)
            if other_constraint is None:
                return False
            if not constraint.covers(other_constraint):
                return False
        return True
