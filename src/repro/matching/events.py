"""Publications (events) as seen by the matcher.

A publication is a *header* — the attribute/value map the CBR engine
filters on — plus an opaque payload that never enters the matcher
(paper §3.2). The wire representation (encryption, Base64) lives in
:mod:`repro.core.messages`; here we keep the plain in-memory form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.errors import MatchingError
from repro.matching.attributes import (AttributeValue,
                                       validate_attribute_name,
                                       validate_value)

__all__ = ["Event"]


@dataclass(frozen=True)
class Event:
    """An immutable publication header (payload handled elsewhere).

    >>> event = Event({"symbol": "HAL", "price": 48.2})
    >>> event["price"]
    48.2
    """

    header: Dict[str, AttributeValue]
    event_id: int = 0

    def __post_init__(self) -> None:
        if not self.header:
            raise MatchingError("publication header must not be empty")
        interned = {}
        for name, value in self.header.items():
            interned[validate_attribute_name(name)] = \
                validate_value(value)
        # Re-key the header with interned attribute names so hot-path
        # dict probes hit the pointer-equality fast path against
        # subscription attributes (interned at construction too).
        object.__setattr__(self, "header", interned)

    @classmethod
    def validated(cls, header: Dict[str, AttributeValue],
                  event_id: int = 0) -> "Event":
        """An event over ``header`` as it is, for a caller that has
        already put every name through
        :func:`~repro.matching.attributes.validate_attribute_name`
        (and keeps the interned result) and every value through
        :func:`~repro.matching.attributes.validate_value` — the wire
        decoder, which does both field by field."""
        if not header:
            raise MatchingError("publication header must not be empty")
        event = object.__new__(cls)
        object.__setattr__(event, "header", header)
        object.__setattr__(event, "event_id", event_id)
        return event

    def __getitem__(self, attribute: str) -> AttributeValue:
        return self.header[attribute]

    def get(self, attribute: str):
        return self.header.get(attribute)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.header

    def __len__(self) -> int:
        return len(self.header)

    def items(self) -> Iterator[Tuple[str, AttributeValue]]:
        return iter(self.header.items())

    def canonical(self) -> Tuple[Tuple[str, AttributeValue], ...]:
        """Sorted item tuple, used for serialisation and hashing.

        Computed once and cached: the match memo keys every lookup on
        it, so repeated events must not pay the sort repeatedly.
        """
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = tuple(sorted(self.header.items()))
            object.__setattr__(self, "_canonical", cached)
        return cached

    def key(self) -> Tuple[Tuple[str, AttributeValue], ...]:
        """Hashable identity of the header (alias of :meth:`canonical`)."""
        return self.canonical()
