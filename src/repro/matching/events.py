"""Publications (events) as seen by the matcher.

A publication is a *header* — the attribute/value map the CBR engine
filters on — plus an opaque payload that never enters the matcher
(paper §3.2). The wire representation (encryption, Base64) lives in
:mod:`repro.core.messages`; here we keep the plain in-memory forms:
one :class:`Event` per header, and :class:`EventColumns`, a batch of
headers as one value column per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from repro.errors import MatchingError
from repro.matching.attributes import (AttributeValue,
                                       validate_attribute_name,
                                       validate_value)
from repro.matching.predicates import EXACT_INTS, encode_values

__all__ = ["Event", "EventColumns"]


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


class EventColumns:
    """A batch of headers as one value column per attribute.

    ``columns[attribute][i]`` is the ``i``-th header's value, None
    where that header lacks the attribute; an attribute no header
    carries has no column. This is the form the columnar plane
    evaluates, all its bound rows in one pass, and the form the wire
    decoder (:func:`repro.core.messages.decode_headers`) writes
    directly, so a decoded batch reaches the plane without a dict per
    header. The batch also knows which columns hold a string or an int
    past ``±2**53`` (its ``irregular`` set): the only values
    :func:`encode_values` does more for than a float64 conversion.

    A batch made from events (:meth:`of`) transposes them when its
    columns are first asked for; a decoded batch builds its events
    when they are (:meth:`events`: the forest walk and the match memo
    take one event at a time).
    """

    __slots__ = ("n", "_columns", "_irregular", "_events")

    def __init__(self, n: int, columns: Optional[Dict[str, list]],
                 irregular: Optional[Set[str]]) -> None:
        self.n = n
        self._columns = columns
        self._irregular = irregular
        self._events = None

    @classmethod
    def of(cls, events: Union[Iterable[Event], "EventColumns"]
           ) -> "EventColumns":
        """``events`` as a batch (a batch is returned as it is)."""
        if isinstance(events, cls):
            return events
        events = list(events)
        batch = cls(len(events), None, None)
        batch._events = events
        return batch

    def __len__(self) -> int:
        return self.n

    @property
    def columns(self) -> Dict[str, list]:
        if self._columns is None:
            columns: Dict[str, list] = {}
            irregular: Set[str] = set()
            n = self.n
            for row, event in enumerate(self._events):
                for name, value in event.header.items():
                    column = columns.get(name)
                    if column is None:
                        column = columns[name] = [None] * n
                    column[row] = value
                    if value.__class__ is not float and (
                            isinstance(value, str)
                            or not -EXACT_INTS <= value <= EXACT_INTS):
                        irregular.add(name)
            self._columns, self._irregular = columns, irregular
        return self._columns

    def encoded_rows(self, attributes: Sequence[Optional[str]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`encode_values` of the columns of ``attributes``, one
        row each: ``(down, up)``, two ``len(attributes) x n`` float64
        matrices. A name that is None or has no column is a row of
        NaN. The columns of floats, ints float64 holds and gaps are one
        float64 conversion together (None is NaN); ``up is down``
        unless a column holds an int past ``±2**53``."""
        columns = self.columns
        irregular = self._irregular
        gap = [None] * self.n
        down = np.array(
            [gap if name in irregular else columns.get(name, gap)
             for name in attributes], dtype=np.float64)
        wide = []
        for row, name in enumerate(attributes):
            if name in irregular:
                low, high = encode_values(columns[name])
                down[row] = low
                if high is not low:
                    wide.append((row, high))
        up = down
        if wide:
            up = down.copy()
            for row, high in wide:
                up[row] = high
        return down, up

    def events(self) -> List[Event]:
        """One :class:`Event` per header, in batch order."""
        if self._events is None:
            headers: List[dict] = [{} for _ in range(self.n)]
            for name, column in self._columns.items():
                for header, value in zip(headers, column):
                    if value is not None:
                        header[name] = value
            self._events = [Event.validated(header)
                            for header in headers]
        return self._events
