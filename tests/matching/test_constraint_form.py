"""The one classification both vectorised matchers read.

Every :class:`Constraint` carries a :class:`ConstraintForm` — a pin, a
closed float64 ``bounds`` pair, "any present value", or none of them
(its compiled closure decides) — and the columnar plane and the
forest's root table place and decide the constraint from it alone. This
file holds the form to ``Constraint.admits`` directly, on the value
domain the matchers' own exactness suites draw from
(``test_columnar_exact.py``): ints from ±2**53 to ±2**70 and past the
largest float, floats adjacent to a bound on either side, ``±inf``,
``-0.0``, strings — and on constraints no registration would store
(unsatisfiable ones), since the form is computed for every constraint.
It also pins that the form is plain data: computed once, carried
through pickling (subscriptions are pickled to process slices).
"""

import math
import pickle

from hypothesis import assume, given, settings, strategies as st

from repro.errors import MatchingError
from repro.matching.predicates import (ConstraintForm, Op, Predicate,
                                       constraint_from_predicates,
                                       encode_values)
from repro.matching.subscriptions import Subscription
from tests.matching.test_columnar_exact import (ANCHORS, WIDE, numbers,
                                                predicates_on, strings)

INF = math.inf


@st.composite
def constraints(draw):
    """One or two of the exactness suite's predicate shapes on one
    attribute, folded, now and then with a value they name excluded —
    so pins meet exclusions, intervals meet intervals, and some results
    admit nothing."""
    focus = draw(st.sampled_from(ANCHORS) | st.sampled_from(WIDE))
    predicates = [predicate
                  for _ in range(draw(st.integers(1, 2)))
                  for predicate in draw(predicates_on("x", focus))]
    named = [predicate.value for predicate in predicates
             if predicate.op != Op.EXISTS]
    if named and draw(st.booleans()):
        predicates.append(Predicate("x", Op.NE, draw(st.sampled_from(named))))
    try:
        constraint = constraint_from_predicates(predicates)
    except MatchingError:       # string and numeric predicates mixed
        assume(False)
    # "> -inf" / "< inf" alone: ``admits`` takes the open bound
    # literally, the closures and the form call the interval universal
    # (the disagreement test_columnar_exact.py leaves out too).
    assume(not (constraint.is_universal_interval()
                and (constraint.lo_open or constraint.hi_open)))
    values = draw(st.lists(numbers(focus) | strings, min_size=1,
                           max_size=8))
    return constraint, values


def decisions(constraint, value):
    """Every decision the form lets a matcher read off for ``value``."""
    pin, bounds, always = constraint.form
    read = []
    if pin is not None:                 # the plane's bucket probe
        read.append(value == pin)
    if bounds is not None:              # a bound row, or a root table cell
        (down,), (up,) = encode_values([value])
        read.append(bool(bounds[0] <= down and up <= bounds[1]))
    if always:
        read.append(True)
    if not read:                        # the residual closure
        read.append(constraint.compile()(value))
    return read


@settings(max_examples=1000, deadline=None)
@given(constraints())
def test_the_form_decides_what_admits_decides(drawn):
    constraint, values = drawn
    form = constraint.form
    kinds = (form.pin is not None) + (form.bounds is not None) \
        + form.always
    # a numeric equality is a pin with bounds; anything else one kind
    assert kinds <= 1 or (form.pin is not None and not form.always
                          and not isinstance(form.pin, str))
    if form.bounds is not None:
        assert form.bounds[0] <= form.bounds[1]
        assert all(type(bound) is float for bound in form.bounds)
    for value in values:
        admitted = constraint.admits(value)
        assert all(read == admitted
                   for read in decisions(constraint, value)), value


@given(constraints())
def test_the_form_is_computed_once_and_pickles_with_its_constraint(drawn):
    constraint, _values = drawn
    form = constraint.form
    assert constraint.form is form
    assert type(form) is ConstraintForm
    copy = pickle.loads(pickle.dumps(constraint))
    assert copy == constraint and copy.form == form


def test_a_pickled_subscription_keeps_its_forms():
    subscription = Subscription.parse(
        {"symbol": "HAL", "price": ("<", 50), "volume": (2 ** 60 + 1, INF),
         "sector": ("!=", "energy")})
    copy = pickle.loads(pickle.dumps(subscription))
    assert copy == subscription
    assert [c.form for _a, c in copy.items] \
        == [c.form for _a, c in subscription.items]
    forms = dict((attribute, c.form) for attribute, c in copy.items)
    assert forms["symbol"] == ConstraintForm("HAL", None, False)
    assert forms["price"] == ConstraintForm(
        None, (-INF, math.nextafter(50.0, -INF)), False)
    # 2**60 + 1 has no float64, so only the closure decides it
    assert forms["volume"] == forms["sector"] \
        == ConstraintForm(None, None, False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encoded_values_bracket_every_number_exactly(data):
    focus = data.draw(st.sampled_from(ANCHORS) | st.sampled_from(WIDE))
    values = data.draw(st.lists(numbers(focus) | strings | st.none(),
                                max_size=8))
    down, up = encode_values(values)
    assert down.dtype == up.dtype == float and len(down) == len(values)
    assert (up is down) == all(
        value is None or isinstance(value, str)
        or -2 ** 53 <= value <= 2 ** 53 for value in values)
    for value, low, high in zip(values, down.tolist(), up.tolist()):
        if value is None or isinstance(value, str):
            assert math.isnan(low) and math.isnan(high)
        else:
            assert low <= value <= high
            assert low == high or math.nextafter(low, INF) == high
            if low == value:
                assert high == value
