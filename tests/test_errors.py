"""Every package error survives pickling: the standard suite sends the
exception a check raised in a forked share back to its parent in a pipe.
`finite` rejects a number too large for a double."""

import inspect
import pickle
from fractions import Fraction

import pytest

from invk import errors
from invk.catalog import make

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]


def test_every_error_class_is_covered():
    assert len(CLASSES) == 7
    assert errors.ParseError in CLASSES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    exc = cls("bad", 3) if cls is errors.ParseError else cls("bad")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "position", None) == getattr(exc, "position", None)


def test_parse_error_message_is_formatted_once():
    back = pickle.loads(pickle.dumps(errors.ParseError("bad", 3)))
    assert str(back) == "bad (at position 3)"
    assert back.position == 3


@pytest.mark.parametrize("v", [10**400, -10**400, Fraction(10**400)], ids=["int", "negative int", "Fraction"])
def test_finite_rejects_a_number_past_the_doubles(v):
    # math.isfinite raises OverflowError on these; finite turns it into its
    # own rejection, as for any other non-finite number
    with pytest.raises(errors.RejectedInputError, match="must be a finite number"):
        errors.finite("a", v)


def test_a_parameter_past_the_doubles_is_rejected():
    with pytest.raises(errors.RejectedInputError, match="must be a finite number"):
        make("E5", a=10**400)
