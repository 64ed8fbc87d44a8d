"""Every package error survives pickling: the standard suite sends the
exception a check raised in a forked share back to its parent in a pipe."""

import inspect
import pickle

import pytest

from invk import errors

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
