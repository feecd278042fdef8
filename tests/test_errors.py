"""Every toolkit error survives a pickle round trip (the way a worker
process hands it to the `analyze --jobs N` parent)."""
import pickle

import pytest

from etk.errors import AssemblyError, EtkError, ParseError
from etk.model import Violation


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Constructor arguments of the types whose __init__ is not Exception's.
ARGS = {
    ParseError: ("gaze", 51, 2048, "expected 3 fields, got 4"),
    AssemblyError: ([Violation(f"gaze.samples[{i}]", "timestamp decreases")
                     for i in range(7)], "session failed validation"),
}


@pytest.mark.parametrize("cls", [EtkError, *_subclasses(EtkError)],
                         ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    error = cls(*ARGS.get(cls, ("the message",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
