"""Every exception type survives a pickle round trip, as forked workers send them back pickled."""

import inspect
import pickle

import pytest

from dysonflow import errors

CASES = [
    errors.DysonflowError("base"),
    errors.NotHermitian("not Hermitian", index=3),
    errors.NotPositiveDefinite("not positive definite", t=0.25, index=4),
    errors.UnsupportedHamiltonian("no flow"),
    errors.PositivityViolation("det rho <= 0"),
    errors.StepTooLarge("step too large"),
    errors.SingularDysonMap("singular"),
    errors.ConfigInvalid("bad config"),
]


def test_cases_cover_every_exception_class():
    classes = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    assert {type(exc) for exc in CASES} == classes


@pytest.mark.parametrize("exc", CASES, ids=lambda exc: type(exc).__name__)
def test_exception_survives_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert (back.args, str(back)) == (exc.args, str(exc))
    assert vars(back) == vars(exc)
