"""One exception class per CLI exit code.

Exit 1 is SynthesisError, exit 2 the built-in ValueError, exit 3
StepMismatchError, exit 4 UnstableSystemError (or the built-in
FloatingPointError) and exit 5 NumericalFailure.  No other class is
defined in the package, so every exit-2 refusal is a plain ValueError.
"""

import importlib
import inspect
import math
import pkgutil

import pytest

import cwcancel
from cwcancel.ber import sweep_beta
from cwcancel.plant import RelayParams
from cwcancel.simulate import SimConfig


def test_package_defines_one_class_per_exit_code():
    found = set()
    for info in pkgutil.iter_modules(cwcancel.__path__):
        module = importlib.import_module(f"cwcancel.{info.name}")
        found.update(obj.__name__ for obj in vars(module).values()
                     if inspect.isclass(obj) and issubclass(obj, BaseException)
                     and obj.__module__.startswith("cwcancel"))
    assert found == {"SynthesisError", "StepMismatchError", "UnstableSystemError",
                     "NumericalFailure"}


@pytest.mark.parametrize("refuse, message", [
    (lambda: RelayParams(fsfh_ratio=0), "fsfh_ratio must be a positive integer"),
    (lambda: SimConfig(params=RelayParams(), noise_rs_dbm=math.nan),
     "noise_rs_dbm must not be NaN"),
    (lambda: sweep_beta(SimConfig(params=RelayParams()), [math.nan], ["none"]),
     "beta values must be finite"),
], ids=["relay_param", "sim_level", "sweep_beta"])
def test_invalid_values_raise_plain_value_error(refuse, message):
    with pytest.raises(ValueError, match=message) as info:
        refuse()
    assert type(info.value) is ValueError
