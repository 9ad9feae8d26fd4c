"""Session set-up and fixtures shared by every test module."""

import gc
import warnings

import pytest

# Hypothesis reports a failing example through hypothesis.extra._patching,
# which imports libcst where it is installed, and libcst's import warns with
# a DeprecationWarning. Under ``-W error`` that warning ends the session with
# an INTERNALERROR instead of a FAILED line, and an ini ``filterwarnings``
# entry cannot help, since ``-W`` on the command line takes precedence.
# Imported once here, the module is cached before any report needs it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_was(request):
    """The cyclic collector turned on or off before the test; restored after it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()
