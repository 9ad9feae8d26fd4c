"""Session set-up shared by every test module."""

import warnings

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
