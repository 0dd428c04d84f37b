"""Test-session setup shared by every test module."""

import warnings

# hypothesis reports a falsifying example through hypothesis.extra._patching,
# whose libcst import raises a DeprecationWarning (from mypy_extensions); under
# the suite's filterwarnings = ["error"] that warning, raised inside pytest's
# report hook, would end the run in INTERNALERROR.  Importing it here, once,
# with that warning ignored, leaves the report hook nothing to warn about.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis skips the patch report
        pass
