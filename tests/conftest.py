"""Session set-up shared by every test module."""

import warnings

# When a Hypothesis test fails, its report hook imports this module, which
# imports libcst, whose import raises a DeprecationWarning (of
# mypy_extensions); under `-W error` that ends the whole session with an
# INTERNALERROR, so the failure goes unreported and later tests never run.
# Imported once here, with the warning ignored, the hook finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the hook reports without it
        pass
