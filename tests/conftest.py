import os
import warnings

from hypothesis import HealthCheck, settings

# A failing property test makes Hypothesis' pytest plugin import its
# explicit-example patcher, which imports libcst, whose import raises
# mypy_extensions' TypedDict DeprecationWarning; under
# -W error::DeprecationWarning that turned the report of the falsifying
# example into an INTERNALERROR.  Importing the patcher here, with that one
# warning ignored, leaves it loaded for the plugin.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        # without libcst the plugin skips the patch itself
        pass

# numerical code under CI load can blow the default 200 ms deadline
settings.register_profile(
    "scmest",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI draws the same examples on every run, so a property test that fails
# there fails the same way again
settings.register_profile("scmest-ci", parent=settings.get_profile("scmest"), derandomize=True)
settings.load_profile("scmest-ci" if os.environ.get("CI") else "scmest")
