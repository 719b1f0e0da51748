import os

from hypothesis import HealthCheck, settings

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
