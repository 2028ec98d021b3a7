import os

from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci: examples are derived from each test's
# name, so a failure there repeats locally under the same profile, and the
# failing example's reproduction blob is printed.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
