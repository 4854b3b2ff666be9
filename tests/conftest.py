# Anchors the test directory on sys.path so the suite can import `generators`.
import warnings

# A failing Hypothesis test makes its pytest plugin import this module, which
# imports libcst, whose import warns that mypy_extensions.TypedDict is
# deprecated; under the "error" filter that warning would abort the session.
# Importing it once here, with that one warning ignored, keeps a failing
# property test a reported failure.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
