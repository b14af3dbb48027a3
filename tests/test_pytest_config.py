"""The repository's pytest configuration, run on a throwaway test file."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_does_not_end_the_session(pytester):
    # Hypothesis reports a falsifying example through a third-party import
    # that warns; under `filterwarnings = error` that warning must not turn
    # the report into an INTERNALERROR that stops every later test
    sample = pytester.makepyfile(test_sample="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property_fails(x):
            assert x < 5

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "--rootdir",
                                           str(pytester.path), "-p", "no:cacheprovider",
                                           str(sample))
    result.assert_outcomes(failed=1, passed=1)
