"""Test plumbing: print one pass/fail line per acceptance check, and load
Hypothesis' failure reporter before any test turns warnings into errors."""

import warnings

# Hypothesis imports hypothesis.extra._patching, and libcst with it, only
# when it reports a failing example.  Under a test's filterwarnings("error")
# a DeprecationWarning raised by that import would abort the whole session
# instead of failing the one test, so the import happens here, warnings off.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

_acceptance = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        _acceptance[report.nodeid] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance summary")
    for nodeid, passed in _acceptance.items():
        label = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {label}")
