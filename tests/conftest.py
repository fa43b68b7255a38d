import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "research",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("research")


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_hermitian(n, rng, scale=1.0):
    dim = 1 << n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def assert_same_text(got, want):
    """Fail on the first line where two texts (str or bytes) differ.

    pytest's own report of a failed `got == want` diffs the whole texts,
    which runs for over a minute on record CSVs of some thousand rows that
    differ on most of them.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            raise AssertionError(f"line {i + 1} differs: {g!r} != {w!r}")
    raise AssertionError(f"one text ends early: {len(got_lines)} lines != "
                         f"{len(want_lines)} lines")
