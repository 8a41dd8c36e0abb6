"""Shared pytest plumbing: the acceptance tests record one line per
criterion and the lines are echoed in the terminal summary.  Every
hypothesis test draws the same examples on every run; each keeps its own
max_examples and deadline."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []


def record(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
