"""Each report of ``reports.py`` runs on its smallest input and returns rows
as wide as its table, and every name a report patches is the original
object again once it returns: the reports wrap library functions in place,
and one left wrapped would change every test that runs after it."""

import sys

import pytest
import reports

from omlkit import lattice_core


def _names():
    """Every attribute of the package's modules and of the classes they
    define, as {(owner, name): value}."""
    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "omlkit"]
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    return {(owner, name): value for owner in modules + classes
            for name, value in vars(owner).items()}


def _replaced(before):
    """The (owner, name) pairs of ``before`` that no longer hold its value."""
    now = _names()
    return [key for key, value in before.items() if now.get(key) is not value]


@pytest.mark.parametrize("report", reports.REPORTS, ids=[title for title, *_ in reports.REPORTS])
def test_each_report_runs_on_its_smallest_input_and_puts_back_what_it_patched(report):
    title, columns, function, inputs = report
    before = _names()
    rows = function(inputs[:1])
    assert _replaced(before) == []
    assert rows and all(len(row) == len(columns) for row in rows)
    assert len(reports.table(title, columns, rows).splitlines()) == 4 + len(rows)


def test_the_name_check_finds_a_function_left_patched():
    before = _names()
    with reports.patched(lattice_core, "_backtrack", lambda search: lambda *args: search(*args)):
        assert _replaced(before) == [(lattice_core, "_backtrack")]
    assert _replaced(before) == []
