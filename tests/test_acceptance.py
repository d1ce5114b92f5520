"""Acceptance gate: every registered invariant check at its stated tolerances.

The checks live in :mod:`convalg.checks`, which ``convalg verify`` runs
too; ``pytest -v`` lists each one by name.
"""

import pytest

from convalg.checks import CHECKS


@pytest.mark.parametrize("check", [fn for _, _, fn in CHECKS],
                         ids=[name for _, name, _ in CHECKS])
def test_check(check):
    check()


def test_check_names_are_unique():
    names = [name for _, name, _ in CHECKS]
    assert len(set(names)) == len(names)
