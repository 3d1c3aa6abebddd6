"""Every verification check in verify.SUITES that test_acceptance.py
does not already assert, so a green pytest run implies
`bikegeo verify --suite all` exits 0.  check_shortcut_grid, the only
RK4 landing on the product's shortcut, runs here beside criterion 8."""

import re
from pathlib import Path

import pytest

from bikegeo import verify

_ACCEPTED = set(re.findall(
    r"verify\.(check_\w+)",
    Path(__file__).with_name("test_acceptance.py").read_text()))
_ACCEPTED.discard("check_shortcut_grid")

_CHECKS = [fn for checks in verify.SUITES.values() for fn in checks
           if fn.__name__ not in _ACCEPTED]


@pytest.mark.parametrize("check", _CHECKS, ids=lambda fn: fn.__name__)
def test_verify_check(check):
    ok, detail = check()
    assert ok, detail


def test_every_check_in_exactly_one_suite():
    # run_suites names a result after its function, so SUITES lists each
    # module-level check once and nothing that is not a check
    listed = [fn for checks in verify.SUITES.values() for fn in checks]
    defined = [fn for name, fn in vars(verify).items()
               if name.startswith("check_") and callable(fn)]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(defined)
