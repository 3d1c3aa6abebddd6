"""Every verification check in verify.SUITES that test_acceptance.py
does not already assert, so a green pytest run implies
`bikegeo verify --suite all` exits 0."""

import re
from pathlib import Path

import pytest

from bikegeo import verify

_ACCEPTED = set(re.findall(
    r"verify\.(check_\w+)",
    Path(__file__).with_name("test_acceptance.py").read_text()))

_CHECKS = [fn for checks in verify.SUITES.values() for _name, fn in checks
           if fn.__name__ not in _ACCEPTED]


@pytest.mark.parametrize("check", _CHECKS, ids=lambda fn: fn.__name__)
def test_verify_check(check):
    ok, detail = check()
    assert ok, detail
