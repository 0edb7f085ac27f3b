"""Shared fixtures: group/enumeration caches and the acceptance summary hook."""
from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import settings

from dynbrace.enumeration import enumerate_full, enumerate_unital
from dynbrace.groups import build_group

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@lru_cache(maxsize=None)
def cached_group(name: str):
    return build_group(name)


@lru_cache(maxsize=None)
def cached_unital(name: str):
    return enumerate_unital(cached_group(name))


@lru_cache(maxsize=None)
def cached_full(name: str):
    return enumerate_full(cached_group(name))


@pytest.fixture
def group_of():
    return cached_group


@pytest.fixture
def unital_of():
    return cached_unital


@pytest.fixture
def full_of():
    return cached_full


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from tests import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "RESULTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
