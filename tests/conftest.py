import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles and helpers modules

from unichain import ChainScale, EnumerationTask, enumerate_uninorms

FIXTURES_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def uninorms_by_e():
    """Every uninorm for every neutral element, cached per scale for the session."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = {
                e: tuple(enumerate_uninorms(EnumerationTask(ChainScale(n), e)))
                for e in range(n + 1)
            }
        return cache[n]

    return get


@pytest.fixture(scope="session")
def all_pairs(uninorms_by_e):
    """All ordered uninorm pairs on L_n, flattened in canonical order."""
    cache = {}

    def get(n):
        if n not in cache:
            by_e = uninorms_by_e(n)
            cache[n] = [
                (u1, u2)
                for e1 in sorted(by_e)
                for u1 in by_e[e1]
                for e2 in sorted(by_e)
                for u2 in by_e[e2]
            ]
        return cache[n]

    return get
