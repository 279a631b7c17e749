from __future__ import annotations

import pytest

from dynslice import build_cdg, init, load, run
from dynslice.fixtures import LOOP_SOURCE, SAMPLE_INPUTS, SAMPLE_SOURCE


@pytest.fixture(scope="session")
def sample_program():
    return load(SAMPLE_SOURCE)


@pytest.fixture(scope="session")
def sample_cdg(sample_program):
    return build_cdg(sample_program)


@pytest.fixture(scope="session")
def sample_run(sample_program):
    return run(sample_program, SAMPLE_INPUTS)


@pytest.fixture(scope="session")
def sample_state(sample_cdg, sample_run):
    # read-only in tests; anything that feeds events builds its own state
    return init(sample_cdg).consume(sample_run.events)


@pytest.fixture(scope="session")
def loop_program():
    return load(LOOP_SOURCE)


@pytest.fixture(scope="session")
def loop_cdg(loop_program):
    return build_cdg(loop_program)
