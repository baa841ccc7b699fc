import multiprocessing

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_session():
    """Fail the run if a child process, such as an ``aggregate --jobs`` worker,
    is still alive when the session ends."""
    yield
    alive = multiprocessing.active_children()
    if alive:
        pytest.fail(f"child processes still alive at session end: {alive}")
