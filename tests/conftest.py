"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    # every process a test forks or spawns is reaped by the time it ends
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
