"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    # a scan split across forked workers reaps every one before it returns
    # or raises, and so does every other test that starts a process
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
