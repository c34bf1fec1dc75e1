"""Fixtures shared by the test modules."""

import os

import pytest


class Forks(list):
    """Process ids of the children that ``os.fork`` made while a test ran, in order."""

    def unreaped(self) -> list:
        """The recorded children still to be reaped. For a reaped one,
        ``os.waitpid`` raises ChildProcessError; WNOHANG keeps it from waiting.

        Only the recorded children are asked: a pool of the ``spawn`` method,
        as the acceptance suite runs, leaves multiprocessing's resource tracker
        as a child of this process until it exits.
        """
        left = []
        for pid in self:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            left.append(pid)
        return left


@pytest.fixture
def forks(monkeypatch):
    """Every child this process forks during the test; forked children inherit
    the wrapper and record nothing of their own."""
    recorded = Forks()
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            recorded.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return recorded
