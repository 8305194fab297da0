"""Helpers for tests of the forked children that features_to_csv and the
rank sweep start."""

import multiprocessing
import os
import signal
from contextlib import contextmanager


def set_cpus(monkeypatch, cpus):
    """Make the process see cpus CPUs, below rolemine's own fork rule."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def without_fork(monkeypatch):
    """Make the platform appear to have no fork start method."""
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)


def count_forks(monkeypatch):
    """Record each process made from the fork context."""
    fork = multiprocessing.get_context("fork")
    process = fork.Process
    started = []

    def record(*args, **kwargs):
        started.append(process(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(fork, "Process", record)
    return started


def refuse_forks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", refuse)


def in_child_only(monkeypatch, module, name, act):
    """Make module.name call act() first when it runs in a forked child."""
    parent = os.getpid()
    original = getattr(module, name)

    def act_then_call(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, act_then_call)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@contextmanager
def deadline(seconds):
    """Fail the test, rather than hang, if the block runs over seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
