import os

import pytest

# before NumPy, so that the tests' BLAS runs on one thread and ``Model.score``
# forks its child, as in the ``crossnet`` command
import crossnet  # noqa: F401


def check_no_child_process(reap=False):
    """AssertionError if this process has a child process running or ended and
    unreaped. Only with ``reap`` is an ended one reaped by the check, so that a
    check made while the code under test runs leaves its child to it."""
    try:
        if reap:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        else:
            ended = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            pid = ended.si_pid if ended else 0
    except ChildProcessError:
        return
    raise AssertionError("a child process is still running" if pid == 0
                         else f"child process {pid} was left unreaped")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running or unreaped, and reap
    an unreaped one. A test that asks for the fixture gets the check, to make
    at any point; that one reaps nothing."""
    yield check_no_child_process
    check_no_child_process(reap=True)


class ProcessLog:
    """Events appended to one file by this process and any child it forks,
    in the order they were written, each with the pid that wrote it."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def append(self, *fields):
        # one short write in append mode, so lines of two processes never interleave
        with open(self.path, "a") as fh:
            fh.write(" ".join(map(str, (*fields, os.getpid()))) + "\n")

    def events(self):
        """A tuple of strings per event: its fields, then the writer's pid as an int."""
        return [(*line.split()[:-1], int(line.split()[-1]))
                for line in self.path.read_text().splitlines()]


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "events.log")
