import os

import pytest

from conftest import check_no_child_process


def ended_child():
    """The pid of a forked child that has ended and is not yet reaped."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    return pid


def test_the_probe_a_test_gets_leaves_an_ended_child_to_its_parent(no_child_process_left):
    pid = ended_child()
    with pytest.raises(AssertionError, match=f"child process {pid} was left unreaped"):
        no_child_process_left()
    # still there for the code that forked it to reap
    assert os.waitpid(pid, 0)[0] == pid
    no_child_process_left()


def test_the_check_after_a_test_reaps_what_it_finds():
    pid = ended_child()
    with pytest.raises(AssertionError, match=f"child process {pid} was left unreaped"):
        check_no_child_process(reap=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
