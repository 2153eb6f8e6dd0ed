"""``systems.scan`` split over forked workers against the same scan in one process.

Every case forces the split (``WORKERS`` 2 or 3, ``FORK_CHUNKS`` 1) and must
give the mask of ``WORKERS = 1`` bit for bit, raise the serial error, and
leave no child process behind.
"""

import os
import threading
from fractions import Fraction

import pytest

from psynd import (
    HeisenbergNil,
    IndicatorSubshift,
    PolyFamily,
    ReturnQuery,
    SkewProduct,
    TorusRotation,
    WindowExhaustedError,
    WindowSet,
    parse_real,
    recurrence_times,
    return_set_1d,
    return_set_2d,
    systems,
)


def _system(kind):
    real = parse_real
    return {
        "rotation sqrt2": TorusRotation((real("sqrt2"),)),
        "rotation 1/5003": TorusRotation((real("1/5003"),)),
        "2-torus": TorusRotation((real("sqrt2"), real("sqrt3"))),
        "skew golden": SkewProduct(real("golden")),
        "heisenberg 2^bits": HeisenbergNil(real("sqrt2-1"), real("sqrt3-1")),
        "heisenberg rational": HeisenbergNil(real("1/2049"), real("1/2")),
    }[kind]


SYSTEMS = ["rotation sqrt2", "rotation 1/5003", "2-torus", "skew golden",
           "heisenberg 2^bits", "heisenberg rational"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from now on."""
    pids, real = [], os.fork

    def spy():
        pid = real()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _split_vs_serial(monkeypatch, forks, workers, decide):
    """decide() with the split forced to ``workers``, then in one process."""
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", workers)
    forks.clear()
    split = decide()
    _no_child_left()
    assert forks, "the scan did not split"
    monkeypatch.setattr(systems, "WORKERS", 1)
    assert split == decide()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_split_return_set_1d_matches_serial(monkeypatch, forks, workers, kind):
    sys = _system(kind)
    x = sys.base_point()
    center = sys.iterate(x, 3)
    for fam, window in [(["n", "n^2"], (-9000, 9000)), (["n^2"], (-30000, 30000)),
                        (["n^2+n"], (-2000, 14000))]:
        q = ReturnQuery(sys, x, center, Fraction(1, 4), PolyFamily.parse(fam), window)
        known = ReturnQuery(sys, x, center, q.eps, q.family, (-700, 3100))
        _split_vs_serial(monkeypatch, forks, workers, lambda: (
            return_set_1d(q), return_set_1d(q, known=return_set_1d(known))))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_split_return_set_2d_matches_serial(monkeypatch, forks, workers, kind):
    # the planar runs hand ``scan`` want masks; the rational ones fold a period in m and n
    sys = _system(kind)
    x = sys.base_point()
    q = ReturnQuery(sys, x, x, Fraction(1, 3), PolyFamily.parse(["n", "n^2"]),
                    (-6000, 6000, -60, 60))
    _split_vs_serial(monkeypatch, forks, workers, lambda: return_set_2d(q))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_split_recurrence_times_matches_serial(monkeypatch, forks, workers, kind):
    sys = _system(kind)
    x = sys.base_point()
    fam = PolyFamily.parse(["n", "n^2"])
    _split_vs_serial(monkeypatch, forks, workers,
                     lambda: recurrence_times(sys, x, fam, 2, Fraction(1, 3), 10000))


def _subshift_error(window):
    """The WindowExhaustedError message of a subshift return set over ``window``."""
    sub = IndicatorSubshift(WindowSet.from_predicate(0, 20000, lambda n: n % 3 == 0))
    x = sub.base_point()
    q = ReturnQuery(sub, x, x, Fraction(1, 2), PolyFamily.parse(["n"]), window)
    with pytest.raises(WindowExhaustedError) as exc:
        return_set_1d(q)
    return str(exc.value)


@pytest.mark.parametrize("window", [(-100, 24000), (100, 24000)])
def test_split_raises_the_serial_error(monkeypatch, forks, window):
    # (-100, 24000) fails first in this process's slice, (100, 24000) only in a child's
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", 2)
    split = _subshift_error(window)
    _no_child_left()
    assert forks
    monkeypatch.setattr(systems, "WORKERS", 1)
    assert split == _subshift_error(window)
    assert ("shift by -100" in split) == (window[0] < 0)


def test_failed_child_is_redone_here(monkeypatch, forks):
    parent = os.getpid()

    def decide(starts):
        if os.getpid() != parent:
            os._exit(1)
        return sum(1 << s for s in starts)

    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", 3)
    assert systems._split(decide, range(7)) == 0b1111111
    assert len(forks) == 2
    _no_child_left()


def test_failed_fork_decides_here(monkeypatch):
    def no_fork():
        raise OSError("no process")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", 3)
    assert systems._split(lambda starts: sum(1 << s for s in starts), range(7)) == 0b1111111


def _rotation_scan():
    sys = _system("rotation sqrt2")
    x = sys.base_point()
    q = ReturnQuery(sys, x, x, Fraction(1, 4), PolyFamily.parse(["n", "n^2"]), (-9000, 9000))
    return return_set_1d(q)


def test_no_fork_beside_a_second_thread(monkeypatch, forks):
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = _rotation_scan()
    finally:
        stop.set()
        thread.join()
    assert forks == []
    monkeypatch.setattr(systems, "WORKERS", 1)
    assert got == _rotation_scan()


def test_no_fork_without_os_fork(monkeypatch):
    pipes, real = [], os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(1) or real())
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", 2)
    got = _rotation_scan()
    assert pipes == []
    monkeypatch.setattr(systems, "WORKERS", 1)
    assert got == _rotation_scan()
