"""``systems.scan`` split over forked workers against the same scan in one process,
and ``verify``'s member list decoded in parts by the same workers against one process
and against the whole text.

Every case forces the split (``WORKERS`` 2 or 3, ``FORK_CHUNKS`` 1, and for
``verify`` parts of 64 characters) and must give the mask of ``WORKERS = 1`` bit
for bit (``verify``: its exit code, stdout and stderr), raise the serial error,
and leave no child process behind.
"""

import fcntl
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
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
from psynd import cli


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


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("workers", [2, 3])
def test_slow_first_chunks_match_serial(monkeypatch, forks, workers):
    # the first two chunks cost about ten times the others: the queue hands the rest on
    sys = _system("rotation sqrt2")
    x = sys.base_point()
    lo, hi = -20000, 20000

    def conds(start, size):
        if start < lo + 2 * systems.CHUNK:
            time.sleep(0.02)
        return [(x, range(start, start + size)), (x, [n * n for n in range(start, start + size)])]

    _split_vs_serial(monkeypatch, forks, workers,
                     lambda: systems.scan(sys, x, Fraction(1, 4), conds, lo, hi))


@pytest.mark.parametrize("chunks", [50, 2500])
@pytest.mark.parametrize("workers", [2, 3])
def test_each_chunk_is_decided_once(monkeypatch, forks, tmp_path, workers, chunks):
    # 2500 chunks go in 834 records of 3: each process logs the chunks it decides
    def decide(starts):
        mask = 0
        with open(tmp_path / str(os.getpid()), "a") as log:
            for s in starts:
                log.write(f"{s}\n")
                mask |= 1 << s
        return mask

    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", workers)
    assert systems._split(decide, range(chunks)) == (1 << chunks) - 1
    _no_child_left()
    assert len(forks) == workers - 1
    logged = [int(s) for log in tmp_path.iterdir() for s in log.read_text().split()]
    assert sorted(logged) == list(range(chunks))


def test_more_chunks_than_records_matches_serial(monkeypatch, forks):
    # 8-time chunks: 1251 of them, two to a record, queued in a pipe of one page
    real = os.pipe

    def one_page_pipe():
        r, w = real()
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
        return r, w

    monkeypatch.setattr(os, "pipe", one_page_pipe)
    monkeypatch.setattr(systems, "CHUNK", 8)
    systems._gaps.cache_clear()  # its walks stop at CHUNK steps
    sys = _system("rotation sqrt2")
    x = sys.base_point()
    q = ReturnQuery(sys, x, x, Fraction(1, 4), PolyFamily.parse(["n", "n^2"]), (-5000, 5000))
    try:
        with _deadline(60):
            _split_vs_serial(monkeypatch, forks, 2, lambda: return_set_1d(q))
    finally:
        systems._gaps.cache_clear()


def test_parent_error_gives_the_serial_error(monkeypatch, forks):
    # in the queue this process fails on its second chunk; decided again, chunk 6 fails first
    parent, calls = os.getpid(), []

    def decide(starts):
        here = os.getpid() == parent
        calls.append(here)
        mask = 0
        for j, s in enumerate(starts):
            if here and calls.count(True) == 1 and j == 1:
                raise RuntimeError("the parent's second chunk")
            if s in (6, 11):
                raise ValueError(f"chunk {s}")
            mask |= 1 << s
        return mask

    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", 2)
    with pytest.raises(ValueError, match="chunk 6"):
        systems._split(decide, range(16))
    _no_child_left()
    assert forks and calls == [True, True]


def test_short_record_is_a_failure(monkeypatch, forks):
    # every process's first 4-byte read of the queue comes back 2 bytes short
    real, cut = os.read, []

    def read(fd, n):
        got = real(fd, n)
        if n == 4 and not cut:
            cut.append(fd)
            return got[:2]
        return got

    monkeypatch.setattr(os, "read", read)
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(systems, "WORKERS", 2)
    assert systems._split(lambda starts: sum(1 << s for s in starts), range(9)) == 0b111111111
    _no_child_left()
    assert forks and cut


# -- verify: a report's member list decoded in parts -----------------------------------

THMA_CFG = {
    "set": {"kind": "sturmian", "alpha": "golden", "window": [-2000, 2000]},
    "family": ["n", "n^2"],
    "box": [-100, 100, -40, 40],
    "certificates": {"pws2d": {"b1_max": 6, "b2_max": 6, "w": 3, "h": 3}},
}
ANALYZE_CFG = {
    "set": {"kind": "sturmian", "alpha": "golden", "window": [0, 9999]},
    "certificates": {"syndetic": {"N": 3}, "pws": {"b_max": 4, "L": 50}},
}


def _report(tmp_path, command, cfg):
    """The text of a report written by ``psynd <command>``."""
    cfg_path, out = tmp_path / f"{command}.cfg.json", tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    return {"planar": _report(tmp, "thma", THMA_CFG), "1d": _report(tmp, "analyze", ANALYZE_CFG)}


def _verify(tmp_path, capsys, text):
    """(exit code, stdout, stderr) of ``psynd verify`` on a report of this text."""
    path = tmp_path / "verified.json"
    path.write_text(text)
    code = cli.main(["verify", "--config", str(path)])
    return (code, *capsys.readouterr())


def _verify_split_vs_serial(monkeypatch, forks, capsys, tmp_path, workers, text, splits=True):
    """verify with the member list split into parts of 64 characters over ``workers``
    processes; then with ``WORKERS = 1``; then decoded whole: the same exit code,
    stdout and stderr."""
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(cli, "PART", 64)
    monkeypatch.setattr(systems, "WORKERS", workers)
    forks.clear()
    split = _verify(tmp_path, capsys, text)
    _no_child_left()
    assert bool(forks) == splits
    monkeypatch.setattr(systems, "WORKERS", 1)
    assert _verify(tmp_path, capsys, text) == split
    monkeypatch.setattr(cli, "PART", 1 << 40)
    assert _verify(tmp_path, capsys, text) == split
    return split


def _last_member(text, sep, forged):
    """``text`` with the last member of its set replaced by ``forged``."""
    head, _, tail = text.rpartition(sep)
    return head + sep + forged + tail[tail.index("]" if sep == "," else "]]"):]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind", ["planar", "1d"])
def test_split_verify_matches_serial(monkeypatch, forks, capsys, tmp_path, reports, workers, kind):
    got = _verify_split_vs_serial(monkeypatch, forks, capsys, tmp_path, workers, reports[kind])
    assert got[0] == 0 and got[2] == ""
    # a forged certificate fails alike
    report = json.loads(reports[kind])
    cert = report["certificates"][-1]
    if kind == "planar":
        cert["shift_box"] = [0, 0]
    else:
        cert["shift_bound"] = 0
        cert["interval"]["length"] = 10**4
    text = cli._dump_json(report)
    assert _verify_split_vs_serial(monkeypatch, forks, capsys, tmp_path, workers, text)[0] == 1


@pytest.mark.parametrize("forged, message", [
    ("[0,1.5]", "bad members: list indices must be integers or slices, not float"),
    ("[true,0]", "bad members: member [True, 0] is not a pair of integers"),
    ('["0",1]', "bad members: '<=' not supported between instances of 'int' and 'str'"),
    ("[0,1,2]", "too many values to unpack (expected 2)"),
    ("[0,41]", "member (0, 41) outside box"),
    ("[101,0]", "member (101, 0) outside box"),
], ids=["float", "bool", "string", "triple", "outside-n", "outside-m"])
def test_split_verify_bad_planar_member_in_a_later_part(monkeypatch, forks, capsys, tmp_path,
                                                        reports, forged, message):
    text = _last_member(reports["planar"], "],[", forged[1:-1])
    got = _verify_split_vs_serial(monkeypatch, forks, capsys, tmp_path, 2, text)
    assert got == (2, "", f"verify: bad report: {message}\n")


@pytest.mark.parametrize("forged, message", [
    ("1.5", "a list of integers"), ("true", "a list of integers"), ('"9"', "a list of integers"),
    ("[9]", "a list of integers"), ("10000", "member 10000 outside window [0,9999]"),
    ("-1", "member -1 outside window [0,9999]"),
], ids=["float", "bool", "string", "list", "outside-hi", "outside-lo"])
def test_split_verify_bad_1d_member_in_a_later_part(monkeypatch, forks, capsys, tmp_path,
                                                    reports, forged, message):
    text = _last_member(reports["1d"], ",", forged)
    code, out, err = _verify_split_vs_serial(monkeypatch, forks, capsys, tmp_path, 2, text)
    assert (code, out) == (2, "") and err.startswith("verify: bad report: ")
    assert err.endswith(f"{message}\n") and err.count("\n") == 1


def _forged(text, kind):
    """Reports whose member text is not, or not only, where ``_member_parts`` looks."""
    body = text.rstrip("\n")[:-1]  # without the report's closing brace
    i = text.rindex('"members":') + len('"members":')
    j = text.rindex("]") + 1
    members = text[i:j]
    box = body[body.rindex('"set":'):]
    if kind == "members-in-an-earlier-string":
        return '{"note":"\\"members\\":[[0,0]]",' + text[1:]
    if kind == "members-in-a-later-object":
        return body + ',"zz":{"members":[[0,0],[1,1]]}}'
    if kind == "members-0-and-a-later-list":  # the set's own members read 0 whatever the span
        return text[:i] + "0" + text[j:].rstrip("\n")[:-1] + ',"zz":{"members":' + members + "}}"
    if kind == "duplicate-set":
        return body + "," + box + "}"
    if kind == "duplicate-set-without-members":
        return body + ',"set":{"lo":0,"hi":5}}'
    if kind == "duplicate-members":  # the last one counts, and is the long one
        return text[:i - len('"members":')] + '"members":[[0,0]],' + text[i - len('"members":'):]
    if kind == "members-not-last":
        return text[:i - len('"members":')] + '"members":' + members + ',"zz":[1,2]' + text[j:]
    if kind == "certificates-after-set":
        report = json.loads(text)
        certs = json.dumps(report.pop("certificates"))
        return cli._dump_json(report).rstrip("\n")[:-1] + f',"certificates":{certs}}}'
    if kind == "whitespace-around":
        return text[:i] + " \n" + members + "\t " + text[j:]
    if kind == "separator-in-a-string":
        return text[:j - 1] + ',"[1,2],[3,4]",[0,0]]' + text[j:]
    if kind == "blank-between-commas":  # invalid JSON
        k = text.index("],[", i + len(members) // 2) + 2
        return text[:k] + " " * 300 + "," + text[k:]
    raise AssertionError(kind)


# kind: whether the text is split (a part that fails then sends it to the whole decode)
FORGED = {"members-in-an-earlier-string": True, "members-in-a-later-object": False,
          "members-0-and-a-later-list": False,
          "duplicate-set": True, "duplicate-set-without-members": False,
          "duplicate-members": True, "members-not-last": True, "certificates-after-set": False,
          "whitespace-around": False, "separator-in-a-string": True, "blank-between-commas": True}


@pytest.mark.parametrize("kind", FORGED)
def test_split_verify_forged_text_decodes_as_whole(monkeypatch, forks, capsys, tmp_path,
                                                   reports, kind):
    text = _forged(reports["planar"], kind)
    monkeypatch.setattr(cli, "PART", 1 << 40)
    whole = _verify(tmp_path, capsys, text)
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(cli, "PART", 64)
    monkeypatch.setattr(systems, "WORKERS", 2)
    assert _verify(tmp_path, capsys, text) == whole
    _no_child_left()
    assert bool(forks) == FORGED[kind]
    assert "Traceback" not in whole[2]


def test_split_verify_blanks_between_commas_in_1d(monkeypatch, forks, capsys, tmp_path, reports):
    # blanks longer than a part, where a part starts: that part, blanks alone, parses as an
    # empty list; it is refused, and the whole text exits 2
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(cli, "PART", 64)
    text = reports["1d"]
    _, spans = cli._member_parts(text)
    k = spans[len(spans) // 2][0]
    text = text[:k] + " " * 300 + "," + text[k:]
    assert text[slice(*cli._member_parts(text)[1][len(spans) // 2])].isspace()
    code, out, err = _verify_split_vs_serial(monkeypatch, forks, capsys, tmp_path, 2, text)
    assert (code, out) == (2, "") and err.startswith("verify: bad report: Expecting value")


def test_split_verify_no_fork_beside_a_second_thread(monkeypatch, forks, capsys, tmp_path,
                                                     reports):
    monkeypatch.setattr(systems, "FORK_CHUNKS", 1)
    monkeypatch.setattr(cli, "PART", 64)
    monkeypatch.setattr(systems, "WORKERS", 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = _verify(tmp_path, capsys, reports["planar"])
    finally:
        stop.set()
        thread.join()
    assert forks == [] and got[0] == 0
    monkeypatch.setattr(cli, "PART", 1 << 40)
    assert _verify(tmp_path, capsys, reports["planar"]) == got
