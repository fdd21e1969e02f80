"""The SHA-256 pins that tier-1 compares through ``tests/pins.py``, and the
tool's own reports; CI runs the same tool on the other fixtures."""

from functools import cache

import pytest

import pins
from helpers import uninorms_by_e
from unichain.distributivity import distributive_pairs

# distributive pairs per block of L_7, e1 rows against e2 columns, as both the
# numpy kernel (378 s of CPU) and the row kernel found them before the pins
L7_BLOCK_COUNTS = [
    [2386, 451, 188, 132, 132, 188, 451, 2386],
    [12249, 1214, 444, 296, 312, 464, 1136, 5926],
    [8174, 2157, 772, 432, 402, 588, 1407, 7007],
    [6996, 1617, 845, 629, 526, 660, 1475, 6937],
    [6937, 1475, 660, 526, 629, 845, 1617, 6996],
    [7007, 1407, 588, 402, 432, 772, 2157, 8174],
    [5926, 1136, 464, 312, 296, 444, 1214, 12249],
    [2386, 451, 188, 132, 132, 188, 451, 2386],
]


TIER1 = ["hits_l5", "hits_l6", "hits_l7", "scan_l3", "scan_l4", "scan_l5", "enumeration_l7"]


@cache
def computed(name):  # the fixture's lines by key, computed once per session
    return pins.keyed("".join(pins.compute(name)))


# one test per pin, so that a failure names its pin; a key that only one side has fails them all
@pytest.mark.parametrize("name,key", [(name, key) for name in TIER1
                                      for key in pins.keyed(pins.pinned(name))],
                         ids=lambda value: value.replace(" ", ","))
def test_the_pins_hold(name, key):
    pinned = pins.keyed(pins.pinned(name))
    assert computed(name).keys() == pinned.keys()
    assert computed(name)[key] == pinned[key]


def test_a_hit_moved_inside_its_block_is_caught(monkeypatch, capsys):
    calls = []
    by_e = uninorms_by_e(5)
    start = len(by_e[0]) + len(by_e[1])  # where the e1 = 2 firsts begin in each call

    def moved(firsts, seconds):
        out = distributive_pairs(firsts, seconds)
        calls.append(len(seconds))
        if len(calls) == 2:  # the e2 = 1 call, which holds block (2, 1)
            hits = set(out)
            cells = [(i, j) for i in range(start, start + len(by_e[2]))
                     for j in range(len(seconds))]
            hit = next(c for c in cells if c in hits)
            miss = next(c for c in cells if c not in hits)
            out = sorted(hits - {hit} | {miss})  # the block's first hit swapped for its first miss
        return out

    monkeypatch.setattr(pins, "distributive_pairs", moved)
    assert pins.main(["hits_l5"]) == 1
    reported = capsys.readouterr().out.splitlines()[1:]  # after the summary line
    assert [line.partition(":")[0] for line in reported] == ["e1=2 e2=1"]
    assert reported[0].count(" e1=2 e2=1 hits=67") == 2  # the digest alone moved
    assert calls == [len(seconds) for seconds in by_e.values()]  # one kernel call per second stack


@pytest.mark.parametrize("name,key", [("scan_l3", "e1=2 e2=1"), ("enumeration_l7", "e=3")])
def test_one_changed_line_is_reported_by_its_key(tmp_path, monkeypatch, capsys, name, key):
    lines = pins.pinned(name).splitlines(keepends=True)
    at = [line.endswith(f"  {key}\n") for line in lines].index(True)
    lines[at] = "0" * 64 + lines[at][64:]
    (tmp_path / f"{name}.sha256").write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(pins, "FIXTURES_DIR", tmp_path)
    assert pins.main([name]) == 1
    reported = capsys.readouterr().out.splitlines()[1:]  # after the summary line
    assert [line.partition(":")[0] for line in reported] == [key]


@pytest.mark.parametrize("argv", [[], ["hits_l5", "--wrte"], ["hits_l5", "--wr"], ["hits_l0"],
                                  ["scan_lfive"], ["scan_l3_conjunctive"], ["0"], ["-1"],
                                  ["hits_l4"]])
def test_a_bad_call_prints_the_usage_and_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        pins.main(argv)
    assert caught.value.code == 2
    assert capsys.readouterr().err.startswith("usage: pins.py")


def test_the_l7_hit_pins_hold_the_cross_checked_counts():
    counts = pins.hit_counts("hits_l7")
    assert counts == {(e1, e2): c for e1, row in enumerate(L7_BLOCK_COUNTS)
                      for e2, c in enumerate(row)}
    by_case = [sum(c for (e1, e2), c in counts.items() if test(e1, e2)) for test in
               (int.__eq__, int.__gt__, int.__lt__)]
    assert by_case == [10002, 63978, 63978]
