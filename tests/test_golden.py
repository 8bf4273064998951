"""Golden reports: the SHA-256 of every command's stdout under TDUAL_SEED=0 (a few at 7) and of its --out files.

The hashes pin the reports byte for byte, so a refactor or speed-up that
changes any printed digit fails here.  They depend on the platform's floating-
point library (libm and numpy's kernels): on another machine a hash may differ
in the last digit of some float while every check still passes.  The hashes
of the seeded reports (geometry and branes) also depend on the stream of
`geometry.uniform_draws`, output i + 1 of SplitMix64 from the state TDUAL_SEED
mod 2**64, which every sampled float comes from.  Regenerate them only for an
intended report change, from the commit before that change.
"""
from __future__ import annotations

import hashlib

import pytest

from tdual import cli

GOLDEN = {
    "geometry --n 1": "b67d8111fe2aab8307e6714e9bf282da60092867074b289b9ba91c92dc347910",
    "geometry --n 2": "5cf46927ea2586f2e27234aa20d04e2b74e2b1313447848182a1dbe6259196b2",
    "geometry --n 3": "d439e6173cf08d57a02589f8fe4d299a8e5add6f4c64dee9731a19ecee76dc76",
    "branes --n 1": "8c5efacd42a080760721ffcd321c5da23b4b301b9431e54580bb69058753b2d8",
    "branes --n 2": "694644dcd020e501a7556f1a032ca227477ca4d1a770e3f40863cf5d14b9d18c",
    "branes --n 3": "458cdfc30cf0f479c24144181056915a9221c802dda2b9a68f34c76a28e00ffb",
    "quiver --n 1": "88a824cd6eac10ba7436241876d72b239d3e3df204dea9d6e065b17c4cdeedca",
    "quiver --n 2": "371967ad33ae4772d306c66ccf94e0c5f1dfd4dddeebee60283b1cdefffc95aa",
    "quiver --n 3": "1c0927f4fc14cc9c9f6ddac5bbd3f13a7651c909c8dbdca1343be093a14b2ac1",
    "verify --n 1": "ce096623a00ee3f7c4cacad9ec487be1887c354372aea8026d115b0a5e9373e9",
    "verify --n 2": "dcd34779066f6ee199b186a3fdb1b6346632e8afd96fc17e3b6e2ee2f8a31e97",
    "verify --n 3": "75caf546c65188987b77460016564c4a3c4c396d6213ccbd359511985aef1349",
    "oracle --n 1": "18b5ade3bf0cc9d2c515d9e12e7f0de3300487fec6af418b786daeca9c8382d3",
    "oracle --n 2": "2ee5bd420fc3de6161e101492628c6a822b7d2aa2d00a7b736a05789d2c35cdf",
    "oracle --n 1 --epsilon 1/16": "2dcd00dca66b20e13d6389a9b64ee08be5e7cbf324e1bb8e9250c868a691450a",
    "branes --n 4 --grid 10": "d7542d76312fe5000d3f4e990a9d3b6b514546e4ef588f6e2a5f4544d707fd04",
    "verify --n 5": "f8e5c977a1dcb915ba2366023bfc18278d4937d007767aba01af7b9bbb9aee28",
    "quiver --n 4": "f032056c6e7011bb613fa1ad76a31d6b5e47f6c2262928257ae508f3c54f1684",
    "verify --n 6": "3b248789b6345e917b652500a422c4531051ab65b0f9722c85741b4fc89b783c",
    "quiver --n 5": "ba014508c9992c467229c55f03b08e90183e898c809d8da5932564ec9b7377f8",
    "quiver --n 3 --format dot": "b09d0ed1d465fb15687c14f8908e27f3d96542185602d39fb941c291248789fb",
    "geometry --n 4": "f28a56dbce5cb9578033f90a129a9be6dd67fdeef37a00489bdd4331b532bf9f",
    "branes --n 5 --grid 6": "01bbe0f2f46a1fc0cbcb97fababf25cdaeee0a6499f58bfd7b436a7c0a6ab980",
    "geometry --n 5": "a9b3c16d9ff73ececa4f34fc83c555de1be9bbeaaa9bd00342e91525196ee16a",
    "geometry --n 6": "b9499790d4c7a2f5888cc014310419582e1defaff237d093a81657dc57de1a5d",
    "verify --n 7": "737a1c08bdbd200520249c460b346abacf25a5d243881b549e55c32109330506",
    "quiver --n 5 --format dot": "0d58910af3b7a2293594c533756d34104054b932683808bbbb66ad200d7a3197",
    "oracle --n 2 --epsilon 3/13": "447b847ec041132d7d8543d9ac7c31b513161d6073fa36a423beb0728220524b",
    "oracle --n 2 --epsilon 1/1000": "0fcc313413c1dd7ad9de3c0cc4c4e38982cad8b845106dcd26402bae162ea18d",
    "quiver --n 6": "8fcc52ada3aa294414bcc85bb6d4ec4ff39c894c028f85e18086fba62df029b0",
    "verify --n 8": "b02374ca756aa4850a8447aa3700f4df8767bf097277701e127dd659086aba7b",
    "geometry --n 2 --format text": "f41ba6c1b4fb8e1074bf104e573f7a822dc78a3e0663301a35c696f8617bb6bc",
    "branes --n 1 --format text": "6c73883933027e5c1dd7c973de8268c9495a1e155d297cca9dada0fd7313f228",
    "verify --n 2 --format text": "c5d4de1844f4202b6cf92c88e959e17a365d5eb71a8e7198287323d9a117e4a4",
    "oracle --n 1 --format text": "5ceb8864df704e158e8a6f019670c058439b5e08f1635ba8744f97ae8f211998",
}

# The same hashes under TDUAL_SEED=7: the seeded samples at a seed other than 0.
GOLDEN_SEED_7 = {
    "branes --n 2": "ddbd8f78c2f871ffa3bec45d3cdc047b272f04fabda4f9bd02093503384d51db",
    "geometry --n 2": "5973393a3c4b141dc72f673cf6492d3118fb1579b55dcc571516da57ecdabdf8",
    "geometry --n 3": "b8fae884198aeb38ba2e10b4a35ff4716a098e81e47168e41580fe7d65cccfbe",
    "branes --n 4 --grid 10": "c152b5fd1479a44cdd5a536ff48ac1100fe13f3674b5d6f122ffb0f9d0ab66e7",
}

# Runs that exit 1, a failed check with its whole report: from n = 20 the
# moment grid is empty, so the round trip fails while the other three checks pass.
GOLDEN_FAILING = {
    "geometry --n 20": "5905808452e29679e9451983df8bb435c592b1737cea22797e08cf6ae7a57f54",
}

# SHA-256 of the file that `quiver --n 2 --out FILE` writes (the export alone).
GOLDEN_OUT_FILE = "7ff74e95b0fb2351d924dea4e2899749930d514e251e4a2b3536ef4d90a2a0b1"

# The same for `quiver --n 4 --out FILE`, whose (2, 2) blocks hold 225 pairs,
# more than one piece of cells.PIECE_ITEMS compositions.
GOLDEN_OUT_FILE_N4 = "37cc0265035aabcb887d1f46f2bba4db359699880870d1f55cf681ec9369b788"

# SHA-256 of the file and of stdout (the line "pass -> report") when a check
# command writes its report to --out report, run from the file's directory.
GOLDEN_REPORT_FILE = {
    "verify --n 2 --out report": (
        "dcd34779066f6ee199b186a3fdb1b6346632e8afd96fc17e3b6e2ee2f8a31e97",
        "542939837e123b68b03f0969d9461e08e7edd3777ce6d99d9a3279e03fbc5767",
    ),
    "oracle --n 1 --format text --out report": (
        "5ceb8864df704e158e8a6f019670c058439b5e08f1635ba8744f97ae8f211998",
        "542939837e123b68b03f0969d9461e08e7edd3777ce6d99d9a3279e03fbc5767",
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_matches_golden_hash(command, monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", "0")
    rc = cli.main(command.split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", list(GOLDEN_SEED_7))
def test_report_matches_golden_hash_at_seed_7(command, monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", "7")
    rc = cli.main(command.split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SEED_7[command]


@pytest.mark.parametrize("command", list(GOLDEN_FAILING))
def test_failing_report_matches_golden_hash(command, monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", "0")
    rc = cli.main(command.split())
    out = capsys.readouterr().out
    assert rc == 1
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FAILING[command]


def test_quiver_out_file_matches_golden_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", "0")
    out_file = tmp_path / "quiver.json"
    assert cli.main(["quiver", "--n", "2", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == GOLDEN_OUT_FILE


def test_quiver_n4_out_file_matches_golden_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", "0")
    out_file = tmp_path / "quiver.json"
    assert cli.main(["quiver", "--n", "4", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == GOLDEN_OUT_FILE_N4


@pytest.mark.parametrize("command", list(GOLDEN_REPORT_FILE))
def test_report_out_file_matches_golden_hash(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", "0")
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    digests = (hashlib.sha256((tmp_path / "report").read_bytes()).hexdigest(), hashlib.sha256(out.encode()).hexdigest())
    assert digests == GOLDEN_REPORT_FILE[command]
