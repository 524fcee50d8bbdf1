"""Golden byte-identity of ``repro serve`` outputs.

The hashes below pin the final state file, the WAL and the telemetry
JSONL of four fixed-seed runs.  Any drift in a decision, a verdict, a
candidate score or a journaled record changes at least one of them —
drift the live-vs-recovered parity tests cannot see, because both sides
of those comparisons run the same code.  The four runs cover first-fit
and GRAND, with and without the elastic pool, at a capacity where the
``d`` cap binds with exact-capacity ties (28: eight VMs need exactly 28)
and one where the Eq. (17) reservation binds first (21).

If a change is *meant* to alter service output, re-record the hashes with
the same command lines and say so in the change description.
"""

import argparse
import hashlib

import pytest

from repro.service.cli import add_serve_parser, run_serve

COMMON = ["--arrivals", "300", "--rate", "8", "--pms", "12", "--seed", "5",
          "--recalibrate-every", "7", "--checkpoint-every", "64",
          "--wal", "wal.jsonl", "--jsonl", "events.jsonl",
          "--state-out", "state.json"]

#: (extra flags) -> sha256 of (state.json, wal.jsonl, events.jsonl)
GOLDEN = {
    ("--placer", "queue", "--capacity", "28"): (
        "8d376a64c6dc4e4119ed2b5c9e40389039cc05021579658ab5cf1cccf19a39de",
        "64159a30ba04008dbd17b469de96934a560390df576ad3837e8f4b86291d37ab",
        "f12b88598b2c29100ddd3c60ff7cacb131c6268d93829cd7b77153bd51e6a539"),
    ("--placer", "queue", "--elastic", "--capacity", "21"): (
        "03c3a6a8c74c5a1110fc3a1808a77ce1597f6305517fb6645aade26456352a4d",
        "ec2bc9d8ec21389f3ad1e74b5939448910fddde316c75ae1093081ccf1b2df0e",
        "9cfbc36282e109be50cc01341b6681e75ec98a1997d36cc5f39efbee35656af5"),
    ("--placer", "grand", "--capacity", "21"): (
        "b47c85b7a1e798a64c84b4dba77fb0a3a273ee9f0a984bace5258250c085fc5a",
        "6e912674bfd44e6e6880362783e4fadad0201d0ddd0b7342ede6a25e57f08619",
        "b6986a308ecdac92f51607063206339110c5eafc23c6d382986f0f245616c117"),
    ("--placer", "grand", "--elastic", "--capacity", "28"): (
        "f0cdc677a0a4a3fcaa46b44e10c5b1d0c4a15f3799722352c786679f231590b2",
        "317e8f55e23637536e06631540d24b45604ab65c362c0c970b871bb5186143f6",
        "2e44be93a0fcad48bdab974be5e87c82daaff12973b3c28d542c79185c3dd9e4"),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("flags", list(GOLDEN), ids=" ".join)
def test_serve_outputs_are_byte_identical(flags, tmp_path, monkeypatch,
                                          capsys):
    # Relative paths: the wal_replayed event records the WAL path verbatim.
    monkeypatch.chdir(tmp_path)
    parser = argparse.ArgumentParser()
    add_serve_parser(parser.add_subparsers(dest="command"))
    assert run_serve(parser.parse_args(["serve", *COMMON, *flags])) == 0
    capsys.readouterr()
    got = tuple(_sha(tmp_path / name)
                for name in ("state.json", "wal.jsonl", "events.jsonl"))
    assert got == GOLDEN[flags]
