"""Byte-exact text output of every command that prints a report.

Each call is pinned by its exit status and the SHA-256 of what it writes to
stdout in the text format: ``validate``, ``classify``, ``check``,
``decompose`` and ``compose`` on a few operands, ``enumerate`` for every
neutral element of L_4, ``scan`` for every (e1, e2) on L_4, and ``certify``
on L_3 less its ``wall time:`` line.
"""

import hashlib

import pytest

from unichain.cli import main

# a symmetric table with neutral 1 that fails more than one law at more than one point
BROKEN = "scale 3\nneutral 1\n0 0 0 0\n0 1 2 3\n0 2 1 3\n0 3 3 2\n"

COMMANDS = {
    "validate-valid": ["validate", "--table", "idemmin(e=2,n=4)"],
    "validate-broken": ["validate", "--table", "{broken}"],
    "validate-broken-verbose": ["validate", "--table", "{broken}", "--verbose"],
    "classify-tnorm": ["classify", "--table", "luk-tnorm(n=4)"],
    "classify-proper": ["classify", "--table", "idemmin(e=2,n=4)"],
    "check-agreeing": ["check", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=1,n=4)"],
    "check-failing-verbose": ["check", "--u1", "luk-upper(e=2,n=4)", "--u2", "luk-upper(e=2,n=4)",
                              "--verbose"],
    "decompose": ["decompose", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=1,n=4)"],
    "compose": ["compose", "--decomposition", "{decomposition}"],
    **{f"enumerate-e{e}": ["enumerate", "--n", "4", "--e", str(e)] for e in range(5)},
    **{f"scan-e{e1}-e{e2}": ["scan", "--n", "4", "--e1", str(e1), "--e2", str(e2)]
       for e1 in range(5) for e2 in range(5)},
    "certify": ["certify", "--n", "3"],
}

# name -> (exit status, SHA-256 of the text stdout)
TEXT_DIGESTS = {
    "validate-valid": (0, "46e20b4dc8cbe00fc6a39c1308bb340d6a1f776856914d5e854968ab70e6d5d2"),
    "validate-broken": (1, "3c690c7b7b19d7adfa24eada57ae4e07b97786081cd61f47f84b6e9689a05b0f"),
    "validate-broken-verbose": (1, "4dacb7d9887eb9f3c1a7b26ff85f0ce839ce7d59ae4e00c150cdcfb4bb5a70cc"),
    "classify-tnorm": (0, "3c9834bd54b246985156f99b20dcc7aefaa24ed099626f1a98724677cde637b3"),
    "classify-proper": (0, "8bc5f0604b3893d8486961d181880edb4fc0198388acbf998038329e41dc88be"),
    "check-agreeing": (0, "00a2ab9e1f0a17177196b902c97400ca94c49dbf1170b286516e3572ae16619d"),
    "check-failing-verbose": (1, "63787826340ec25e580a05b277445cd55ff16f4246e0e1794a37dff3a5ad6a0c"),
    "decompose": (0, "d3f392e6859d2b1ad1b0425676a5e222b056b25d45a51f1510fcd6b439e504df"),
    "compose": (0, "3d961b028786acfc2f9cedc02acdd0fd9df107da4dd692d2e5123d27bebfb32c"),
    "enumerate-e0": (0, "a0fe31f139a2385c72b7dc1433fc19d90a0fafee476acc70d5a187ecba927991"),
    "enumerate-e1": (0, "c76cf54e53c722acf9c8429528e23350fa5cf5cfb95b9abf37a50e3dc10b6ef8"),
    "enumerate-e2": (0, "6fa37af22b15a32614a72c2678bcb65e9e07afa119c4ecb34bb378f0f2f72852"),
    "enumerate-e3": (0, "1c0ed40a3d15d0ae5cef1a1be9fda13e8b8f9a5e2da991a7b7b5fe45296e8b4d"),
    "enumerate-e4": (0, "b0196d449960d60a28c877d82f263de00f3ac53170c4c40d78591bc38f2b93f2"),
    "scan-e0-e0": (0, "4b118264c0193432db97d8a88a6514861615b33436ec992e14f44dfc9cc6c9ff"),
    "scan-e0-e1": (0, "d8484a4e3714a65496e106078cd7b6ecbf79b4fe690a5ae6aa8ff751c6857b38"),
    "scan-e0-e2": (0, "1743b07a3d7c5a48424aa6cc3152a13ba236ff13d38e9e45cf03c921fef3b73d"),
    "scan-e0-e3": (0, "2b56891374e660aa639891c37e1845a7a9fb274c74766b127d53eecf6f9d223a"),
    "scan-e0-e4": (0, "6ccf73d4e89863458fc64236d8936aed77aa4d0919cdc8ab0cbd4b24e559f6f5"),
    "scan-e1-e0": (0, "1a55253681e38f6a153e9a8e4f6bfd61e4d08a18fdde227eff13ecf5848f0fc9"),
    "scan-e1-e1": (0, "922a2af47891bd0c7563aa911542e61d7b973311479dec50edcdb9bf68434c02"),
    "scan-e1-e2": (0, "e7c4d8b08208c30d90fbacaff1bcbc927c6af854ab9431c2485f5e8006b81bab"),
    "scan-e1-e3": (0, "2eeb7f6ed0fa1921bc99b9386a56116373ac3ccc0aee1e069a1e085667554154"),
    "scan-e1-e4": (0, "6a25272997b690fb7642af1bc9be483236490f66e6e7d2211cc2a9ba94af1c0f"),
    "scan-e2-e0": (0, "afda0bccb73a220783dc2565d205528f5dbfaecca6c9a19b5947bf649b35c43d"),
    "scan-e2-e1": (0, "0154b2906663039bf75befba3ef6ab49bdeee2d6a884075d2dd55d03845cb58a"),
    "scan-e2-e2": (0, "3f54e6f129b5a1a42fbb12cdd0c575eebc1570f9e01b1e9253899718cfc3ae27"),
    "scan-e2-e3": (0, "d836925d072dcc1a30c0890ae4953f3ba5cd91b8e8667c36f017d8af87f3aff9"),
    "scan-e2-e4": (0, "d173b48920c654383dcd3da99446324a56ff087d1b38fb12c324fd4729dc2e8b"),
    "scan-e3-e0": (0, "fbb0d9e90d44017dbca4b920116d24042efed611b9f45b7425703e4dc09c0ff5"),
    "scan-e3-e1": (0, "3e0df8d2390004c25fd9aab0be9ea854f6108d3fcccbc65fbe941777dc666af0"),
    "scan-e3-e2": (0, "c978572a88097569d1e0b551f5bf0b7ad648ecbefeb9493bc8c91e9750e5d616"),
    "scan-e3-e3": (0, "73887a106c7eb75b637c45901b816eb26b66aad3f974e0e76e7d204ca155a039"),
    "scan-e3-e4": (0, "d43c6902c8cf54873b4d517feb40ef35248eb3bdaa1855f4f955cf16afaf7f38"),
    "scan-e4-e0": (0, "c95c6b067f3a83e96372a54c06633e1ee1b8bea425f060e479420d32dcb441de"),
    "scan-e4-e1": (0, "94e1b162035de6767dad90030639e738a710041aa5ac7a0d7fc0b5044ad11e1b"),
    "scan-e4-e2": (0, "fb87ee656f4d0f7449d57ebc4e064220d8840256d99a147af88cab4e911931b1"),
    "scan-e4-e3": (0, "d4dc8c0f9feb6728ce725f5f4061b760b2e0279fe2cca8405fdf4850ecdcbc11"),
    "scan-e4-e4": (0, "b11e3493aad5078f19a6487d44ffae8d2b8af46fc47666fed1a40978ef6fb0c3"),
    "certify": (0, "16a4d5bb8b5cbccf6eb2be38d5a871f3843b03b3ccb14968cbf97860f98a2644"),
}


def text_of(capsys, tmp_path, name):
    broken = tmp_path / "broken.tbl"
    broken.write_text(BROKEN)
    decomposition = tmp_path / "d.txt"
    assert main([*COMMANDS["decompose"], "--out", str(decomposition)]) == 0
    capsys.readouterr()
    argv = [arg.format(broken=broken, decomposition=decomposition) for arg in COMMANDS[name]]
    code = main(argv)
    out = capsys.readouterr().out
    if name == "certify":
        out = "".join(line for line in out.splitlines(keepends=True)
                      if not line.startswith("wall time:"))
    return code, out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_text_bytes_match_the_digest(capsys, tmp_path, name):
    code, out = text_of(capsys, tmp_path, name)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TEXT_DIGESTS[name]


def test_the_digests_cover_each_command_once():
    assert TEXT_DIGESTS.keys() == COMMANDS.keys()
