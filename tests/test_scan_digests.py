"""Byte-exact ``unichain scan --format structured`` output on L_3 and L_4.

Every (e1, e2) in 0..n, the equal-neutral and boundary cases included, is
pinned by the SHA-256 of the document the CLI writes: hit order, tables,
necessity reports and decompositions all land in those bytes.
"""

import hashlib

import pytest

from unichain.cli import main

# (n, e1, e2) -> SHA-256 of the structured scan document
SCAN_DIGESTS = {
    (3, 0, 0): "d84f6ccb14b3ec9c7bc3f4230df011b9134ae87f80d4d0c7e15ed1e4d9574d02",
    (3, 0, 1): "8afa6f6f8a1dda115efec22c46bc632474a5d419c7c58fa42f317f4eacbc476c",
    (3, 0, 2): "4af20ce426fe0e419d6718f662b93ec87a612febf64736e17c3a48fdf2903d92",
    (3, 0, 3): "abe504af101038fb0ed65028eed09800e39b1b51e0f9afb07a217f2b583c35ce",
    (3, 1, 0): "804881e8f5c1137d3796473da3236b1b8fc3fc6f15f94bf5da32a360725c7a30",
    (3, 1, 1): "92ffa49d3ecc82379321420d8607d074f27f9cf6317a03ea983b5f700702aeb1",
    (3, 1, 2): "6944a150ed7fd0e11c95f78b898b40cabd905fe80e9860fe472299d4d18e9ad8",
    (3, 1, 3): "87eae93fe26a6c730d6ca728f9e0a8845dda4a94d03f355fa283c04dae26c775",
    (3, 2, 0): "9900b38ede956c2057f610b6e12dc701a7504fc77dcf0276830000f2bdfd922e",
    (3, 2, 1): "6c6c2c8c1baa7cf4edb71b72743855a92345f1e11178c34bbcee251749b0cdf1",
    (3, 2, 2): "6e0bd1aee9cc7e302b1be99473d59c4fb0c70aa7c373213210b57ff926aa109e",
    (3, 2, 3): "9b0ad66df55a4e1c6b9afda452e1ca08a40e41fe7d5b93b36d92c01ca0d1d0b6",
    (3, 3, 0): "3d6ec5d65297ee8abc9299c7ac98cad11a02800d11daf37962b2cf2983eccabb",
    (3, 3, 1): "fe857be32cc319397209cd4aa16db300a881bcb9483122bc541dc2cd87333423",
    (3, 3, 2): "e312abfb2e611d88a69e2cb69a74b9302975a301406c549a472fa3a577804d87",
    (3, 3, 3): "f6a2f379d43acfd764ede9e96279ba1eee064ec0d650e3abc2f08f608397f28b",
    (4, 0, 0): "38af5b14c8678d939e48401db83f8e6a292ef749921b3b539322b3d7f0518c29",
    (4, 0, 1): "72e415fdbb2fb2c422e238531a4538c5a035266e5ed5c8c61b17a528199d1c88",
    (4, 0, 2): "9b60dc85c784d789b80e682dce5fa69294505db388f720fbf8d2e73084cca8ad",
    (4, 0, 3): "92d8d1296374cf9bb2645ec9a47a9b086b6af40eef2de07a0d375447baa7963d",
    (4, 0, 4): "c5ffae802373af1b41e5a3950297549f2fa72029f812a7f2f9a7dd886b21909a",
    (4, 1, 0): "df60a84c05f97dfb31e9c294d6b2eeef2858821b15cc70ce68565d944b8a002e",
    (4, 1, 1): "fcf6c85801c1d594131edaf73aba139b8295c0199d319469426051c6a53beb6a",
    (4, 1, 2): "165995f60ce6ba45be84a06be1dbcddfea604542bcf280b614d1161ae7fea8ac",
    (4, 1, 3): "ed6dd1a4c6b4bca52885662ab3acdcb095c8da41a10bca4d6b747ff50075f9c9",
    (4, 1, 4): "6c88753a53522edf73766c5ab61c5581f475d7c8de93ed36d1df76eaaf9dd0cf",
    (4, 2, 0): "9e4b8ba11f40a8124f4bcdc8ccbb3735a050c37547366f2c1282a6df7556db02",
    (4, 2, 1): "885245a0fb75f14d434b13f9d8ddc94c08bfb2df3ad62364d8ff6e27aee97c3e",
    (4, 2, 2): "a7ee8c9a7fd6b4c6b5bc465fee8db79f8749ef5dac0b7e7fb8e9c9397f9a9c50",
    (4, 2, 3): "8eb3baeed7109f6a920070879d5654fa59de4df8ce1efb81e2c7fa5d1c251337",
    (4, 2, 4): "91173e0eaceb7d00280cd7e568375434314fb0cd8cecc4f6b98e91cfbcd77473",
    (4, 3, 0): "a6dcba19d797b13d7c27252fc594e65b59bc96f234264aed0c27d16fc623c5f7",
    (4, 3, 1): "548b2987d1ec3ed3e8cd8e9bcdc29a231b91c9c90072ddf12e050b9711960177",
    (4, 3, 2): "9a2eadc693e62175e13a9900657ec3f1921d9e0d5c41aadac195eae4066a0881",
    (4, 3, 3): "819d7b2c9da6f09adfbdde327f65b9e768d48e6b7e165ae8c5da8939373d0694",
    (4, 3, 4): "bf671e6bf772f17e0cbfb1b53f1698ecbdf3e5261f6ac294e34f61acb66bc2b3",
    (4, 4, 0): "eb2e77db40d633f8c7c84fbf25e3b06d5bfe23062e0451a51f42e075a623c0a4",
    (4, 4, 1): "5569149d5e090652e8a71fc31041e66435d6ac869880ddbdf9bb51d3dbc32e23",
    (4, 4, 2): "4aedf7f15888046e94448ca3c4444a33bf0795ec079260a769f124e9b8391201",
    (4, 4, 3): "a4dab6a35f1cee2e296752334817f449087a84dd5a08c81822a2a96bf9677430",
    (4, 4, 4): "b4ffbadd58e67e76156c4136443ccab06afea6382f2ebed8851b53433cc8376b",
}


@pytest.mark.parametrize("n,e1,e2", sorted(SCAN_DIGESTS))
def test_structured_scan_bytes_match_the_digest(tmp_path, capsys, n, e1, e2):
    path = tmp_path / "scan.json"
    argv = ["scan", "--n", str(n), "--e1", str(e1), "--e2", str(e2), "--format", "structured",
            "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCAN_DIGESTS[n, e1, e2]
