"""Every decomposition ``scan`` emits on L_3, L_4 and L_5, through the text
format and back into ``compose``.

Per proper unequal-neutral block (n, e1, e2), the pin holds the number of
decompositions that compose, the number of composed pairs identical to the
scanned pair, and the SHA-256 of the composed rows in hit order.  compose
fills u1's free corner canonically, so a composed pair can differ from the
scanned one and still be distributive.
"""

import hashlib

import pytest

from unichain import ChainScale, compose
from unichain.errors import CompositionInvalid
from unichain.formats import dump_decomposition, parse_decomposition
from unichain.search import scan_pairs

# (n, e1, e2) -> (composed, identical to the scanned pair, SHA-256 of the composed rows)
ROUND_TRIP_PINS = {
    (3, 1, 2): (4, 4, "e1d929d2ea4db22e617196b3f7d2226f40d924db7a39a66b207ceb971ea3f8e6"),
    (3, 2, 1): (4, 4, "549fbd9f49edfb1b993822f5e7276f47e7ef00388b37a021a62c67a9883eec51"),
    (4, 1, 2): (9, 5, "2ba22ace03eeb1e588c7d2515e70503bb4d5407a2e57af1e47a8531ffa1c62c9"),
    (4, 1, 3): (12, 12, "65229f26ae27f3771b1aabd35c780083500c81b6c7de150972b9d90a165da569"),
    (4, 2, 1): (15, 15, "e9c5ada97bd59f366db65e7a0297330e306c135cc7b73e53e162af483b210420"),
    (4, 2, 3): (15, 15, "69e1ab6177130a4caca82ee3cfa58042687f5984e3a6ab9e59975a913db7df59"),
    (4, 3, 1): (12, 12, "f94f87ab1188447e0410e20f213f943b47c1ba3e9ac7c107954a9fc07af3ece9"),
    (4, 3, 2): (9, 5, "a03a7ded32d1eee48d008dfff33c9d2593f6145b44515ae4466c990e1d08765b"),
    (5, 1, 2): (28, 6, "184acc4324acdf39a669584a6fe384da6d59e127238fab37b672f0a9872be13c"),
    (5, 1, 3): (26, 14, "6f5e2b42a5f4c193b685ab37dd5430101334e90d2a39f8486c126239a894afe1"),
    (5, 1, 4): (48, 48, "0dd902ff386d5bc021b56f9cc90f653fd741e8c3afe46eb2595c06d596b22aed"),
    (5, 2, 1): (67, 67, "65b561dab0ead6020349ed9b335af542880afed1885965261e13d2a3ab5f96e5"),
    (5, 2, 3): (36, 21, "3e9edc458fbacc08fc6f76176dd7a6f1da4dc7583baee8945cd3c5c8ff1a66d8"),
    (5, 2, 4): (56, 56, "534cf95ffa63ebee5c8b4814617b8324158357fa6dbd384e9842477406102217"),
    (5, 3, 1): (56, 56, "57f7ce02459f9793248a28bc0df0ab56fc7bebc5db248200653d0455fd5078ac"),
    (5, 3, 2): (36, 21, "bcd3d4562e134fb797d9f71f242fbe4814f678d4020c41b1699370ad5d865467"),
    (5, 3, 4): (67, 67, "642647fcfacf7d80ce3dd8ecabdaff10764eb46980f80493a22e10770f808529"),
    (5, 4, 1): (48, 48, "c54c6360fa8c68d8ae3f9db6985780497a3019a14e74fa1c5bdf85a1fb1c90c3"),
    (5, 4, 2): (26, 14, "8dc5c8a4ddb06cec3fd57adf38d70050189e0155cbe146bf33aa5b377555497f"),
    (5, 4, 3): (28, 6, "c06497280f4db01198ada84b0f6ee2083590604d375561445b4a9073c577a223"),
}


def _rows_line(u1, u2) -> str:
    """Rows as space-separated cells, ";" between rows, "|" between u1 and u2."""
    return "|".join(";".join(" ".join(map(str, row)) for row in u.rows) for u in (u1, u2)) + "\n"


@pytest.mark.parametrize("n,e1,e2", sorted(ROUND_TRIP_PINS))
def test_scanned_decompositions_compose_as_pinned(n, e1, e2):
    scale, digest = ChainScale(n), hashlib.sha256()
    composed = identical = 0
    for hit in scan_pairs(scale, e1, e2):
        if hit.decomposition is None:
            continue
        text = dump_decomposition(hit.decomposition, scale, e1, e2)
        try:
            c1, c2 = compose(*parse_decomposition(text))
        except CompositionInvalid:
            continue
        composed += 1
        identical += (c1.rows, c2.rows) == (hit.u1.rows, hit.u2.rows)
        digest.update(_rows_line(c1, c2).encode())
    assert (composed, identical, digest.hexdigest()) == ROUND_TRIP_PINS[n, e1, e2]


def test_l5_totals():
    pins = [pin for (n, _, _), pin in ROUND_TRIP_PINS.items() if n == 5]
    assert len(pins) == 12
    assert (sum(p[0] for p in pins), sum(p[1] for p in pins)) == (522, 424)
