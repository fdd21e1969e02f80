"""A pinned corpus of catalog outcomes.

Every outcome of ``make`` and ``from_string`` over a fixed grid of inputs is
reduced to one SHA-256 digest per group.  An outcome is the table's rows and
neutral element, or the exception's type, message and caret position, so a
rewrite of the catalog must keep every table, every error and every caret
where it was.
"""

import hashlib

import pytest

from unichain import ChainScale, FamilySpec, from_string, make
from unichain.errors import SpecSyntaxError

TNORMS = ("min", "lukasiewicz-tnorm", "drastic-tnorm")
TCONORMS = ("max", "lukasiewicz-tconorm", "drastic-tconorm")
PROPER = ("umin-idempotent", "umax-idempotent", "umin-of", "umax-of")
MAKE_FAMILIES = TNORMS + TCONORMS + PROPER + ("product",)

TOP_LEVEL_NAMES = (
    "min", "max", "luk-tnorm", "lukasiewicz-tnorm", "luk-tconorm", "lukasiewicz-tconorm",
    "drastic-tnorm", "drastic-tconorm", "idemmin", "umin-idempotent", "idemmax",
    "umax-idempotent", "umin", "umin-of", "umax", "umax-of", "luk-upper",
    "luk", "lukasiewicz", "drastic", "product", "LUK_TNORM", "IdemMin",
)
ARGUMENT_SHAPES = (
    "", "()", "(n=3)", "(n=1)", "(n=0)", "(e=2)", "(n=4,e=2)", "(e=1, n=3)", "(e=1,n=5)",
    "(n=4,e=0)",
    "(n=4,e=4)", "(n=4,e=5)", "(n=4,q=1)", "(n=4,e=x)", "(n=4,e=2", "(n=3) x",
    "(T=min,S=max,e=2,n=4)", "(T=luk,S=drastic,e=1,n=3)", "(n=4,e=2,T=drastic)",
    "(T=luk(n=2),S=max(n=2),e=2,n=4)", "(T=min(e=1),S=max,e=1,n=3)",
    "(T=umin(T=min,S=max,e=1,n=2),S=max,e=2,n=4)", "(T=min(n=3),S=max,e=2,n=4)",
)
SLOT_NAMES = (
    "min", "max", "luk", "lukasiewicz", "drastic", "luk-tnorm", "lukasiewicz-tnorm",
    "luk-tconorm", "lukasiewicz-tconorm", "drastic-tnorm", "drastic-tconorm", "idemmin",
    "umin-idempotent", "idemmax", "umax-idempotent", "umin", "umin-of", "umax", "umax-of",
    "luk-upper", "product", "LUK", "Drastic_TNorm",
)


def outcome(build):
    try:
        u = build()
    except Exception as exc:  # every exception is part of the pinned outcome
        pos = exc.pos if isinstance(exc, SpecSyntaxError) else None
        return f"{type(exc).__name__}|{exc}|{pos}"
    return f"{u.rows}|{u.e}"


def digest(outcomes):
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


def sub_variants(n, e):
    """(t, s) arguments for ``make`` on L_n with neutral e: none, every
    t-norm/t-conorm pair on the two sub-chains, and some that do not fit."""
    variants = [(None, None)]
    if 0 < e < n:
        ts = [make(FamilySpec(f, ChainScale(e), e)) for f in TNORMS]
        ss = [make(FamilySpec(f, ChainScale(n - e), 0)) for f in TCONORMS]
        variants += [(t, s) for t in ts for s in ss]
        variants += [(ts[0], None), (None, ss[0]), (ss[0], ts[0]), (ts[0], ts[0]),
                     (make(FamilySpec("min", ChainScale(e + 1), e + 1)), ss[0])]
    return variants


def make_outcomes(family):
    return [
        outcome(lambda: make(FamilySpec(family, ChainScale(n), e, t=t, s=s)))
        for n in range(1, 8)
        for e in range(-1, n + 2)
        for t, s in sub_variants(n, e)
    ]


MAKE_DIGESTS = {
    "min": "7345ce2b4725401296222c85f668118c7a6b2309f6ec1ffb8a527219d27495f4",
    "lukasiewicz-tnorm": "5e50254bc29484eb8974c18e0a5b76d7149c7019b8a21dc1951a7b60479c6f6e",
    "drastic-tnorm": "72468fdcbbc5bfcc954c374a5b1cfd3a0b0c3d6edd681890824c942150f18ef3",
    "max": "25f43fe6696cffb8a9fd343883b5892701b5f418c80f4a7a2651fd9dbf98c287",
    "lukasiewicz-tconorm": "199e596bbccff85ac8f666821d4f1da6cd6afdcba90914b28170a5aa551c6c73",
    "drastic-tconorm": "ddf13e907c3c5707a99a0cd2a281c536a06ef0c328919121e852c8a0e21e20f9",
    "umin-idempotent": "3468e6d982fb48e9c1895e6f0ff9ebd723c7a4238d4dfb901c868fab234e5c7f",
    "umax-idempotent": "805445660a616c176c0e6db20aee3260263ae0f41632093aab2c758e59d545e1",
    "umin-of": "ec91f0edaa9156e2cc3ecd4bad516654811479dc33bae189f825e57ea8405635",
    "umax-of": "2fa071f1fc239e02561157dfdc4c2ad0b87dace1362274cbcddab577887bb49a",
    "product": "22493e0b19789488a209c35b1a22a0a5be66434539e0c25072b133173f12047f",
}

SPEC_DIGESTS = {
    "min": "08c9d63f6ca04512453c0d11006ff41f5c74c442d48dbcad2ba72cc0a5e5c712",
    "max": "57d9198e8b8687b03fb9b2b821f234f880f4f7a44417951023624110f86d3c2e",
    "luk-tnorm": "848d2094028ffc6879ca7e1914fd7ea76ec08a4b0a2f309e662f03386ce40026",
    "lukasiewicz-tnorm": "d9748d2a98ee221e81ebc28624bbbcb17c69fef9998f51ec80dcc3d2fe73cccf",
    "luk-tconorm": "a21d2784842f36a503e2457179f6e66a8ba637c3afca96cb97bbe023d1e790d8",
    "lukasiewicz-tconorm": "b0e7af4cac5d220160e8684f474f998b3f38b5309e23f5b0e79c59af0eff517e",
    "drastic-tnorm": "303bf877d396c05060cf7e2e42e97e8676f5c608705f3607d366afc22f73635b",
    "drastic-tconorm": "1f18c80970b915b59e4a0431c7abfcc15422d543f8da4a6bc54d7a1eae498e74",
    "idemmin": "b3304d7901f06f9dba90e95165d7ff8a899e479a85f25ba63f439cef220e68dc",
    "umin-idempotent": "d93baffb27a854d4adea8c1685d77e9d6d5b927618d94fafb9cf60b057f1bcef",
    "idemmax": "fbc5661183beb559710d9d15a79ad4b3f6276d3f93ee7fac34d31224d66d1898",
    "umax-idempotent": "82999917de61913c355cba34c2bfcfda8e28357105030fea2061ca03212d7d08",
    "umin": "c36041146a29469e3dd9b9c2fecca6141c6fcaa83748955728a7ff1c1b801c63",
    "umin-of": "ef936c9ae1992978315bc41e74575389b6bc2be69719ac3209bc4d193df71c0b",
    "umax": "619e0cfaf5d38b33ff8e18de638914f18b7e7ca16e8d71e329324f7af144f536",
    "umax-of": "ad9f704459356c5e90e3f59222f9bbb8a10501f84243b23b9ab49c15bfd23648",
    "luk-upper": "eb9bffbe389f2b5fb545a9a517856a61833bbd31df1720050768cb35b611472c",
    "luk": "4583b03c78103693e8cbf70fca08296445d4144f4af00d3a61a27aaf6cdefd9d",
    "lukasiewicz": "ecca007a3d16e933037a0decb44b514149dac274941010a769d470f78d43767f",
    "drastic": "e7b2214647ded5159639bbfd5c071bcad5d3095e9326209ab3d7dc3e86d62ff9",
    "product": "a9a18df6ec035c3205d92e9767afc7947658404b36a5a0259b9524ce36b01903",
    "LUK_TNORM": "848d2094028ffc6879ca7e1914fd7ea76ec08a4b0a2f309e662f03386ce40026",
    "IdemMin": "b3304d7901f06f9dba90e95165d7ff8a899e479a85f25ba63f439cef220e68dc",
}

SLOT_DIGESTS = {
    "umin": "b11043c3b7d35b7ee535c93ec1ac3afdb1f87200bc80dd9c282325d0627008a7",
    "umax": "20c3cba50da0fb374ea8110bc0346f7d844fe02cc4010a6d9f656ac772497e91",
}


@pytest.mark.parametrize("family", MAKE_FAMILIES)
def test_make_outcomes_are_pinned(family):
    assert digest(make_outcomes(family)) == MAKE_DIGESTS[family]


@pytest.mark.parametrize("name", TOP_LEVEL_NAMES)
def test_spec_outcomes_are_pinned(name):
    outcomes = [outcome(lambda: from_string(name + shape)) for shape in ARGUMENT_SHAPES]
    assert digest(outcomes) == SPEC_DIGESTS[name]


@pytest.mark.parametrize("compositor", ("umin", "umax"))
def test_slot_name_outcomes_are_pinned(compositor):
    outcomes = [outcome(lambda: from_string(f"{compositor}(T={t},S={s},e=3,n=6)"))
                for t in SLOT_NAMES for s in SLOT_NAMES]
    assert digest(outcomes) == SLOT_DIGESTS[compositor]
