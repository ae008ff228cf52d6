"""The numeric results of the benchmark's library sessions, pinned to the bit.

Each call of the four full ``numeric`` sessions of bench/run.py and of
its tiny deck, run through the library, against the (mantissa, exponent)
of each value it returns, in mpmath's normalised form (an odd mantissa).
The pins were taken from the tree before the quadrature and the series
sum were rounded in integers, when mpmath rounded them, and hold
unchanged since.  A pin records today's bits; it does not vouch for
them: the accuracy of each value is the business of test_asymptotic.
"""

import pytest

from stirlingexp import asymptotic

# call -> (mantissa, exponent) of each result: the ratio of a quadrature,
# the ratio and the series sum of a series-vs-quadrature comparison
# ("evq"), and the approximation, the relative error and the scaled
# error of an approximation of n!
PINNED = {
    ("quadrature", 1, 128): ((0x3b044af1e8e00e7cd229f2b1087b4ebd, -126),),
    ("quadrature", 2, 128): ((0xf5a1ef414370870ba4e07adffcb14f05, -128),),
    ("quadrature", 3, 128): ((0x7c817c6949375a6fbfb77573f156e567, -127),),
    ("quadrature", 4, 128): ((0x3eaee1d96f88a29966a78feb2f3b77d7, -126),),
    ("quadrature", 5, 128): ((0x7de319cdd43ef1b67a3a6386c5833695, -127),),
    ("quadrature", 6, 128): ((0xfc78e4f200703c7f9c3152d55523f203, -128),),
    ("quadrature", 7, 128): ((0xfcf8f4e32c33ea513b4e1c2276751265, -128),),
    ("quadrature", 8, 128): ((0xfd593a15c1a613eb46b0a70defcc60cd, -128),),
    ("quadrature", 9, 128): ((0x7ed21dbfc20b972a8a51f2c71e75267d, -127),),
    ("quadrature", 10, 128): ((0x7ef028709a28f1151831143132c6490d, -127),),
    ("quadrature", 11, 128): ((0xfe1186c5f1e11dc9e132e20705aa593f, -128),),
    ("quadrature", 12, 128): ((0x7f1d48f26ee1435df91d48d6bbe9209f, -127),),
    ("quadrature", 13, 128): ((0xfe5d52bfc1815311a84a33190de442e3, -128),),
    ("quadrature", 14, 128): ((0xfe7b211aa41ce0d578f86a8a7a54ff97, -128),),
    ("quadrature", 15, 128): ((0x1fd29f2c692d2f3d25fdc89409528527, -125),),
    ("quadrature", 16, 128): ((0xfeab99223dc694ff4104932b64247f13, -128),),
    ("quadrature", 17, 128): ((0xfebf916af9ec0cf603a2303745eeb973, -128),),
    ("quadrature", 18, 128): ((0x7f68a995d6a882aa9762a2868818f90d, -127),),
    ("quadrature", 19, 128): ((0x3fb84de72c5d493eeea3e676d8b010c7, -126),),
    ("quadrature", 20, 128): ((0xfeef8629f4e3bda587e6c5459a7ef6cf, -128),),
    ("quadrature", 30, 256): ((0x7fa51b814671a4578ad5c67dd5651518f6349bd80a9d71715b0426f63dae0449, -255),),
    ("quadrature", 40, 256): ((0xff779c93aa4e2bb0f205c23a8ca926040a3c5184cc9a793f1e8aaec5a54c1f83, -256),),
    ("quadrature", 50, 256): ((0xff92dda25deffe08722e7329c51a67840ba113a73114e52bc9dd5b44c8970e5f, -256),),
    ("evq", 10, 32, 128): ((0x7ef028709a28f1151831143132c6490d, -127), (0x7ef028709a28f1151831423398e3c2ed, -127)),
    ("evq", 11, 32, 128): ((0xfe1186c5f1e11dc9e132e20705aa593f, -128), (0xfe1186c5f1e11dc9e132e625114db77, -124)),
    ("evq", 12, 32, 128): ((0x7f1d48f26ee1435df91d48d6bbe9209f, -127), (0xfe3a91e4ddc286bbf23a91eafe7b9783, -128)),
    ("evq", 13, 32, 128): ((0xfe5d52bfc1815311a84a33190de442e3, -128), (0x3f9754aff06054c46a128cc76306ae91, -126)),
    ("evq", 14, 32, 128): ((0xfe7b211aa41ce0d578f86a8a7a54ff97, -128), (0xfe7b211aa41ce0d578f86a8ae009a397, -128)),
    ("evq", 15, 32, 128): ((0x1fd29f2c692d2f3d25fdc89409528527, -125), (0xfe94f963496979e92fee44a055303e17, -128)),
    ("evq", 16, 32, 128): ((0xfeab99223dc694ff4104932b64247f13, -128), (0x3faae6488f71a53fd04124cad95af345, -126)),
    ("evq", 17, 32, 128): ((0xfebf916af9ec0cf603a2303745eeb973, -128), (0xfebf916af9ec0cf603a23037461b81eb, -128)),
    ("evq", 18, 32, 128): ((0x7f68a995d6a882aa9762a2868818f90d, -127), (0x3fb454caeb5441554bb15143440e337, -122)),
    ("evq", 19, 32, 128): ((0x3fb84de72c5d493eeea3e676d8b010c7, -126), (0x3fb84de72c5d493eeea3e676d8b05b1b, -126)),
    ("evq", 20, 32, 128): ((0xfeef8629f4e3bda587e6c5459a7ef6cf, -128), (0xfeef8629f4e3bda587e6c5459a7f2deb, -128)),
    ("approx", 1000, 80, 1024): (
        (0x5454ee66712d36e81bcdc56523fb1baddcc545682a4b56c397ca49136d9e689846462e236db3e69c1e2756a1d5e35a7bb24ee3d84d6973d50082390cd63997b0abf064ddb5621064eabc2d05a7cf4f2c8fee4ec04ac3fc348377f2a08f9f3bc683f76dc7239373d3760cb399225cd65d8d4c7189d7b57b0b88e2064c671fff87, 7507),
        (0x908b898fff33d062ea8e9f02ef058d61c5d9dc0297f23b53856b92a3b3bd7a8f53674f529e8f69287b08efa73f6bff47ed65fb77b13c87012de8d651ace5ba46d40a727878fda8eb73c333bc2e67b1a87cd3c3852018cae67ff919ae2af83fc47a6c260609667ada732aa3a994bccb61203bb9d872bf29e4a3cc4a31e25cc5dd, -1652),
        (0x152b582d428ac4d5ade6dc6f64be2133bd02b7f71774403ad0991176c05b2a21cca37c76989067e4e13046a65df209903891632e1edbb8d572d5d4039892ea7cda1e14bed3ff288fb52d5a86c1666690dd3ff5bb0cd763f76f4a350e865d51472d6710d2cca64210aefbcb50c7deead9420504711e82952353fbf7dcf1c4acd, -838),
    ),
    ("quadrature", 1, 64): ((17010425403996649971, -64),),
    ("quadrature", 2, 64): ((4424922768531530179, -62),),
    ("quadrature", 3, 64): ((17943177448681026783, -64),),
    ("evq", 4, 3, 64): ((9033591600589129011, -63), (9033606472556049001, -63)),
    ("evq", 5, 3, 64): ((18142244892548391789, -64), (18142256080983001099, -64)),
    ("approx", 50, 8, 128): (
        (0x49eebc961ed279ade16d51a48e799801, 88),
        (0xfd810979122df07c3bdb7e8115f9537d, -189),
        (0xdbe134f13942392c8fd10ba210dae8bb, -138),
    ),
}


def _results(call):
    kind, *args = call
    if kind == "quadrature":
        return (asymptotic.stirling_ratio_quadrature(*args),)
    if kind == "evq":
        return asymptotic.expansion_vs_quadrature(*args)
    report = asymptotic.approx_factorial(*args)
    return report.approx, report.rel_error, report.scaled_error


@pytest.mark.parametrize("call", PINNED, ids=lambda call: "-".join(map(str, call)))
def test_numeric_result_keeps_its_bits(call):
    got = tuple(tuple(int(part) for part in value.man_exp) for value in _results(call))
    assert got == PINNED[call]
