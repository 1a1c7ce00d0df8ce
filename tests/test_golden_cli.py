"""Pinned stdout of ``seqcert norm`` and pinned ``seqcert orbit`` CSVs.

The values were recorded with the scalar norm, span and map loops that the
one-row calls of the batch kernels replaced.  Seven pins then moved to the
batch kernels' last-bit rounding: ell1 on COEFFS[1] and ell2.5 on COEFFS[2]
in float (numpy adds nine or more terms pairwise, and its power is not
libm's), james3 on COEFFS[2] in both modes (numpy's power inside the DP),
the diag_shift_float and geometric orbits (ell_1 sums over ten or more
coordinates), and same_point, whose float-mode zero distance is now written
``0.0`` rather than ``0``.

The nine rational pins of ell2.5, james2 and james3 are now exit-2
assertions: ``seqcert norm --arithmetic rational`` rejects a norm that is
not piecewise linear, with the message ``certify`` uses, instead of
printing a float (ell2.5 on COEFFS[2] printed ``...032`` there against
``...031`` in float mode).
"""

import pytest

from seqcert.cli import main

COEFFS = [
    "1,-2,3",
    "0.3,-1.7,2.25,0.1,-0.45,1/3,5,-2/7,0.9,1.1",
    "1/7,2/9,-3/11,0.125,-0.6,0.05,1/3,-1/10,0.2,0.7,-0.01,0.3",
]

NORM_STDOUT = {
    # COEFFS[0]
    ('sup', 0, 'float'): '3.0',
    ('sup', 0, 'rational'): '3',
    ('lin', 0, 'float'): '5.333333333333333',
    ('lin', 0, 'rational'): '16/3',
    ('ell1', 0, 'float'): '6.0',
    ('ell1', 0, 'rational'): '6',
    ('ell2.5', 0, 'float'): '3.4585606563304876',
    ('ell2.5', 0, 'rational'): None,
    ('james2', 0, 'float'): '3.7416573867739413',
    ('james2', 0, 'rational'): None,
    ('james3', 0, 'float'): '3.3019272488946263',
    ('james3', 0, 'rational'): None,
    # COEFFS[1]
    ('sup', 1, 'float'): '5.0',
    ('sup', 1, 'rational'): '5',
    ('lin', 1, 'float'): '11.932600732600731',
    ('lin', 1, 'rational'): '16288/1365',
    ('ell1', 1, 'float'): '12.419047619047618',
    ('ell1', 1, 'rational'): '1304/105',
    ('ell2.5', 1, 'float'): '5.458037513242805',
    ('ell2.5', 1, 'rational'): None,
    ('james2', 1, 'float'): '9.11262237894862',
    ('james2', 1, 'rational'): None,
    ('james3', 1, 'float'): '8.96813988483919',
    ('james3', 1, 'rational'): None,
    # COEFFS[2]
    ('sup', 2, 'float'): '0.7',
    ('sup', 2, 'rational'): '7/10',
    ('lin', 2, 'float'): '2.868463092463093',
    ('lin', 2, 'rational'): '461464/160875',
    ('ell1', 2, 'float'): '3.056139971139971',
    ('ell1', 2, 'rational'): '423581/138600',
    ('ell2.5', 2, 'float'): '0.9584092813071031',
    ('ell2.5', 2, 'rational'): None,
    ('james2', 2, 'float'): '1.692066821463629',
    ('james2', 2, 'rational'): None,
    ('james3', 2, 'float'): '1.5417727480062067',
    ('james3', 2, 'rational'): None,
}


@pytest.mark.parametrize("tag,index,arithmetic", sorted(NORM_STDOUT))
def test_norm_stdout_is_pinned(capsys, tag, index, arithmetic):
    argv = ["norm", "--tag", tag, "--coeffs", COEFFS[index], "--arithmetic", arithmetic]
    expected = NORM_STDOUT[(tag, index, arithmetic)]
    if expected is None:  # rational mode rejects a norm that is not piecewise linear
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "rational mode requires a piecewise-linear norm" in out.err
        return
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


ORBIT_CONFIG = """
[sequence]
builtin = {builtin}
n = {n}
{extra}
[map f]
variant = {variant}
{mapextra}
[orbit]
map = f
x = {x}
y = {y}
n_window = {w}

[run]
seed = 3
arithmetic = {arith}
"""

ORBITS = {
    "right_shift": (
        dict(builtin="james_summing", n=12, extra="p = 3\n", variant="right_shift", mapextra="",
             x="1/2,1/4,1/8,1/8", y="delta:2", w=5, arith="float"),
        """\
n,distance
0,0.8254818122236567
1,1.0303213249521392
2,1.102430918658014
3,1.2599210498948732
4,1.2599210498948732
5,1.2599210498948732
""",
    ),
    "same_point": (
        dict(builtin="c0_canonical", n=8, extra="", variant="right_shift", mapextra="",
             x="1/2,1/2", y="1/2,1/2", w=2, arith="float"),
        """\
n,distance
0,0.0
1,0.5
2,0.5
""",
    ),
    "diag_shift_float": (
        dict(builtin="ell1_canonical", n=14, extra="", variant="diag_shift", mapextra="theta = 1/2",
             x="1/3,1/3,1/6,1/6", y="delta:2", w=4, arith="float"),
        """\
n,distance,iterate_gap,gap_lower_bound,gap_upper_bound
0,1.3333333333333333,1.3333333333333333,1.3333333333333333,1.3333333333333333
1,1.2708333333333333,1.2499999999999998,0.6666666666666666,2.0
2,1.2102864583333333,1.1718749999999998,0.3333333333333333,3.0
3,1.1516393025716145,1.0986328125,0.16666666666666666,4.5
4,1.0948399504025776,1.0299682617187498,0.08333333333333333,6.75
""",
    ),
    "diag_shift_rational": (
        dict(builtin="lin_ell1", n=10, extra="", variant="diag_shift", mapextra="theta = 1/2",
             x="1/3,1/3,1/6,1/6", y="delta:2", w=3, arith="rational"),
        """\
n,distance,iterate_gap,gap_lower_bound,gap_upper_bound
0,32/27,32/27,32/27,32/27
1,24696061951/21743271936,18253611007/16307453952,16/27,16/9
2,914266753078067724289/840479776858391445504,333194314794871554049/315179916321896792064,8/27,8/3
3,270595123453302413918802752307193/259907987128044159475620929077248,6081999412009490346140021817343/6091593448313534987709865525248,4/27,4
""",
    ),
    "bilateral": (
        dict(builtin="lin_ell1", n=10, extra="", variant="bilateral", mapextra="",
             x="0.1,0.2,0.3,0.15,0.25", y="1/3,1/3,1/3", w=6, arith="float"),
        """\
n,distance
0,0.711111111111111
1,0.6222222222222221
2,0.7999999999999999
3,1.3784615384615384
4,1.8707692307692307
5,1.8707692307692307
6,1.8707692307692307
""",
    ),
    "geometric": (
        dict(builtin="ell1_canonical", n=12, extra="", variant="geometric", mapextra="",
             x="0.1,0.2,0.3,0.15,0.25", y="1/3,1/6,1/6,1/3", w=8, arith="float"),
        """\
n,distance
0,0.8333333333333333
1,0.5333333333333333
2,1.2916666666666665
3,1.7500000000000002
4,1.9583333333333335
5,2.0000000000000004
6,2.0
7,2.0000000000000004
8,2.0
""",
    ),
}


@pytest.mark.parametrize("name", sorted(ORBITS))
def test_orbit_csv_is_pinned(tmp_path, name):
    params, expected = ORBITS[name]
    cfg = tmp_path / "orbit.cfg"
    cfg.write_text(ORBIT_CONFIG.format(**params))
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == expected
