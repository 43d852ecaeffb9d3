"""The report lines each subcommand prints, pinned at small fixed-seed runs.

The layout, each number's sign, digit count and decimal point included, must
match exactly; each number's value must match to 1e-9 relative.
"""

import math
import re

import pytest

from shadowlab.cli import main

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")

PINNED = {
    "jm": (
        ["jm", "--d", "8", "--B", "4", "--eps", "0.3", "--trials", "20", "--seed", "3"],
        "trials=20 successes=20 rate=1.0000 wilson95=[0.8389, 1.0000] target>=0.950\n",
    ),
    "im-linear": (
        ["im", "--d", "8", "--B", "4", "--eps", "0.4", "--trials", "5", "--seed", "3",
         "--estimator", "linear"],
        "trials=5 successes=5 rate=1.0000 wilson95=[0.5655, 1.0000] target>=0.950\n",
    ),
    "im-quadratic": (
        ["im", "--d", "8", "--B", "4", "--eps", "0.4", "--trials", "5", "--seed", "3",
         "--estimator", "quadratic"],
        "trials=5 successes=5 rate=1.0000 wilson95=[0.5655, 1.0000] target>=0.950\n",
    ),
    "bhm": (
        ["bhm", "--n", "16", "--runs", "50", "--seed", "1"],
        "runs=50 correct=50 rate=1.0000 wilson95=[0.9286, 1.0000] target>=0.950\n",
    ),
    "cov-check": (
        ["cov-check", "--d", "3", "--trials", "20000", "--seed", "1"],
        "PASS  ij_jk     exact=+0.032068 mc=+0.029614 stderr=0.002649\n"
        "PASS  ij_kj     exact=+0.888271 mc=+0.886709 stderr=0.002046\n"
        "PASS  ij_ji     exact=-0.937198 mc=-1.036204 stderr=0.046943\n"
        "PASS  ij_ij     exact=+6.289132 mc=+6.324080 stderr=0.043770\n"
        "PASS  distinct  exact=+0.000000 mc=+0.035593 stderr=0.031929\n",
    ),
    "compare": (
        ["compare", "--trials", "200", "--seed", "1"],
        "     s      var_linear   var_quadratic           ratio     pred_linear  pred_quadratic\n"
        "     8         2.48859         5.18618         2.08399               2           4.125\n"
        "    16        0.911903         1.96885         2.15906               1          1.0625\n"
        "    32        0.547356        0.430721        0.786912             0.5         0.28125\n"
        "    64        0.255846        0.148924        0.582085            0.25        0.078125\n",
    ),
}


def _split(text):
    """(layout with every digit of a number replaced by #, the numbers)."""
    layout = _NUMBER.sub(lambda m: re.sub(r"\d", "#", m[0]), text)
    return layout, [float(v) for v in _NUMBER.findall(text)]


@pytest.mark.parametrize("name", PINNED)
def test_report_lines_pinned(name, capsys):
    argv, expected = PINNED[name]
    assert main(argv) == 0
    layout, numbers = _split(capsys.readouterr().out)
    want_layout, want_numbers = _split(expected)
    assert layout == want_layout
    assert len(numbers) == len(want_numbers)
    for got, want in zip(numbers, want_numbers):
        assert math.isclose(got, want, rel_tol=1e-9), (name, got, want)


def test_split_sees_signs_and_exponents():
    assert _split("a=+1.5e-03 b=-2 [0.25, 1]") == (
        "a=+#.#e-## b=-# [#.##, #]", [1.5e-3, -2.0, 0.25, 1.0]
    )
