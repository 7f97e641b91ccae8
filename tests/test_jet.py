from fractions import Fraction as F

import pytest

from zastava.jet import Jet, det_jet
from zastava.multirat import Ring

R = Ring(("x", "y", "z"))
COORDS = ("x", "y")  # z is a parameter: no gradient slot
PT = {"x": F(2), "y": F(-3, 2), "z": F(5)}


def _oracle(f):
    return f.evaluate(PT), [f.diff(c).evaluate(PT) for c in COORDS]


def test_arithmetic_matches_symbolic_partials():
    x, y, z = (R.rat_var(n) for n in "xyz")
    jx, jy, jz = (Jet.coordinate(n, PT, COORDS) for n in "xyz")
    sym = (x * y**2 - 3 * z) / (x + 2 * y) ** 2 - 1 / (y - z) + (2 - x) ** 3
    jet = (jx * jy**2 - 3 * jz) / (jx + 2 * jy) ** 2 - 1 / (jy - jz) + (2 - jx) ** 3
    value, grad = _oracle(sym)
    assert (jet.value, list(jet.grad)) == (value, grad)
    read = sym.evaluate({n: Jet.coordinate(n, PT, COORDS) for n in PT})
    assert (read.value, list(read.grad)) == (value, grad)


def test_evaluate_at_jets_raises_at_a_pole():
    x, y, z = (R.rat_var(n) for n in "xyz")
    pole = {"x": F(2), "y": F(2), "z": F(1)}
    jets = {n: Jet.coordinate(n, pole, COORDS) for n in pole}
    with pytest.raises(ZeroDivisionError):
        (z / (x - y)).evaluate(jets)
    with pytest.raises(ZeroDivisionError):
        (1 / (x - y)).evaluate(jets)  # constant numerator
    assert (x / (x - z)).evaluate(jets).value == 2


def test_det_jet_exact_on_singular_matrix():
    # det [[x, y], [1, z - 3]] = x(z - 3) - y vanishes at x = 1, y = 2, z = 5
    pt = {"x": F(1), "y": F(2), "z": F(5)}
    jx, jy, jz = (Jet.coordinate(n, pt, ("x", "y", "z")) for n in "xyz")
    one = Jet.constant(1, 3)
    d = det_jet([[jx, jy], [one, jz - 3]], 3)
    assert d.value == 0
    assert list(d.grad) == [F(2), F(-1), F(1)]
