
import pytest

from zastava.rootdata import datum


def test_a1():
    d = datum("A1")
    assert d.cartan == ((2,),)
    assert d.d == (1,)
    assert d.pairing == ((2,),)


def test_a2_pairing():
    d = datum("A2")
    assert d.pairing[0][1] == -1
    assert d.pairing == tuple(zip(*d.pairing))  # symmetric


def test_b2_c3_symmetrizers():
    b2 = datum("B2")
    assert min(b2.d) == 1
    assert min(p[i] for i, p in enumerate(b2.pairing)) == 2
    c3 = datum("C3")
    P = c3.pairing
    assert P == tuple(zip(*P))
    for i in range(3):
        assert P[i][i] == 2 * c3.d[i]


def test_cartan_validity():
    for tag in ("A3", "B3", "C2", "D4"):
        d = datum(tag)
        n = len(d.cartan)
        for i in range(n):
            assert d.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert d.cartan[i][j] <= 0
                    assert (d.cartan[i][j] == 0) == (d.cartan[j][i] == 0)


def test_affine_a1():
    d = datum("A1-affine")
    assert d.cartan == ((2, -2), (-2, 2))


def test_affine_a2():
    d = datum("A2-affine")
    # node 0 attaches to both ends of the A2 diagram
    assert d.cartan[0][1] == -1 and d.cartan[0][2] == -1
    assert d.cartan == tuple(tuple(r) for r in d.cartan)


def test_unsupported_tag():
    with pytest.raises(ValueError):
        datum("E8")


def test_datum_built_once_per_normalised_tag():
    from zastava.rootdata import MAX_RANK, _datum

    assert datum("A2") is datum(" A2 ") is datum("a2\n")
    assert datum("A1-affine") is datum(" a1-affine")
    assert datum("A1") is not datum("A1-affine")
    d = datum("C3")
    assert d.pairing is d.pairing
    before = _datum.cache_info().currsize
    datum("\tB3 "), datum("b3"), datum("B3")
    assert _datum.cache_info().currsize <= before + 1
    # a bad tag raises on every call, and a refused one is not stored
    for tag in ("E8", "A0", f"A{MAX_RANK + 1}", "B1", "D2-affine"):
        for _ in range(2):
            with pytest.raises(ValueError):
                datum(tag)
    assert _datum.cache_info().currsize <= before + 1


# Coxeter numbers: theta has height h - 1
_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n, "D": lambda n: 2 * n - 2}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@pytest.mark.parametrize("family", "ABCD")
def test_highest_root_tables(family):
    from zastava.rootdata import MAX_RANK, _cartan_finite

    for n in range(_MIN_RANK[family], MAX_RANK + 1):
        fin = datum(f"{family}{n}")
        aff = datum(f"{family}{n}-affine")
        _, _, theta = _cartan_finite(family, n)
        assert sum(theta) == _COXETER[family](n) - 1, (family, n)
        # dominant: <theta^vee, alpha_j> >= 0 and <alpha_j^vee, theta> >= 0
        assert all(aff.cartan[0][j] <= 0 and aff.cartan[j][0] <= 0 for j in range(1, n + 1))
        # theta is a long root, and node 0 carries its length
        assert aff.d[0] == max(fin.d)
        assert aff.finite == fin
        assert all(aff.cartan[j][1:] == fin.cartan[j - 1] for j in range(1, n + 1))


def test_small_affine_matrices():
    # C_ij = <alpha_i^vee, alpha_j>; B_n has its last simple root short
    # and C_n its last root long, as in the textbook
    assert datum("B2").d == (2, 1) and datum("C2").d == (1, 2)
    cases = {
        "C2-affine": (((2, -1, 0), (-2, 2, -2), (0, -1, 2)), (2, 1, 2)),
        "C3-affine": (((2, -1, 0, 0), (-2, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
                      (2, 1, 1, 2)),
        "B2-affine": (((2, 0, -1), (0, 2, -1), (-2, -2, 2)), (2, 2, 1)),
        "B3-affine": (((2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -2, 2)),
                      (2, 2, 2, 1)),
        "D4-affine": (((2, 0, -1, 0, 0), (0, 2, -1, 0, 0), (-1, -1, 2, -1, -1),
                       (0, 0, -1, 2, 0), (0, 0, -1, 0, 2)), (1,) * 5),
        "D5-affine": (((2, 0, -1, 0, 0, 0), (0, 2, -1, 0, 0, 0), (-1, -1, 2, -1, 0, 0),
                       (0, 0, -1, 2, -1, -1), (0, 0, 0, -1, 2, 0), (0, 0, 0, -1, 0, 2)),
                      (1,) * 6),
    }
    for tag, (cartan, d) in cases.items():
        assert datum(tag).cartan == cartan, tag
        assert datum(tag).d == d, tag
