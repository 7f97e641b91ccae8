
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
