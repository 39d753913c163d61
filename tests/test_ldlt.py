import random
from fractions import Fraction

from equiloc.symmat import SymMat, ldlt


def test_hyperbolic_pair():
    res = ldlt(SymMat([[0, -1], [-1, 0]]))
    assert res.det == -1
    assert res.signature == 0
    assert not res.singular


def test_identity_and_spd():
    res = ldlt(SymMat.identity(3))
    assert res.det == 1 and res.signature == 3
    res = ldlt(SymMat([[2, 1], [1, 2]]))
    assert res.det == 3 and res.signature == 2


def test_singular_flags_nondegenerate_part():
    res = ldlt(SymMat([[1, 0, 0], [0, -1, 0], [0, 0, 0]]))
    assert res.singular
    assert res.det == 0
    assert res.inverse is None
    assert res.rank == 2
    assert res.signature == 0


def rand_sym(rng, n):
    a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
          for _ in range(n)] for _ in range(n)]
    return SymMat([[a[i][j] + a[j][i] for j in range(n)]
                   for i in range(n)])


def rand_unimodular(rng, n):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_inverse_reconstructs_identity():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = rand_sym(rng, n)
        res = ldlt(m)
        if res.singular:
            continue
        inv = res.inverse
        prod = [[sum(m.entries[i][k] * inv.entries[k][j]
                     for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[Fraction(int(i == j)) for j in range(n)]
                        for i in range(n)]


def test_signature_congruence_invariant():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = rand_sym(rng, n)
        res = ldlt(m)
        u = rand_unimodular(rng, n)
        res2 = ldlt(m.congruent(u))
        assert res.signature == res2.signature
        assert res.rank == res2.rank
        if not res.singular:
            # unimodular congruence preserves the determinant exactly
            assert res2.det == res.det


def test_reconstruction_is_exact():
    # C m C^T = diag(pivots, 0, ...), singular matrices included
    rng = random.Random(33)
    singular = 0
    for k in range(40):
        n = rng.choice([2, 3, 4])
        m = rand_sym(rng, n)
        if k % 3 == 0:
            # repeat the first row and column: singular
            eye = SymMat.identity(n).entries
            m = m.congruent(eye[:-1] + (eye[0],))
        res = ldlt(m)
        singular += res.singular
        d = list(res.pivots) + [0] * (n - res.rank)
        assert m.congruent(res.transform) == SymMat(
            [[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    assert singular >= 14
