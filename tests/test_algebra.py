import random
from fractions import Fraction

import pytest

from prooflab.algebra import (Field, Matrix, RATIONALS, Vector, compress_image,
                              gauss_solve, gram_solvable, is_prime, kernel_generators,
                              orbit_solve)
from prooflab.errors import UnsupportedFieldError, UsageError

F2, F3, F5 = Field(2), Field(3), Field(5)


def mat(dense, field=RATIONALS):
    return Matrix.from_dense(field, dense)


def vec(values, field=RATIONALS):
    return Vector.from_list(field, values)


def rank_of(vectors, field, dim):
    rows = [[v.get(i) for i in range(dim)] for v in vectors]
    m = Matrix(field, tuple(range(len(rows))), tuple(range(dim)),
               {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x != 0})
    return m.rank()


def test_field_rejects_composites():
    with pytest.raises(UsageError):
        Field(4)
    with pytest.raises(UsageError):
        Field(1)


def test_is_prime_miller_rabin():
    mersenne = 2 ** 61 - 1
    assert [n for n in range(50) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                                     31, 37, 41, 43, 47]
    assert not is_prime(561)  # Carmichael: a Fermat test with base 2 passes it
    assert is_prime(mersenne)
    assert Field(mersenne).inv(2) * 2 % mersenne == 1
    assert not is_prime(1000003 * mersenne)
    # past the bound the bases do not decide; a field that large is refused
    with pytest.raises(UsageError):
        Field(2 ** 89 - 1)
    with pytest.raises(UsageError):
        Field(1000003 * mersenne)


def test_field_axioms_random_samples():
    rng = random.Random(5)
    for field in (RATIONALS, F2, F3, F5):
        elems = [field.coerce(rng.randint(-6, 6)) for _ in range(12)]
        for a in elems[:6]:
            for b in elems[:6]:
                for c in elems[:4]:
                    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        for a in elems:
            if a != 0:
                assert field.mul(a, field.inv(a)) == field.one()
            assert field.add(a, field.neg(a)) == field.zero()


def test_gauss_identity():
    got = gauss_solve(mat([[1, 0], [0, 1]]), vec([1, 2]))
    assert got is not None
    particular, kernel = got
    assert particular.to_list() == [1, 2]
    assert kernel == []


def test_gauss_inconsistent():
    assert gauss_solve(mat([[0, 0]]), vec([1])) is None


def test_gauss_underdetermined_kernel():
    particular, kernel = gauss_solve(mat([[1, 1]]), vec([0]))
    assert particular.to_list() == [0, 0]
    assert len(kernel) == 1
    (k,) = kernel
    # kernel vector solves M.v = 0 and is (1, -1) up to scaling
    assert k.get(0) == -k.get(1) != 0
    # no equations at all: every column is free
    particular, kernel = gauss_solve(Matrix(RATIONALS, (), ("a", "b"), {}), Vector(RATIONALS, (), {}))
    assert particular.is_zero()
    assert sorted(tuple(k.to_list()) for k in kernel) == [(0, 1), (1, 0)]


def test_gauss_field_and_index_mismatch():
    with pytest.raises(UsageError):
        gauss_solve(mat([[1]]), vec([1], F3))
    with pytest.raises(UsageError):
        gauss_solve(mat([[1, 0], [0, 1]]), vec([1]))


def test_gram_examples():
    assert gram_solvable(mat([[1, 0], [0, 1]]), vec([1, 2]))
    assert not gram_solvable(mat([[1], [1]]), vec([1, 0]))
    assert gram_solvable(mat([[1], [1]]), vec([0, 0]))


def test_gram_rejects_prime_fields():
    with pytest.raises(UnsupportedFieldError):
        gram_solvable(mat([[1]], F3), vec([1], F3))


def random_system(rng, max_dim=8, lo=-3, hi=3):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    dense = [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]
    if rng.random() < 0.5:
        # solvable by construction
        x = [rng.randint(lo, hi) for _ in range(nc)]
        b = [sum(r * v for r, v in zip(row, x)) for row in dense]
    else:
        b = [rng.randint(lo, hi) for _ in range(nr)]
    return mat(dense), vec(b)


def test_gram_matches_gauss_on_random_systems():
    rng = random.Random(42)
    for _ in range(200):
        M, b = random_system(rng)
        assert gram_solvable(M, b) == (gauss_solve(M, b) is not None)


def test_kernel_generators_hand_example():
    S = kernel_generators(mat([[1, 1]]))
    assert S.to_dense() == [[Fraction(1, 2), Fraction(-1, 2)],
                            [Fraction(-1, 2), Fraction(1, 2)]]


def test_kernel_generators_identity_and_zero():
    assert kernel_generators(mat([[1, 0], [0, 1]])).to_dense() == [[0, 0], [0, 0]]
    S = kernel_generators(mat([[0, 0], [0, 0]]))
    assert S.rank() == 2


def test_kernel_generators_random_image_is_kernel():
    rng = random.Random(7)
    for _ in range(25):
        M, _ = random_system(rng, max_dim=5)
        S = kernel_generators(M)
        prod = M.matmul(S)
        assert prod.entries == {}
        assert S.rank() == len(M.cols) - M.rank()


def test_compress_image_examples():
    assert compress_image(mat([[1, 0], [0, 0]])).to_dense() == [[1, 0], [0, 0]]
    assert compress_image(mat([[1], [1]])).to_dense() == [[1, 1], [1, 1]]


def test_compress_image_random():
    rng = random.Random(11)
    for _ in range(50):
        nr, nc = rng.randint(1, 5), rng.randint(1, 9)
        N = mat([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        NNt = compress_image(N)
        assert NNt.rank() == N.rank()
        # every column of N lies in im(N.N^T)
        for c in N.cols:
            col = Vector(N.field, N.rows, {r: N.get(r, c) for r in N.rows if N.get(r, c) != 0})
            assert gauss_solve(NNt, col) is not None


def test_compress_image_rejects_prime_fields():
    with pytest.raises(UnsupportedFieldError):
        compress_image(mat([[1]], F2))


def test_orbit_solve_singleton_orbits_match_gauss():
    rng = random.Random(3)
    for _ in range(20):
        M, b = random_system(rng, max_dim=4)
        got = orbit_solve(M, b, [[c] for c in M.cols])
        expect = gauss_solve(M, b)
        assert (got is None) == (expect is None)
        if got is not None:
            assert M.matvec(got).entries == b.entries


def test_orbit_solve_examples():
    M = mat([[1, 1]], F3)
    v = orbit_solve(M, vec([2], F3), [[0, 1]])
    assert v.to_list() == [1, 1]
    assert orbit_solve(mat([[1, -1]]), vec([1]), [[0, 1]]) is None


def test_orbit_solve_soundness_and_partition_check():
    rng = random.Random(9)
    for _ in range(20):
        M, b = random_system(rng, max_dim=5)
        cols = list(M.cols)
        rng.shuffle(cols)
        cut = rng.randint(1, len(cols))
        orbits = [cols[:cut], cols[cut:]] if cut < len(cols) else [cols]
        got = orbit_solve(M, b, orbits)
        if got is not None:
            assert M.matvec(got).entries == b.entries
    with pytest.raises(UsageError):
        orbit_solve(mat([[1, 1]]), vec([0]), [[0]])


def test_matrix_rejects_stray_entries():
    with pytest.raises(UsageError):
        Matrix(RATIONALS, (0,), (0,), {(1, 0): Fraction(1)})
