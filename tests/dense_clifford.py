"""Dense reference for the Clifford words and sparse rows of ``hetg2.spinor``.

The generators of ``build_rep`` and the charge conjugation are built here as
dense 2^m x 2^m matrices (tuples of row tuples of GQ), by Kronecker products
of the four 2x2 tables, independently of the package's word code.  Products
run over every entry, zero or not.  ``word_of`` reads a dense monomial matrix
back as its word and ``rows_of`` as sparse rows, so the tests can compare
the package's words and rows with this reference; ``dense_of`` writes a word
out as a dense matrix.
"""

from hetg2.spinor import GQ

I = GQ(0, 1)
ZERO = GQ(0)
G1 = ((I, ZERO), (ZERO, -I))
G2 = ((ZERO, I), (I, ZERO))
E2X2 = ((GQ(1), ZERO), (ZERO, GQ(1)))
TMAT = ((ZERO, -I), (I, ZERO))
I_POWERS = (GQ(1), I, GQ(-1), GQ(0, -1))  # i^k for k = 0..3


def kron(a, b):
    return tuple(tuple(a[i][j] * b[k][l]
                       for j in range(len(a[0])) for l in range(len(b[0])))
                 for i in range(len(a)) for k in range(len(b)))


def kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def matmul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
                       for j in range(len(b[0]))) for i in range(len(a)))


def matvec(a, v):
    return tuple(sum((a[i][k] * v[k] for k in range(len(v))), ZERO)
                 for i in range(len(a)))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    return tuple(tuple(c * x for x in r) for r in a)


def eye(n):
    return tuple(tuple(GQ(int(i == j)) for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a))


def generators(m):
    """rho(e_1) = i T x...x T; (e_2a, e_2a+1) act by (G1, G2) in slot
    m+1-a, with identities before it and T's after it."""
    gens = [mat_scale(kron_all([TMAT] * m), I)]
    for a in range(1, m + 1):
        pre, post = [E2X2] * (m - a), [TMAT] * (a - 1)
        gens.append(kron_all(pre + [G1] + post))
        gens.append(kron_all(pre + [G2] + post))
    return tuple(gens)


def charge_conjugation():
    """C = T x E x T for m = 3."""
    return kron_all([TMAT, E2X2, TMAT])


def chain(gens, idx):
    """The ordered product gens[idx[0]-1] ... gens[idx[-1]-1]."""
    out = eye(len(gens[0]))
    for mu in idx:
        out = matmul(out, gens[mu - 1])
    return out


def word_of(mat):
    """The word (perm, phase) of a matrix with one entry i^k per row;
    ValueError for any other matrix."""
    perm, phase = [], []
    for row in mat:
        nz = [(j, x) for j, x in enumerate(row) if not x.is_zero]
        if len(nz) != 1 or nz[0][1] not in I_POWERS:
            raise ValueError("not a monomial matrix with unit phases i^k")
        perm.append(nz[0][0])
        phase.append(I_POWERS.index(nz[0][1]))
    return tuple(perm), tuple(phase)


def dense_of(word):
    """The dense matrix of a word (perm, phase): row r holds i^phase[r] in
    column perm[r] and zeros elsewhere."""
    perm, phase = word
    return tuple(tuple(I_POWERS[k % 4] if j == p else ZERO
                       for j in range(len(perm)))
                 for p, k in zip(perm, phase))


def rows_of(mat):
    """Sparse rows {column: entry} of a dense matrix, zeros dropped."""
    return [{j: x for j, x in enumerate(row) if not x.is_zero} for row in mat]
