"""Exact matrix arithmetic: SNF over the integers, rank over Q and F_p.

Every routine works on lists of Python ints, so no entry can overflow
and results are exact for every input.  Each routine copies its input
and leaves the caller's rows alone.  Smith form is one loop over the
rows still live; rank is a separate elimination over Q or F_p.
"""

import math

from .errors import DomainError, PropertyViolation


class IntMatrix:
    """Immutable dense matrix of exact integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple(int(x) for x in r) for r in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        for r in data:
            if len(r) != cols:
                raise DomainError("ragged matrix rows")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def max_abs(self):
        big = 0
        for r in self.data:
            for x in r:
                if -x > big:
                    big = -x
                elif x > big:
                    big = x
        return big

    def mul(self, other):
        if self.cols != other.rows:
            raise DomainError("dimension mismatch in matrix product")
        ot = tuple(zip(*other.data)) if other.data else ()
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.data
        )
        return IntMatrix(out, self.rows, other.cols)

    __matmul__ = mul

    def mod(self, m):
        return IntMatrix(tuple(tuple(x % m for x in r) for r in self.data),
                         self.rows, self.cols)

    def is_identity(self):
        return self.rows == self.cols and all(
            x == (1 if i == j else 0)
            for i, r in enumerate(self.data) for j, x in enumerate(r)
        )

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


class SnfResult:
    __slots__ = ("invariant_factors", "rank")

    def __init__(self, invariant_factors):
        factors = tuple(int(d) for d in invariant_factors)
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise PropertyViolation(
                    "invariant factors must form a divisibility chain")
        self.invariant_factors = factors
        self.rank = len(factors)

    def rank_mod(self, p):
        # factors divisible by p kill one rank each over F_p
        return self.rank - sum(1 for d in self.invariant_factors if d % p == 0)

    def torsion(self):
        return tuple(d for d in self.invariant_factors if d > 1)

    def __repr__(self):
        return f"SnfResult({self.invariant_factors})"


def _as_rows(M):
    """A fresh list of row lists of Python ints, which the caller owns
    and may reduce in place, with the shape."""
    if isinstance(M, IntMatrix):
        return [list(r) for r in M.data], M.rows, M.cols
    rows = [[int(x) for x in r] for r in M]
    return rows, len(rows), (len(rows[0]) if rows else 0)


def is_prime(p):
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _snf_python(A):
    """Unbounded-integer SNF diagonal of the row lists A, which it
    reduces in place, as one loop over the rows still live.

    The pivot is the first entry of absolute value 1 in row order, else
    an entry of least absolute value.  Row operations clear its column,
    sweeping only the nonzero columns of the pivot row.  Column
    operations then clear its row; with the column clear they change
    the pivot row alone.  A smaller remainder left in either becomes
    the pivot.  A finished pivot row is dropped, with every row that
    became zero."""
    live = [r for r in A if any(r)]
    diag = []
    while live:
        for i, P in enumerate(live):
            js = [P.index(u) for u in (1, -1) if u in P]
            if js:
                c = min(js)
                break
        else:
            b = 0
            for k, R in enumerate(live):
                for j, v in enumerate(R):
                    if v and (b == 0 or -b < v < b):
                        i, c, b = k, j, (v if v > 0 else -v)
        while True:
            P = live[i]
            if P[c] < 0:
                P = live[i] = [-x for x in P]
            p = P[c]
            cols = [j for j, x in enumerate(P) if x]
            bi = -1
            for k, R in enumerate(live):
                if R[c] and k != i:
                    q = R[c] // p
                    for j in cols:
                        R[j] -= q * P[j]
                    if R[c] and (bi < 0 or R[c] < live[bi][c]):
                        bi = k
            if bi >= 0:
                i = bi
                continue
            bj = -1
            for j in cols:
                if j != c:
                    v = P[j] = P[j] % p
                    if v and (bj < 0 or v < P[bj]):
                        bj = j
            if bj < 0:
                break
            c = bj
        diag.append(p)
        live = [R for R in live if R is not P and any(R)]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a // g * b
                changed = True
    return sorted(diag)


def smith_normal_form(M):
    """Invariant factors of an integer matrix."""
    return SnfResult(_snf_python(_as_rows(M)[0]))


def _rank_bareiss(A, m, n):
    """Rank over the rationals by fraction-free elimination of the row
    lists A, in place: after each step every entry is a minor of the
    input, so the division by the previous pivot is exact."""
    prev = 1
    rank = 0
    for col in range(n):
        piv = -1
        for i in range(rank, m):
            if A[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        Ar = A[rank]
        pv = Ar[col]
        for i in range(rank + 1, m):
            Ai = A[i]
            a = Ai[col]
            for j in range(col + 1, n):
                Ai[j] = (Ai[j] * pv - a * Ar[j]) // prev
            Ai[col] = 0
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank


def _rank_modp_python(rows, m, n, p):
    A = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(n):
        piv = -1
        for i in range(rank, m):
            if A[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], -1, p)
        for i in range(rank + 1, m):
            f = A[i][col] * inv % p
            if f:
                Ar = A[rank]
                Ai = A[i]
                for j in range(col, n):
                    Ai[j] = (Ai[j] - f * Ar[j]) % p
        rank += 1
        if rank == m:
            break
    return rank


def rank(M, coeff="q"):
    """Exact rank over the rationals (coeff="q") or F_p (coeff=p)."""
    rows, m, n = _as_rows(M)
    if m == 0 or n == 0:
        return 0
    if coeff == "q":
        return _rank_bareiss(rows, m, n)
    p = int(coeff)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _rank_modp_python(rows, m, n, p)
