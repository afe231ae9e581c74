"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive and separate from the package code:
textbook algorithms on lists of Python ints, no numpy, no shared helpers.
"""

from fractions import Fraction
from itertools import combinations


def xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def oracle_snf(rows):
    """Invariant factors of an integer matrix, textbook row/column reduction.

    Pivot rule: first nonzero entry (by rows then columns), unlike the
    package which picks the smallest absolute value.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        # find a pivot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        A[t], A[pi] = A[pi], A[t]
        for r in A:
            r[t], r[pj] = r[pj], r[t]
        while True:
            # clear column t
            for i in range(t + 1, m):
                if A[i][t] % A[t][t] == 0:
                    q = A[i][t] // A[t][t]
                    for j in range(n):
                        A[i][j] -= q * A[t][j]
                elif A[i][t] != 0:
                    g, x, y = xgcd(A[t][t], A[i][t])
                    a, b = A[t][t] // g, A[i][t] // g
                    for j in range(n):
                        u, v = A[t][j], A[i][j]
                        A[t][j] = x * u + y * v
                        A[i][j] = -b * u + a * v
            # clear row t
            for j in range(t + 1, n):
                if A[t][j] % A[t][t] == 0:
                    q = A[t][j] // A[t][t]
                    for i in range(m):
                        A[i][j] -= q * A[i][t]
                elif A[t][j] != 0:
                    g, x, y = xgcd(A[t][t], A[t][j])
                    a, b = A[t][t] // g, A[t][j] // g
                    for i in range(m):
                        u, v = A[i][t], A[i][j]
                        A[i][t] = x * u + y * v
                        A[i][j] = -b * u + a * v
            if all(A[i][t] == 0 for i in range(t + 1, m)) and all(
                A[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        diag.append(abs(A[t][t]))
        t += 1
    # enforce the divisibility chain
    diag = [d for d in diag if d != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                g, _, _ = xgcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return sorted(diag)


def oracle_rank_fraction(rows):
    """Rank over the rationals by Gaussian elimination with Fractions."""
    A = [[Fraction(x) for x in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, m):
            if A[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        p = A[rank][col]
        for i in range(rank + 1, m):
            f = A[i][col] / p
            if f:
                for j in range(col, n):
                    A[i][j] -= f * A[rank][j]
        rank += 1
    return rank


def oracle_rank_modp(rows, p):
    A = [[int(x) % p for x in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, m):
            if A[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], -1, p)
        for i in range(rank + 1, m):
            f = (A[i][col] * inv) % p
            if f:
                for j in range(col, n):
                    A[i][j] = (A[i][j] - f * A[rank][j]) % p
        rank += 1
    return rank


# --- simplicial helpers, all on plain frozensets -------------------------

def close_faces(facets):
    """All faces (as frozensets, including the empty one) of the complex
    generated by `facets`."""
    faces = set()
    for f in facets:
        f = frozenset(f)
        for k in range(len(f) + 1):
            for c in combinations(sorted(f), k):
                faces.add(frozenset(c))
    return faces


def oracle_link_candidates(facets):
    """Faces equal to the meet of the facets containing them.  Any other
    face g has a cone link: the vertices of that meet outside g lie in
    every facet of the link."""
    facets = [frozenset(f) for f in facets]
    out = set()
    for g in close_faces(facets):
        if frozenset.intersection(*(f for f in facets if g <= f)) == g:
            out.add(g)
    return out


def oracle_minimal_nonfaces(facets, n):
    """Vertex sets in 0..n-1 outside the complex generated by `facets`
    whose every one-smaller subset is a face.  Such a set less any one
    of its vertices is a face, so only face-plus-vertex sets are tried,
    apart from the void complex, whose one minimal nonface is empty."""
    faces = close_faces(facets)
    if not faces:
        return {frozenset()}
    tried = {f | {v} for f in faces for v in range(n)}
    return {c for c in tried
            if c not in faces and all(c - {u} in faces for u in c)}


def oracle_boundary(faces, r):
    """Boundary matrix from r-faces to (r-1)-faces as list rows.

    Faces must be the full closed face set.  Degree -1 faces = the empty
    set, so r=0 is the augmentation.  Ordering: sorted vertex tuples.
    """
    rfaces = sorted(tuple(sorted(f)) for f in faces if len(f) == r + 1)
    lower = sorted(tuple(sorted(f)) for f in faces if len(f) == r)
    index = {f: i for i, f in enumerate(lower)}
    M = [[0] * len(rfaces) for _ in lower]
    for j, f in enumerate(rfaces):
        for pos in range(len(f)):
            sub = f[:pos] + f[pos + 1:]
            M[index[sub]][j] = (-1) ** pos
    return M


def oracle_field_betti(facets, coeff):
    """Reduced homology dims over Q (coeff=0) or F_p (coeff=p), by degree.

    Returns a dict degree -> dim for degrees -1..dim.  `facets` empty means
    the void complex (empty dict).  A lone empty facet means {emptyset}.
    """
    if not facets:
        return {}
    faces = close_faces(facets)
    dim = max(len(f) for f in faces) - 1
    counts = {r: sum(1 for f in faces if len(f) == r + 1) for r in range(-1, dim + 1)}
    rank = {}
    for r in range(-1, dim + 2):
        M = oracle_boundary(faces, r)
        if not M or not M[0]:
            rank[r] = 0
        elif coeff == 0:
            rank[r] = oracle_rank_fraction(M)
        else:
            rank[r] = oracle_rank_modp(M, coeff)
    return {
        r: counts[r] - rank[r] - rank[r + 1]
        for r in range(-1, dim + 1)
    }


def oracle_integral_homology(facets):
    """Reduced integral homology: degree -> (rank, sorted torsion list)."""
    if not facets:
        return {}
    faces = close_faces(facets)
    dim = max(len(f) for f in faces) - 1
    counts = {r: sum(1 for f in faces if len(f) == r + 1) for r in range(-1, dim + 1)}
    snf = {}
    for r in range(-1, dim + 2):
        M = oracle_boundary(faces, r)
        snf[r] = oracle_snf(M) if (M and M[0]) else []
    out = {}
    for r in range(-1, dim + 1):
        free = counts[r] - len(snf[r]) - len(snf[r + 1])
        tors = sorted(d for d in snf[r + 1] if d > 1)
        out[r] = (free, tors)
    return out


def induced_facets(facets, subset):
    """Facet list of the restriction to `subset` (maximal faces only).

    Nonvoid input restricted to anything keeps at least the empty face,
    represented by [frozenset()] when no vertex survives.
    """
    subset = frozenset(subset)
    faces = {f & subset for f in close_faces(facets)}
    maximal = [f for f in faces if not any(f < g for g in faces)]
    return maximal


def oracle_hochster_betti(facets, n, coeff):
    """Graded Betti numbers via the subset-cohomology sum, brute force.

    Returns dict (i, j) -> beta_ij including (0, 0) -> 1.
    """
    table = {}
    for j in range(n + 1):
        for A in combinations(range(n), j):
            dims = oracle_field_betti(induced_facets(facets, A), coeff)
            for deg, d in dims.items():
                if d > 0:
                    i = j - deg - 1
                    table[(i, j)] = table.get((i, j), 0) + d
    return table


def oracle_regularity(facets, n, coeff):
    best = 0
    for j in range(n + 1):
        for A in combinations(range(n), j):
            dims = oracle_field_betti(induced_facets(facets, A), coeff)
            for deg, d in dims.items():
                if d > 0:
                    best = max(best, deg + 1)
    return best


def is_induced_cycle(adj, subset):
    """Is the induced subgraph on `subset` a (chordless) cycle of length >= 4?"""
    k = len(subset)
    if k < 4:
        return False
    degs = []
    for v in subset:
        degs.append(sum(1 for w in subset if w != v and w in adj[v]))
    if any(d != 2 for d in degs):
        return False
    # connected 2-regular graph = single cycle
    seen = {subset[0]}
    frontier = [subset[0]]
    while frontier:
        v = frontier.pop()
        for w in subset:
            if w in adj[v] and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == k


def oracle_shortest_induced_cycle(adj, n):
    """Brute force over all vertex subsets; None if no induced cycle >= 4."""
    for k in range(4, n + 1):
        for subset in combinations(range(n), k):
            if is_induced_cycle(adj, subset):
                return k
    return None


# --- groups -------------------------------------------------------------

def oracle_ball(generators, radius):
    """Levels of the Cayley ball of the integer matrices `generators`:
    level l is the set of elements first reached by a word of length l.
    Plain BFS multiplying on the right, every product deduplicated on its
    exact entries; stops early at an empty level."""
    n = len(generators[0]) if generators else 0
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident}
    levels = [{ident}]
    for _ in range(radius):
        new = set()
        for u in levels[-1]:
            for g in generators:
                prod = tuple(
                    tuple(sum(u[i][k] * g[k][j] for k in range(n))
                          for j in range(n))
                    for i in range(n))
                if prod not in seen:
                    seen.add(prod)
                    new.add(prod)
        if not new:
            break
        levels.append(new)
    return levels


def oracle_dominated(facets, A):
    """Vertices of A dominated in the induced subcomplex K_A.

    The facets of K_A are the maximal restrictions f & A; v is dominated
    when the tops through v meet in more than v.  A vertex of A in no
    face of K_A meets nothing, so it is dominated when A has another
    vertex."""
    A = frozenset(A)
    restrictions = {frozenset(f) & A for f in facets}
    tops = [r for r in restrictions if not any(r < s for s in restrictions)]
    out = set()
    for v in A:
        meet = set(A)
        for t in tops:
            if v in t:
                meet &= t
        if meet != {v}:
            out.add(v)
    return out


# --- growth series --------------------------------------------------------

def oracle_growth_series(facets, radius):
    """Level counts 0..radius of the standard Cayley ball of the
    right-angled Coxeter group with nerve L generated by `facets`.

    1/W(t) = sum over the faces s of L, the empty one included, of
    (-t/(1+t))^|s|, so W(t) = (1+t)^d / P(t) with d = dim L + 1 and
    P(t) = sum_s (-t)^|s| (1+t)^(d-|s|).  P(0) = 1, so the power-series
    division stays in the integers."""
    faces = close_faces(facets)
    d = max(len(f) for f in faces)

    def binomials(e):
        row = [1]
        for _ in range(e):
            row = [a + b for a, b in zip(row + [0], [0] + row)]
        return row

    P = [0] * (d + 1)
    for f in faces:
        s = len(f)
        for i, c in enumerate(binomials(d - s)):
            P[s + i] += (-1) ** s * c
    num = binomials(d) + [0] * radius
    W = []
    for k in range(radius + 1):
        W.append(num[k] - sum(P[i] * W[k - i]
                              for i in range(1, min(k, d) + 1)))
    return W
