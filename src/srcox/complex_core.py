"""Finite abstract simplicial complexes on dense vertex ids.

Faces are bitmasks over 0..n-1.  A complex is its antichain of facets;
the void complex (no faces) and the complex {empty face} are distinct:
the former has no facets, the latter has the single facet 0.
"""

import math
from itertools import combinations

import numpy as np

from .errors import DomainError, InputError, ResourceError

INF = math.inf

# enumeration guard for operations that list every face
FACE_BUDGET = 1 << 22
# enumeration guard for minimal_nonfaces, in vertex subsets examined
NONFACE_SUBSET_BUDGET = 1 << 22


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask):
    out = []
    # one step per set bit, not per vertex id below the highest
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def sort_faces(masks):
    """The masks as a list in (size, vertex tuple) order."""
    # bin(m)[:1:-1] lists the bits from vertex 0 up; among faces of one
    # size, the earlier vertex tuple has the larger such string
    out = sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True)
    out.sort(key=int.bit_count)
    return out


class Face:
    """A face as a sorted duplicate-free vertex list."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(sorted(int(v) for v in vertices))
        for a, b in zip(vs, vs[1:]):
            if a == b:
                raise InputError(f"duplicate vertex {a} in face")
        self.vertices = vs

    @property
    def mask(self):
        return mask_of(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, Face) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Face{self.vertices}"


def _face_mask(sigma):
    if isinstance(sigma, Face):
        return sigma.mask
    if isinstance(sigma, int):
        return sigma
    return mask_of(sigma)


def _maximal(masks):
    """Antichain of the given masks (supersets win), sorted.

    Masks are taken largest first; a kept superset of m holds m's lowest
    vertex, so m is tested only against the kept masks through it.
    """
    out = []
    through = {}  # vertex id -> kept masks containing it
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m:
            low = (m & -m).bit_length() - 1
            if any(m & ~f == 0 for f in through.get(low, ())):
                continue
            for v in bits_of(m):
                through.setdefault(v, []).append(m)
        elif out:
            continue  # the empty face lies in every kept mask
        out.append(m)
    return tuple(sorted(out))


class SimplicialComplex:
    __slots__ = ("n", "facets", "labels", "_faces", "_scan")

    def __init__(self, n, facets, labels=None):
        facets = tuple(sorted(facets))
        full = (1 << n) - 1
        for f in facets:
            if f & ~full:
                raise DomainError("facet outside vertex range")
        if _maximal(facets) != facets:
            raise DomainError("facets must form an antichain")
        if labels is not None:
            labels = tuple(str(t) for t in labels)
            if len(labels) != n:
                raise DomainError("label table size mismatch")
        self.n = n
        self.facets = facets
        self.labels = labels
        self._faces = None
        self._scan = None  # integral_subset_scan result, filled on demand

    # -- construction ----------------------------------------------------

    @classmethod
    def from_facets(cls, facet_lists, isolated=None):
        """Build from token lists; dense ids in first-appearance order."""
        ids = {}
        masks = []
        for fl in facet_lists:
            m = 0
            for tok in fl:
                tok = str(tok)
                if not tok:
                    raise InputError("empty vertex token")
                if tok not in ids:
                    ids[tok] = len(ids)
                b = 1 << ids[tok]
                if m & b:
                    raise InputError(f"duplicate vertex {tok!r} within one facet")
                m |= b
            masks.append(m)
        for tok in isolated or ():
            tok = str(tok)
            if not tok:
                raise InputError("empty vertex token")
            if tok not in ids:
                ids[tok] = len(ids)
            masks.append(1 << ids[tok])
        labels = tuple(sorted(ids, key=ids.get))
        return cls(len(ids), _maximal(masks), labels)

    # -- basic queries ---------------------------------------------------

    def is_void(self):
        return not self.facets

    def contains(self, sigma):
        m = _face_mask(sigma)
        if m & ~((1 << self.n) - 1):
            return False
        return any(m & ~f == 0 for f in self.facets)

    @property
    def dim(self):
        """Dimension; -1 for {empty face}, None for the void complex."""
        if not self.facets:
            return None
        return max(f.bit_count() for f in self.facets) - 1

    def label_of(self, v):
        return self.labels[v] if self.labels else str(v)

    def face_label(self, mask):
        return "{" + ",".join(self.label_of(v) for v in bits_of(mask)) + "}"

    def faces(self, budget=FACE_BUDGET):
        """All face masks including 0, sorted by (size, vertex tuple)."""
        if self._faces is not None:
            return self._faces
        if not self.facets:
            self._faces = ()
            return self._faces
        seen = set(self.facets)
        frontier = list(self.facets)
        while frontier:
            f = frontier.pop()
            m = f
            while m:
                b = m & -m
                sub = f ^ b
                if sub not in seen:
                    seen.add(sub)
                    frontier.append(sub)
                m ^= b
            if len(seen) > budget:
                raise ResourceError(
                    f"face enumeration exceeded budget of {budget} faces")
        seen.add(0)
        self._faces = tuple(sort_faces(seen))
        return self._faces

    def f_vector(self):
        """(f_-1, f_0, ..., f_d); empty tuple for the void complex."""
        if not self.facets:
            return ()
        counts = [0] * (self.dim + 2)
        for f in self.faces():
            counts[f.bit_count()] += 1
        return tuple(counts)

    def edges(self):
        out = set()
        for f in self.facets:
            vs = bits_of(f)
            for a, b in combinations(vs, 2):
                out.add((a, b))
        return sorted(out)

    def adjacency(self):
        adj = [0] * self.n
        for a, b in self.edges():
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    # -- derived complexes -----------------------------------------------

    def _reindexed(self, facet_masks, keep_label_of=None):
        """Densely reindex the given masks to their own vertex support."""
        support = 0
        for f in facet_masks:
            support |= f
        verts = bits_of(support)
        pos = {v: i for i, v in enumerate(verts)}
        new = [mask_of(pos[v] for v in bits_of(f)) for f in facet_masks]
        if keep_label_of is None:
            keep_label_of = self.label_of
        labels = tuple(keep_label_of(v) for v in verts)
        return SimplicialComplex(len(verts), _maximal(new), labels)

    def link(self, sigma):
        s = _face_mask(sigma)
        if not self.contains(s):
            raise DomainError("face not in complex")
        lk = [f & ~s for f in self.facets if s & ~f == 0]
        return self._reindexed(lk)

    def induced(self, vertex_subset):
        vm = _face_mask(vertex_subset)
        if vm & ~((1 << self.n) - 1):
            raise DomainError("vertex id out of range")
        if not self.facets:
            return SimplicialComplex(0, ())
        return self._reindexed([f & vm for f in self.facets])

    def face_complex(self):
        """New complex whose vertices are the nonempty faces of this one."""
        if self.is_void() or self.n == 0:
            raise DomainError("face complex needs at least one vertex")
        faces = [f for f in self.faces() if f]
        idx = {f: i for i, f in enumerate(faces)}
        new_facets = []
        for fac in self.facets:
            vs = bits_of(fac)
            m = 0
            for k in range(1, len(vs) + 1):
                for c in combinations(vs, k):
                    m |= 1 << idx[mask_of(c)]
            new_facets.append(m)
        labels = tuple(self.face_label(f) for f in faces)
        return SimplicialComplex(len(faces), _maximal(new_facets), labels)

    def minimal_nonfaces(self):
        """Masks of minimal nonfaces, i.e. generators of the nonface ideal.

        Examines every vertex subset of at most one more vertex than the
        largest facet; raises ResourceError past NONFACE_SUBSET_BUDGET
        subsets.
        """
        if not self.facets:
            return (0,)  # even the empty set is not a face
        top = max(f.bit_count() for f in self.facets) + 1
        total = sum(math.comb(self.n, s) for s in range(1, top + 1))
        budget = NONFACE_SUBSET_BUDGET
        examined = 0
        out = []
        for s in range(1, top + 1):
            for c in combinations(range(self.n), s):
                if examined == budget:
                    raise ResourceError(
                        f"minimal nonface budget exhausted: examined "
                        f"{examined} of {total} subsets")
                examined += 1
                m = mask_of(c)
                if self.contains(m):
                    continue
                if all(self.contains(m ^ (1 << v)) for v in c):
                    out.append(m)
        return tuple(sorted(out))

    def alexander_dual(self):
        """Complex of complements of nonfaces, on the same ambient [n]."""
        full = (1 << self.n) - 1
        facets = tuple(sorted(full & ~m for m in self.minimal_nonfaces()))
        return SimplicialComplex(self.n, facets, self.labels)

    # -- largeness -------------------------------------------------------

    def is_flag(self):
        """True when every minimal nonface is an edge, i.e. the facets
        are exactly the maximal cliques of the 1-skeleton on all n
        vertices.  So a vertex in no facet, or the void complex, makes
        the answer False; {empty face} is flag."""
        return self._is_flag(self.adjacency())

    def _is_flag(self, adj):
        return list(self.facets) == sorted(_max_cliques(adj, self.n))

    def largeness(self):
        adj = self.adjacency()
        flag = self._is_flag(adj)
        if flag:
            # full vertex support and only non-edges as minimal nonfaces:
            # the smallest is a non-edge, unless the complex is a simplex
            full = (1 << self.n) - 1
            min_nonface = 2 if any(a | 1 << v != full
                                   for v, a in enumerate(adj)) else None
        else:
            min_nonface = min((m.bit_count()
                               for m in self.minimal_nonfaces()),
                              default=None)
        cyc = _shortest_chordless_cycle(adj, self.n)
        shortest = cyc if cyc else INF
        if not flag:
            max_k = None
        else:
            max_k = shortest
        return LargenessReport(flag, min_nonface, shortest, max_k)

    # -- misc ------------------------------------------------------------

    def to_cplx(self):
        lines = []
        singles = [f for f in self.facets if f.bit_count() == 1]
        bigger = [f for f in self.facets if f.bit_count() > 1]
        if singles:
            lines.append("isolated: " + " ".join(
                self.label_of(bits_of(f)[0]) for f in singles))
        for f in bigger:
            lines.append(" ".join(self.label_of(v) for v in bits_of(f)))
        return "\n".join(lines) + ("\n" if lines else "")

    def facet_lists(self):
        return [bits_of(f) for f in self.facets]

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.n == other.n and self.facets == other.facets)

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        return f"SimplicialComplex(n={self.n}, facets={len(self.facets)})"


class LargenessReport:
    __slots__ = ("flag", "min_nonface_size", "shortest_induced_cycle", "max_k")

    def __init__(self, flag, min_nonface_size, shortest_induced_cycle, max_k):
        self.flag = flag
        self.min_nonface_size = min_nonface_size
        self.shortest_induced_cycle = shortest_induced_cycle
        self.max_k = max_k

    def is_k_large(self, k):
        return bool(self.flag) and self.max_k >= k

    def gl_index(self):
        """Largest p with a linear resolution through step p; 0 if not flag."""
        if not self.flag:
            return 0
        if self.max_k == INF:
            return INF
        return self.max_k - 3

    def to_dict(self):
        return {
            "flag": self.flag,
            "min_nonface_size": self.min_nonface_size,
            "shortest_induced_cycle": self.shortest_induced_cycle,
            "max_k": self.max_k,
        }

    def __repr__(self):
        return (f"LargenessReport(flag={self.flag}, "
                f"shortest_induced_cycle={self.shortest_induced_cycle})")


def _max_cliques(adj, n):
    """Maximal cliques of the graph given by adjacency bitmasks.  Every
    search node is a distinct clique, a face of the clique complex, so
    more than FACE_BUDGET nodes raise ResourceError."""
    budget = FACE_BUDGET
    out = []
    # iterative Bron-Kerbosch with a greedy pivot
    stack = [(0, (1 << n) - 1, 0)]
    visited = 0
    while stack:
        r, p, x = stack.pop()
        visited += 1
        if visited > budget:
            raise ResourceError(
                f"maximal clique search visited {visited} cliques, "
                f"budget {budget}")
        if p == 0 and x == 0:
            out.append(r)
            continue
        # pivot: vertex of p|x with most neighbours in p
        pool = p | x
        pivot = -1
        best = -1
        m = pool
        while m:
            b = m & -m
            v = b.bit_length() - 1
            cnt = (p & adj[v]).bit_count()
            if cnt > best:
                best = cnt
                pivot = v
            m ^= b
        cand = p & ~adj[pivot]
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            stack.append((r | b, p & adj[v], x & adj[v]))
            p ^= b
            x |= b
            cand ^= b
    return out


def _shortest_chordless_cycle(adj, n):
    """Length of the shortest chordless cycle (>= 4), or 0 if none.

    Take a hole with least vertex b and neighbours a < c on it.  The
    rest of the hole is an a -> c path whose inner vertices lie above b
    and outside N[b].  Conversely, a shortest such path from a to a
    c > a not adjacent to a is induced, since a chord would shorten it,
    and with b it closes a hole.  So one breadth-first search from a
    through those vertices, per edge b-a with a > b, finds the shortest
    hole through b and a; searches stop once they cannot beat `best`.
    """
    best = 0
    full = (1 << n) - 1
    for b in range(n):
        above = full & ~((2 << b) - 1)
        nb = adj[b] & above
        inner = above & ~nb
        while nb:
            start = nb & -nb  # a's bit; the targets are the c > a off N(a)
            nb ^= start
            targets = nb & ~adj[start.bit_length() - 1]
            if not targets:
                continue
            seen = frontier = start
            dist = 0  # a hole closed at distance dist has dist + 2 vertices
            while frontier and (not best or dist + 3 < best):
                reach = 0
                for v in bits_of(frontier):
                    reach |= adj[v]
                dist += 1
                if reach & targets:
                    best = dist + 2
                    break
                frontier = reach & inner & ~seen
                seen |= frontier
    return best


# -- generators ----------------------------------------------------------

def gen_cycle(k):
    if k < 3:
        raise DomainError("cycle needs at least 3 vertices")
    facets = [mask_of((i, (i + 1) % k)) for i in range(k)]
    return SimplicialComplex(k, _maximal(facets), tuple(map(str, range(k))))


def gen_simplex(d):
    if d < 0:
        raise DomainError("simplex dimension must be >= 0")
    return SimplicialComplex(d + 1, ((1 << (d + 1)) - 1,),
                             tuple(map(str, range(d + 1))))


def gen_boundary_simplex(d):
    if d < 1:
        raise DomainError("boundary needs dimension >= 1")
    full = (1 << (d + 1)) - 1
    facets = [full ^ (1 << v) for v in range(d + 1)]
    return SimplicialComplex(d + 1, _maximal(facets),
                             tuple(map(str, range(d + 1))))


def gen_cross_polytope(d):
    """Boundary of the d-dimensional cross-polytope: vertices i and i+d
    are antipodal, facets pick one from each pair."""
    if d < 1:
        raise DomainError("cross-polytope dimension must be >= 1")
    facets = []
    for pick in range(1 << d):
        m = 0
        for i in range(d):
            m |= 1 << (i + d if (pick >> i) & 1 else i)
        facets.append(m)
    return SimplicialComplex(2 * d, _maximal(facets),
                             tuple(map(str, range(2 * d))))


RP2_SIX_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)


def gen_rp2_six():
    facets = [mask_of(f) for f in RP2_SIX_FACETS]
    return SimplicialComplex(6, _maximal(facets), tuple(map(str, range(6))))


def gen_random_flag(n, edge_density, seed=0):
    """Clique complex of a Bernoulli graph; Philox keyed by seed, edges
    drawn in fixed (i, j) order so corpora reproduce across platforms."""
    if n < 1:
        raise DomainError("need at least one vertex")
    if not 0 <= edge_density <= 1:
        raise DomainError("edge density must be within [0, 1]")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    facets = _max_cliques(adj, n)
    return SimplicialComplex(n, _maximal(facets), tuple(map(str, range(n))))


def generate(kind, *, k=None, d=None, n=None, density=None, seed=0):
    if kind == "cycle":
        return gen_cycle(k)
    if kind == "simplex":
        return gen_simplex(d)
    if kind == "boundary_simplex":
        return gen_boundary_simplex(d)
    if kind == "cross_polytope":
        return gen_cross_polytope(d)
    if kind == "rp2_six":
        return gen_rp2_six()
    if kind == "random_flag":
        return gen_random_flag(n, density, seed)
    raise DomainError(f"unknown generator kind {kind!r}")


# -- .cplx text format ---------------------------------------------------

def parse_cplx(text):
    """Parse the facet-per-line format; `#` comments, optional
    `isolated:` line listing bare vertices."""
    facet_lists = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("isolated:"):
            isolated.extend(line[len("isolated:"):].split())
            continue
        toks = line.split()
        if len(toks) != len(set(toks)):
            raise InputError(f"line {lineno}: duplicate vertex in facet")
        facet_lists.append(toks)
    return SimplicialComplex.from_facets(facet_lists, isolated)


def load_cplx(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_cplx(fh.read())
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
