"""Finite root systems, Weyl groups, Bruhat order, parabolic cosets, and the
linear solve against a basis that is triangular in Bruhat order.

Weights live in the fundamental-weight basis, so the half-sum of positive
roots is the all-ones vector and every pairing with a simple coroot is an
exact integer.  Simple root ``alpha_i`` is row ``i`` of the Cartan matrix,
whose ``[i][j]`` entry is ``<alpha_i, alpha_j_check>``.

Weyl group elements are stored as the integer matrices they induce on the
weight lattice; reduced words, lengths, and descent sets are cached per
root system.  ``RootSystem.memo`` is the one memo of every engine built on a
root system (K-theory, cohomology, numeric, Hirzebruch, Hecke), and
``clear_memo`` empties it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class RootSystemError(ValueError):
    """Invalid Cartan datum or mismatched root-system arguments."""


_MISSING = object()


def _tridiagonal(rank):
    rows = []
    for i in range(rank):
        row = [0] * rank
        row[i] = 2
        if i > 0:
            row[i - 1] = -1
        if i + 1 < rank:
            row[i + 1] = -1
        rows.append(row)
    return rows


def cartan_matrix(lie_type, rank):
    """Standard Cartan matrix for a finite type, rows = simple roots."""
    t = lie_type.upper()
    if t == "A" and rank >= 1:
        m = _tridiagonal(rank)
    elif t == "B" and rank >= 2:
        m = _tridiagonal(rank)
        m[rank - 2][rank - 1] = -2
    elif t == "C" and rank >= 2:
        m = _tridiagonal(rank)
        m[rank - 1][rank - 2] = -2
    elif t == "D" and rank >= 3:
        m = _tridiagonal(rank)
        m[rank - 1][rank - 2] = 0
        m[rank - 2][rank - 1] = 0
        m[rank - 3][rank - 1] = -1
        m[rank - 1][rank - 3] = -1
        if rank == 3:
            # D3: fork at node 1 (nodes 2 and 3 both attach to node 1)
            m = [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]
    elif t == "E" and rank in (6, 7, 8):
        # Bourbaki numbering: chain 1-3-4-5-...-rank, node 2 attached to 4.
        m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        edges = list(zip(chain, chain[1:])) + [(2, 4)]
        for a, b in edges:
            m[a - 1][b - 1] = -1
            m[b - 1][a - 1] = -1
    elif t == "F" and rank == 4:
        m = _tridiagonal(4)
        m[1][2] = -2
    elif t == "G" and rank == 2:
        m = [[2, -1], [-3, 2]]
    else:
        raise RootSystemError(f"no finite root system of type {lie_type}{rank}")
    return tuple(tuple(row) for row in m)


def _mat_vec(mat, vec):
    return tuple(sum(mat[i][j] * vec[j] for j in range(len(vec))) for i in range(len(vec)))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def add_weight(a, b):
    return tuple(x + y for x, y in zip(a, b))


def neg_weight(a):
    return tuple(-x for x in a)


class WeylElement:
    """A Weyl group element, canonically the matrix acting on weights."""

    __slots__ = ("rs", "mat", "_hash")

    def __init__(self, rs, mat):
        self.rs = rs
        self.mat = mat
        self._hash = hash(mat)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.mat == other.mat and self.rs is other.rs

    def __mul__(self, other):
        if self.rs is not other.rs:
            raise RootSystemError("elements from different root systems")
        return self.rs._element(_mat_mul(self.mat, other.mat))

    def act(self, weight):
        """Image of a weight (fundamental-weight coordinates) under self."""
        if len(weight) != self.rs.rank:
            raise RootSystemError("weight rank mismatch")
        return _mat_vec(self.mat, weight)

    @property
    def length(self):
        return self.rs.length(self)

    @property
    def word(self):
        """Lexicographically minimal reduced word, as a tuple of 1-based indices."""
        return self.rs.reduced_word(self)

    def inverse(self):
        return self.rs.from_word(reversed(self.word))

    def right_descents(self):
        rs = self.rs
        return tuple(
            i for i in range(1, rs.rank + 1) if not rs.is_positive_root(self.act(rs.simple_root(i)))
        )

    def is_identity(self):
        return self is self.rs.identity or self.mat == self.rs.identity.mat

    def name(self):
        """Canonical name: 'id' or 's<i>s<j>...' for the minimal reduced word."""
        w = self.word
        return "id" if not w else "".join(f"s{i}" for i in w)

    def __repr__(self):
        return f"W({self.name()})"


class ParabolicDatum:
    """Coset combinatorics for the parabolic generated by a subset of simple roots."""

    def __init__(self, rs, subset):
        subset = tuple(sorted(set(subset)))
        if any(i < 1 or i > rs.rank for i in subset):
            raise RootSystemError(f"parabolic subset {subset} out of range")
        self.rs = rs
        self.subset = subset
        self.subgroup = rs._generate(subset)
        self.min_reps = tuple(
            w
            for w in rs.weyl_group()
            if all(rs.is_positive_root(w.act(rs.simple_root(i))) for i in subset)
        )
        self._min_set = set(self.min_reps)
        # positive roots of the Levi: support contained in the subset
        self.levi_positive_roots = tuple(
            fund
            for fund, coords in zip(rs.positive_roots, rs.positive_root_coords)
            if all(c == 0 for j, c in enumerate(coords, start=1) if j not in subset)
        )
        levi = set(self.levi_positive_roots)
        self.outer_positive_roots = tuple(a for a in rs.positive_roots if a not in levi)

    def factorize(self, w):
        """Split w = (minimal coset representative) * (element of the subgroup)."""
        rs = self.rs
        right = rs.identity
        while True:
            desc = [i for i in w.right_descents() if i in self.subset]
            if not desc:
                break
            s = rs.simple_reflection(desc[0])
            w = w * s
            right = s * right
        return w, right

    def min_rep(self, w):
        return self.factorize(w)[0]

    def coset(self, w):
        rep = self.min_rep(w)
        return tuple(rep * v for v in self.subgroup)


class RootSystem:
    """An irreducible finite root system with its Weyl group."""

    def __init__(self, lie_type, rank):
        self.lie_type = lie_type.upper()
        self.rank = int(rank)
        self.cartan = cartan_matrix(self.lie_type, self.rank)
        self._validate_cartan()
        self._simple_roots = tuple(self.cartan)  # row i = alpha_{i+1}
        self.rho = tuple([1] * self.rank)
        self._close_roots()
        self._identity = WeylElement(self, tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)))
        self._elements = {self._identity.mat: self._identity}
        self._simple = {}
        self._length = {}
        self._word = {}
        self._bruhat = {}
        self._memo = {}
        self._weyl = None
        self._w0 = None
        self._by_name = None
        self._cartan_inverse = None

    def _validate_cartan(self):
        c = self.cartan
        for i in range(self.rank):
            if c[i][i] != 2:
                raise RootSystemError("Cartan matrix diagonal must be 2")
            for j in range(self.rank):
                if i != j and c[i][j] > 0:
                    raise RootSystemError("Cartan matrix off-diagonal must be <= 0")

    def _close_roots(self):
        # reflection closure of the simple roots; track simple-root coordinates
        seen = {}
        frontier = []
        for i in range(self.rank):
            coords = tuple(int(j == i) for j in range(self.rank))
            seen[self._simple_roots[i]] = coords
            frontier.append(self._simple_roots[i])
        while frontier:
            new = []
            for fund in frontier:
                coords = seen[fund]
                for i in range(self.rank):
                    k = fund[i]  # <root, alpha_i_check>
                    img = tuple(f - k * s for f, s in zip(fund, self._simple_roots[i]))
                    img_coords = list(coords)
                    img_coords[i] -= k
                    img_coords = tuple(img_coords)
                    if img not in seen:
                        seen[img] = img_coords
                        new.append(img)
            frontier = new
        pos = sorted(
            (coords, fund) for fund, coords in seen.items() if all(c >= 0 for c in coords)
        )
        self.positive_roots = tuple(fund for _, fund in pos)
        self.positive_root_coords = tuple(coords for coords, _ in pos)
        self._positive_set = set(self.positive_roots)
        self._root_coords = {fund: coords for fund, coords in seen.items()}
        if 2 * len(self.positive_roots) != len(seen):
            raise RootSystemError("root closure is not symmetric")

    # -- the memo of the engines built on this root system ---------------------

    def memo(self, key, build):
        """The value stored under key, from build() on the first request.

        A key starts with its layer's name (``"roots"``, ``"k"``, ``"coh"``,
        ``"num"``, ``"hz"`` or ``"hecke"``) and carries every parameter its value
        depends on besides the root system.
        """
        val = self._memo.get(key, _MISSING)
        if val is _MISSING:
            val = self._memo[key] = build()
        return val

    def clear_memo(self):
        """Forget every memoized engine and class of this root system."""
        self._memo.clear()

    # -- basic queries ------------------------------------------------------

    @property
    def identity(self):
        return self._identity

    def simple_root(self, i):
        return self._simple_roots[i - 1]

    def is_positive_root(self, fund):
        return fund in self._positive_set

    def is_root(self, fund):
        return fund in self._root_coords

    def root_coordinates(self, fund):
        """Simple-root coordinates of a root (exact integers)."""
        return self._root_coords[fund]

    def weight_in_simple_roots(self, weight):
        """Express any weight in simple-root coordinates (Fractions)."""
        if self._cartan_inverse is None:
            self._cartan_inverse = _invert_matrix(self.cartan)
        inv = self._cartan_inverse
        n = self.rank
        return tuple(sum(Fraction(weight[i]) * inv[i][j] for i in range(n)) for j in range(n))

    @property
    def num_positive_roots(self):
        return len(self.positive_roots)

    # -- element bookkeeping ------------------------------------------------

    def _element(self, mat):
        el = self._elements.get(mat)
        if el is None:
            el = WeylElement(self, mat)
            self._elements[mat] = el
        return el

    def simple_reflection(self, i):
        if i not in self._simple:
            if i < 1 or i > self.rank:
                raise RootSystemError(f"no simple reflection s{i}")
            alpha = self._simple_roots[i - 1]
            mat = tuple(
                tuple(int(r == c) - (alpha[r] if c == i - 1 else 0) for c in range(self.rank))
                for r in range(self.rank)
            )
            self._simple[i] = self._element(mat)
        return self._simple[i]

    def length(self, w):
        l = self._length.get(w.mat)
        if l is None:
            l = sum(1 for a in self.positive_roots if not self.is_positive_root(w.act(a)))
            self._length[w.mat] = l
        return l

    def reduced_word(self, w):
        word = self._word.get(w.mat)
        if word is None:
            parts = []
            cur = w
            while cur.length > 0:
                # smallest left descent: s_i * cur shorter, i.e. cur^{-1}(alpha_i) < 0;
                # test without inverses via length drop
                for i in range(1, self.rank + 1):
                    cand = self.simple_reflection(i) * cur
                    if cand.length < cur.length:
                        parts.append(i)
                        cur = cand
                        break
            word = tuple(parts)
            self._word[w.mat] = word
        return word

    def from_word(self, word):
        w = self._identity
        for i in word:
            w = w * self.simple_reflection(int(i))
        return w

    def parse_element(self, text):
        """Parse 'id', 'w0', or a word like 's1s2s1'."""
        text = text.strip()
        if text in ("id", "e", "1"):
            return self.identity
        if text == "w0":
            return self.longest_element()
        parts = [p for p in text.split("s") if p]
        try:
            word = [int(p) for p in parts]
        except ValueError:
            raise RootSystemError(f"cannot parse Weyl element {text!r}")
        if not word or "s" + "s".join(str(i) for i in word) != text:
            raise RootSystemError(f"cannot parse Weyl element {text!r}")
        if any(i < 1 or i > self.rank for i in word):
            raise RootSystemError(f"simple reflection index out of range in {text!r}")
        return self.from_word(word)

    def weyl_group(self):
        """All elements, ordered by (length, reduced word)."""
        if self._weyl is None:
            self._weyl = self._generate(range(1, self.rank + 1))
        return self._weyl

    def _generate(self, indices):
        indices = list(indices)
        found = {self._identity.mat: self._identity}
        frontier = [self._identity]
        while frontier:
            new = []
            for w in frontier:
                for i in indices:
                    nxt = w * self.simple_reflection(i)
                    if nxt.mat not in found:
                        found[nxt.mat] = nxt
                        new.append(nxt)
            frontier = new
        return tuple(sorted(found.values(), key=lambda w: (w.length, w.word)))

    def longest_element(self):
        if self._w0 is None:
            w = self._identity
            progress = True
            while progress:
                progress = False
                for i in range(1, self.rank + 1):
                    if self.is_positive_root(w.act(self.simple_root(i))):
                        w = w * self.simple_reflection(i)
                        progress = True
                        break
            self._w0 = w
        return self._w0

    def element_by_name(self, name):
        if self._by_name is None:
            self._by_name = {w.name(): w for w in self.weyl_group()}
        return self._by_name[name]

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq(self, u, w):
        """u <= w in Bruhat order, via the lifting recursion on right descents."""
        if u.rs is not self or w.rs is not self:
            raise RootSystemError("elements from a different root system")
        key = (u.mat, w.mat)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        lu, lw = u.length, w.length
        if lu > lw:
            res = False
        elif lu == lw:
            res = u.mat == w.mat
        elif lu == 0:
            res = True
        else:
            s = self.simple_reflection(w.right_descents()[0])
            ws = w * s
            us = u * s
            if us.length < lu:
                res = self.bruhat_leq(us, ws)
            else:
                res = self.bruhat_leq(u, ws)
        self._bruhat[key] = res
        return res

    def parabolic(self, subset):
        return ParabolicDatum(self, subset)

    def __repr__(self):
        return f"RootSystem({self.lie_type}{self.rank})"


def triangular_solve(vector, pick, basis, solve, subtract, zero, error):
    """Coefficients of a vector over a basis that is triangular in Bruhat order.

    ``vector`` maps Weyl elements to nonzero values.  The pivot is the entry
    that ``pick`` (``max`` or ``min``) selects by ``(length, word)``: ``max``
    for a basis whose element at w is supported below w, ``min`` for one
    supported above.  ``basis(w)`` gives that element as a mapping,
    ``solve(w, value)`` the coefficient that cancels the pivot value, and
    ``subtract(cur, entry, c)`` the updated residual entry, or None when it
    is zero; a missing entry is ``zero``.  Raises ``error`` when a pivot does
    not cancel or comes back, so the loop ends within the number of points.
    """
    residual = dict(vector)
    coeffs = {}
    while residual:
        pivot = pick(residual, key=lambda w: (w.length, w.word))
        if pivot in coeffs:
            raise error("expansion did not terminate")
        c = coeffs[pivot] = solve(pivot, residual[pivot])
        for w, entry in basis(pivot).items():
            nxt = subtract(residual.get(w, zero), entry, c)
            if nxt is None:
                residual.pop(w, None)
            else:
                residual[w] = nxt
        if pivot in residual:
            raise error(f"pivot {pivot.name()} did not cancel; the basis is not triangular")
    return coeffs


def _invert_matrix(mat):
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def root_system(lie_type, rank):
    """Shared, cache-backed constructor; use this instead of RootSystem(...)."""
    return RootSystem(lie_type, rank)


def parse_type(text):
    """Parse a CLI label like 'A3' or 'G2' into (lie_type, rank)."""
    text = text.strip().upper()
    if len(text) < 2 or text[0] not in "ABCDEFG":
        raise RootSystemError(f"cannot parse Lie type {text!r}")
    try:
        rank = int(text[1:])
    except ValueError:
        raise RootSystemError(f"cannot parse Lie type {text!r}")
    return text[0], rank
