"""Finite root systems, Weyl groups, Bruhat order, parabolic cosets, Poincare
polynomials of G/P by Macdonald's product over the positive roots, and the
linear solve against a basis that is triangular in Bruhat order.

Weights live in the fundamental-weight basis, so the half-sum of positive
roots is the all-ones vector and every pairing with a simple coroot is an
exact integer.  Simple root ``alpha_i`` is row ``i`` of the Cartan matrix,
whose ``[i][j]`` entry is ``<alpha_i, alpha_j_check>``.

A Weyl group element is keyed by its rho-image w rho, which determines it
since rho is regular (Casselman, "Machine calculations in Weyl groups",
Invent. Math. 116, 1994).  A root system interns one ``WeylElement`` per
image, so equality is identity.  A left step s_i (w rho) = w rho -
(w rho)_i alpha_i costs O(rank) and goes one length up exactly when
(w rho)_i > 0, so the group is enumerated level by level with no matrix
product, each element's length its level and its word (i,) + word(s_i w).
An element made elsewhere gets its word and length on first use, down its
chain of smallest left descents, and the matrix it induces on the weight
lattice, the same way when first asked for.  Each element keeps two tables,
filled on first use: its images of the roots and its products by the
reflections, at most one entry per root each.  ``act`` and products read
them, and reach for the matrix only on a miss or for an argument that is
neither a root nor a reflection.  ``RootSystem.memo`` is the one memo of
every engine built on a root system (K-theory, cohomology, numeric,
Hirzebruch, Hecke), and ``clear_memo`` empties it.
``RootSystem.along_word`` is the one memoized recursion along a reduced
word, which grows every class family; ``RootSystem.down_from_w0`` is the one
rule for a family grown down from the longest element w0, which stores the
class of v at ``w0 * v``.  ``RootSystem.weyl_group`` refuses, before
enumerating anything, a group of more than ``MAX_WEYL_ORDER`` elements;
|W| is read off Macdonald's product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul


class RootSystemError(ValueError):
    """Invalid Cartan datum or mismatched root-system arguments."""


_MISSING = object()

# The most elements ``RootSystem.weyl_group`` enumerates, one left step on a
# rho-image per element and generator.  Measured enumeration times
# (``len(rs.weyl_group())`` on a fresh root system, median of three runs, one
# core, Python 3.11): W(E6), 51,840 elements, 0.43 s and 26 MiB above the
# interpreter; W(B6), 46,080, 0.44 s; W(A7), 40,320, 0.40 s.  (By matrix
# products they took 18.1 s, 16.9 s and 24.5 s.)  The smallest finite Weyl
# groups over the limit are W(D7), 322,560 elements, and W(A8), 362,880.
# The limit did not move with the cheaper enumeration.
MAX_WEYL_ORDER = 100_000


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
    return tuple([sum(map(mul, row, vec)) for row in mat])


def neg_weight(a):
    return tuple(-x for x in a)


def cell_order(w):
    """The order of cells in every listing and pivot pick: by length, then by
    the minimal reduced word."""
    return w.length, w.word


_peek = object.__getattribute__


def _known(w, name):
    """The slot ``name`` of w, or None while it is unset (nothing is computed)."""
    try:
        return _peek(w, name)
    except AttributeError:
        return None


class WeylElement:
    """A Weyl group element, keyed by its rho-image.

    W acts simply transitively on the orbit of the regular dominant weight
    rho, so ``image``, w rho in fundamental-weight coordinates, determines w.
    A root system interns one element per image, so equality is identity
    and the hash is the default one.  ``length``, ``word`` (the
    lexicographically minimal reduced word), ``mat`` (the integer matrix of
    w on the weight lattice), ``_inv`` (w^-1, which ``inverse`` returns),
    ``_images`` and ``_times`` are slots, filled by the enumeration or on
    first use: ``__getattr__`` runs only while a slot is unset, and after
    that each is a plain read.

    ``_images`` maps a root beta to w beta, and ``_times`` a reflection s_beta
    (simple or not) to w s_beta, whose rho-image w rho - <rho, beta^vee> w beta
    is read off the first table with no matrix.  Both start empty and take an
    entry the first time ``act`` meets that root or a product meets that
    reflection, so they hold at most one entry per root (2N and N, for N
    positive roots), keyed and valued by interned roots and elements.  Any
    other weight or factor goes through ``mat`` and is not stored.
    """

    __slots__ = ("rs", "image", "length", "word", "mat", "_inv", "_images", "_times")

    def __init__(self, rs, image):
        self.rs = rs
        self.image = image

    def __getattr__(self, name):
        if name == "mat":
            self.rs._fill_matrix(self)
        elif name in ("length", "word"):
            self.rs._fill_word(self)
        elif name == "_inv":
            # w^-1 = s_{i_k} ... s_{i_1}, by l(w) left steps; set both ways
            inv = self._inv = self.rs.from_word(reversed(self.word))
            inv._inv = self
        elif name in ("_images", "_times"):
            setattr(self, name, {})
        else:
            raise AttributeError(name)
        return _peek(self, name)

    def __mul__(self, other):
        rs = self.rs
        if rs is not other.rs:
            raise RootSystemError("elements from different root systems")
        reflected = rs._reflected.get(other)
        if reflected is None:
            # (u v) rho = u (v rho): one matrix-vector product, one lookup
            return rs._element(_mat_vec(self.mat, other.image))
        prod = self._times.get(other)
        if prod is None:
            beta, height = reflected
            img = self._images.get(beta) or self._matrix_act(beta)
            prod = self._times[other] = rs._element(
                tuple([a - height * b for a, b in zip(self.image, img)])
            )
        return prod

    def act(self, weight):
        """Image of a weight (fundamental-weight coordinates) under self."""
        try:
            img = self._images.get(weight)
        except TypeError:  # an unhashable sequence, never a table key
            weight = tuple(weight)
            img = None
        return self._matrix_act(weight) if img is None else img

    def _matrix_act(self, weight):
        """w weight by the matrix, stored in ``_images`` when weight is a root."""
        rs = self.rs
        if len(weight) != rs.rank:
            raise RootSystemError("weight rank mismatch")
        img = _mat_vec(self.mat, weight)
        root = rs._roots.get(weight)
        if root is not None:
            img = self._images[root] = rs._roots[img]
        return img

    def inverse(self):
        return self._inv

    def right_descents(self):
        """The i with w alpha_i < 0: the left descents of w^-1, the negative
        entries of w^-1 rho, read with no matrix."""
        return tuple(i for i, x in enumerate(self.inverse().image, start=1) if x < 0)

    def is_identity(self):
        return self is self.rs.identity

    def name(self):
        """Canonical name: 'id' or 's<i>s<j>...' for the minimal reduced word."""
        w = self.word
        return "id" if not w else "".join(f"s{i}" for i in w)

    def __repr__(self):
        return f"W({self.name()})"


class ParabolicDatum:
    """Coset combinatorics for the parabolic generated by a subset of simple roots."""

    def __init__(self, rs, subset):
        subset = rs.parabolic_subset(subset)
        self.rs = rs
        self.subset = subset
        # W first: its size guard also bounds the subgroup, which is smaller.
        # w is minimal in w W_P iff no i in P is a right descent, iff
        # (w^-1 rho)_i > 0 for every i in P.  W comes in cell order, so the
        # word of w less its last letter j, the word of w s_j, comes first,
        # and w^-1 rho = s_j (w s_j)^-1 rho is one left step from its image
        inverse_images = {(): rs.rho}
        min_reps = []
        for w in rs.weyl_group():
            word = w.word
            if word:
                inverse_images[word] = rs._left_step(inverse_images[word[:-1]], word[-1] - 1)
            image = inverse_images[word]
            if all(image[i - 1] > 0 for i in subset):
                min_reps.append(w)
        self.min_reps = tuple(min_reps)
        self.subgroup = rs._generate(subset)
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
        identity = self._identity = WeylElement(self, self.rho)
        identity.length, identity.word = 0, ()
        identity.mat = tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))
        # the interned elements, by rho-image
        self._elements = {self.rho: identity}
        self._simple = {}
        # each reflection made by simple_reflection or reflection, mapped to
        # (beta, <rho, beta^vee>): s_beta rho = rho - <rho, beta^vee> beta
        self._reflected = {}
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
        # every root, mapped to itself: the interned keys and values of the
        # elements' root tables
        self._roots = {fund: fund for fund in seen}
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

    def along_word(self, key, w, start, step):
        """The class of w grown along its reduced word, memoized under ``key + (w,)``.

        ``start(w)`` at the identity; otherwise ``step(i, class of w s_i)``
        with i the last letter of w's word, so every prefix is stored too.
        """

        def build():
            if w.length == 0:
                return start(w)
            i = w.word[-1]
            return step(i, self.along_word(key, w * self.simple_reflection(i), start, step))

        return self.memo(key + (w,), build)

    def down_from_w0(self, key, v, top, step):
        """The class of v in a family grown down from the longest element w0.

        ``top(w0)`` is the class at w0, and ``step`` runs at the ascents of
        v: this is ``along_word`` at ``w0 * v``, whose last letter is an
        ascent of v, so the class of v is memoized under ``key + (w0 * v,)``.
        """
        w0 = self.longest_element()
        return self.along_word(key, w0 * v, lambda _: top(w0), step)

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

    def parabolic_subset(self, subset):
        """The sorted simple-root indices of a parabolic; RootSystemError if out of range."""
        subset = tuple(sorted(set(subset)))
        if any(i < 1 or i > self.rank for i in subset):
            raise RootSystemError(f"parabolic subset {subset} out of range")
        return subset

    def poincare_polynomial(self, subset=()):
        """Coefficient list of the sum of q^length over the minimal coset
        representatives of W/W_P, P the parabolic of ``subset``.

        Macdonald's formula W(q) = prod_{alpha > 0} (1 - q^(ht alpha + 1)) /
        (1 - q^(ht alpha)), divided by the same product over the positive
        roots of the Levi, which have the same heights there: the product
        runs over the positive roots outside the Levi, and nothing is
        enumerated.
        """
        subset = self.parabolic_subset(subset)
        exps = {}
        for coords in self.positive_root_coords:
            if any(c for j, c in enumerate(coords, 1) if j not in subset):
                h = sum(coords)
                exps[h + 1] = exps.get(h + 1, 0) + 1
                exps[h] = exps.get(h, 0) - 1
        poly = [1]
        for m, e in exps.items():
            for _ in range(e):  # times 1 - q^m
                poly += [0] * m
                for i in range(len(poly) - 1, m - 1, -1):
                    poly[i] -= poly[i - m]
        for m, e in exps.items():
            for _ in range(-e):  # exactly over 1 - q^m: Q_k = P_k + Q_(k-m)
                for i in range(m, len(poly)):
                    poly[i] += poly[i - m]
                if any(poly[-m:]):
                    raise ArithmeticError("Macdonald's product is not a polynomial")
                del poly[-m:]
        return poly

    # -- element bookkeeping ------------------------------------------------

    def _element(self, image):
        """The element whose rho-image is ``image``, interned."""
        el = self._elements.get(image)
        if el is None:
            el = self._elements[image] = WeylElement(self, image)
        return el

    def _left_step(self, image, i):
        """s_i applied to a weight: image - <image, alpha_i^vee> alpha_i, i 0-based."""
        k = image[i]
        return tuple([a - k * b for a, b in zip(image, self._simple_roots[i])])

    def _descent_chain(self, w, name):
        """The walk from w down its smallest left descents to the first element
        whose slot ``name`` is set: that element's value, and the walk's
        (element, 0-based descent) pairs, from w down.

        i is a left descent of w iff w^-1 alpha_i < 0 iff (w rho)_i < 0, and
        s_i w is one left step on the rho-image.
        """
        chain = []
        known = _known(w, name)
        while known is None:
            i = next(j for j, x in enumerate(w.image) if x < 0)
            chain.append((w, i))
            w = self._element(self._left_step(w.image, i))
            known = _known(w, name)
        return known, chain

    def _fill_word(self, w):
        """Set the lexicographically minimal reduced word, (i,) + word(s_i w)
        with i the smallest left descent, and the length of w and of every
        element on its descent chain."""
        word, chain = self._descent_chain(w, "word")
        for v, i in reversed(chain):
            word = (i + 1,) + word
            v.word, v.length = word, len(word)

    def _fill_matrix(self, w):
        """Set the matrix of w and of every element on its descent chain:
        mat(w) = s_i mat(s_i w), row r less alpha_i[r] times row i."""
        mat, chain = self._descent_chain(w, "mat")
        for v, i in reversed(chain):
            pivot, alpha = mat[i], self._simple_roots[i]
            mat = v.mat = tuple(
                tuple([m - a * p for m, p in zip(row, pivot)]) if a else row
                for row, a in zip(mat, alpha)
            )

    def simple_reflection(self, i):
        s = self._simple.get(i)
        if s is None:
            if i < 1 or i > self.rank:
                raise RootSystemError(f"no simple reflection s{i}")
            s = self._simple[i] = self._element(self._left_step(self.rho, i - 1))
            self._reflected[s] = (self._simple_roots[i - 1], 1)
        return s

    def reflection(self, beta):
        """The reflection s_beta of a positive root beta (fundamental-weight coordinates).

        s_beta = s_i s_{s_i beta} s_i for a simple i with <beta, alpha_i^vee> > 0,
        which lowers the height, down to a simple reflection.
        """
        beta = tuple(beta)

        def build():
            if beta not in self._positive_set:
                raise RootSystemError(f"{beta} is not a positive root")
            if beta in self._simple_roots:
                return self.simple_reflection(self._simple_roots.index(beta) + 1)
            i = next(j for j, b in enumerate(beta, 1) if b > 0)
            s = self.simple_reflection(i)
            r = s * self.reflection(s.act(beta)) * s
            # rho is all ones, so <rho, beta^vee> is (1 - (s_beta rho)_j) / beta_j
            j = next(j for j, b in enumerate(beta) if b)
            self._reflected[r] = (self._roots[beta], (1 - r.image[j]) // beta[j])
            return r

        return self.memo(("roots", "reflection", beta), build)

    def from_word(self, word):
        """The product s_{i_1} ... s_{i_k}: its rho-image by left steps from
        the right end of the word, then one lookup."""
        image = self.rho
        for i in reversed(tuple(word)):
            i = int(i)
            if i < 1 or i > self.rank:
                raise RootSystemError(f"no simple reflection s{i}")
            image = self._left_step(image, i - 1)
        return self._element(image)

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
        w = self.from_word(word)
        if len(word) != w.length:
            raise RootSystemError(f"{text} is not a reduced word; it is the element {w.name()}")
        return w

    def weyl_group(self):
        """All elements, in ``cell_order``.

        Raises ``RootSystemError``, before enumerating anything, when |W| (the
        value of Macdonald's product at q = 1) is over ``MAX_WEYL_ORDER``.
        """
        if self._weyl is None:
            order = sum(self.poincare_polynomial())
            if order > MAX_WEYL_ORDER:
                raise RootSystemError(
                    f"the Weyl group of {self.lie_type}{self.rank} has {order:,} elements, "
                    f"over the {MAX_WEYL_ORDER:,} that a command may enumerate"
                )
            self._weyl = self._generate(range(1, self.rank + 1))
        return self._weyl

    def _generate(self, indices):
        """The subgroup generated by the simple reflections of ``indices``, in
        ``cell_order``.

        Level by level from the identity by left steps: s_i (w rho) =
        w rho - (w rho)_i alpha_i is one length up when (w rho)_i > 0, and no
        matrix is built.  Each element v is made once, from s_j v with j its
        smallest left descent (the first negative entry of v rho), so it gets
        its length, the level (the length on a standard parabolic subgroup
        is W's), and its word (j,) + word(s_j v) there.
        """
        indices = [i - 1 for i in indices]
        found = [self._identity]
        frontier = [self._identity]
        level = 0
        while frontier:
            level += 1
            new = []
            for w in frontier:
                image = w.image
                for i in indices:
                    if image[i] > 0:
                        up = self._left_step(image, i)
                        if min(up[:i], default=0) >= 0:
                            v = self._element(up)
                            v.length, v.word = level, (i + 1,) + w.word
                            new.append(v)
            frontier = new
            found += new
        return tuple(sorted(found, key=cell_order))

    def longest_element(self):
        """w0, the element with w0 rho = -rho."""
        if self._w0 is None:
            self._w0 = self._element(neg_weight(self.rho))
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
        key = (u, w)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        lu, lw = u.length, w.length
        if lu > lw:
            res = False
        elif lu == lw:
            res = u is w
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

    def lower_interval(self, w):
        """The Bruhat interval [id, w] as a tuple, memoized.

        With s the last letter of w's word, [id, w] is L together with L s for
        L = [id, w s]: by the lifting property u <= w exactly when the shorter
        of u and u s is at most w s (Bjorner-Brenti, GTM 231, 2.2.7).
        """

        def build():
            if w.length == 0:
                return (w,)
            s = self.simple_reflection(w.word[-1])
            below = self.lower_interval(w * s)
            seen = set(below)
            return below + tuple(x for x in (u * s for u in below) if x not in seen)

        return self.memo(("roots", "below", w), build)

    def upper_interval(self, v):
        """The Bruhat interval [v, w0] as a tuple, memoized: left translation
        by w0 reverses Bruhat order, so it is w0 [id, w0 v]."""
        w0 = self.longest_element()
        return self.memo(
            ("roots", "above", v), lambda: tuple(w0 * x for x in self.lower_interval(w0 * v))
        )

    def parabolic(self, subset):
        return ParabolicDatum(self, subset)

    def __repr__(self):
        return f"RootSystem({self.lie_type}{self.rank})"


def triangular_solve(vector, pick, basis, solve, subtract, zero, error):
    """Coefficients of a vector over a basis that is triangular in Bruhat order.

    ``vector`` maps Weyl elements to nonzero values.  The pivot is the entry
    that ``pick`` (``max`` or ``min``) selects by ``cell_order``: ``max``
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
        pivot = pick(residual, key=cell_order)
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
