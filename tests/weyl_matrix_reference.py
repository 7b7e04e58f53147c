"""The matrix route of the Weyl group, kept as the reference for ``roots.WeylElement``.

An element is the integer matrix it induces on the weight lattice
(fundamental-weight coordinates), a tuple of rows, so that it acts on a
weight by a matrix-vector product.  The group is enumerated by right
products with the simple reflections, one matrix product per element and
generator, each new element's length its level; reduced words come from
the row sums of the matrix (w rho), one left descent at a time; products,
inverses, reflections and the Bruhat order are computed on the matrices.
This is the route that ``roots.py`` used before elements were keyed by their
rho-image; the differential tests in ``test_roots.py`` compare the two.
"""


def mat_vec(mat, vec):
    return tuple(sum(mat[i][j] * vec[j] for j in range(len(vec))) for i in range(len(vec)))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


class MatrixWeylGroup:
    """The Weyl group of a ``RootSystem`` as matrices on the weight lattice."""

    def __init__(self, rs):
        self.rs = rs
        n = rs.rank
        self.identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.simple = {}
        for i in range(1, n + 1):
            alpha = rs.simple_root(i)
            self.simple[i] = tuple(
                tuple(int(r == c) - (alpha[r] if c == i - 1 else 0) for c in range(n))
                for r in range(n)
            )
        self._length = {self.identity: 0}
        self._word = {self.identity: ()}
        self._bruhat = {}

    def elements(self):
        """Every element, enumerated by right products with the simple
        reflections, in ``cell_order``: by length, then by word."""
        found = {self.identity}
        frontier = [self.identity]
        level = 0
        while frontier:
            level += 1
            new = []
            for w in frontier:
                for s in self.simple.values():
                    nxt = mat_mul(w, s)
                    if nxt not in found:
                        found.add(nxt)
                        self._length[nxt] = level
                        new.append(nxt)
            frontier = new
        return sorted(found, key=lambda w: (self.length(w), self.word(w)))

    def word(self, w):
        """The lexicographically minimal reduced word: (i,) + word(s_i w), i the
        smallest left descent, read off the row sums of w (w rho)."""
        word = self._word.get(w)
        if word is None:
            chain = []
            while word is None:
                i = next(j for j, row in enumerate(w, 1) if sum(row) < 0)
                chain.append((w, i))
                w = mat_mul(self.simple[i], w)
                word = self._word.get(w)
            for mat, i in reversed(chain):
                word = self._word[mat] = (i,) + word
        return word

    def length(self, w):
        return len(self.word(w))

    def name(self, w):
        word = self.word(w)
        return "id" if not word else "".join(f"s{i}" for i in word)

    def from_word(self, word):
        w = self.identity
        for i in word:
            w = mat_mul(w, self.simple[i])
        return w

    def inverse(self, w):
        return self.from_word(reversed(self.word(w)))

    def rho_image(self, w):
        return mat_vec(w, self.rs.rho)

    def reflection(self, beta):
        """s_beta = s_i s_{s_i beta} s_i, i a simple index with <beta, alpha_i^vee> > 0."""
        if beta in self.rs._simple_roots:
            return self.simple[self.rs._simple_roots.index(beta) + 1]
        i = next(j for j, b in enumerate(beta, 1) if b > 0)
        s = self.simple[i]
        return mat_mul(mat_mul(s, self.reflection(mat_vec(s, beta))), s)

    def right_descents(self, w):
        return tuple(
            i
            for i in range(1, self.rs.rank + 1)
            if not self.rs.is_positive_root(mat_vec(w, self.rs.simple_root(i)))
        )

    def bruhat_leq(self, u, w):
        """u <= w by the lifting recursion on the first right descent of w."""
        key = (u, w)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        lu, lw = self.length(u), self.length(w)
        if lu > lw:
            res = False
        elif lu == lw:
            res = u == w
        elif lu == 0:
            res = True
        else:
            s = self.simple[self.right_descents(w)[0]]
            ws, us = mat_mul(w, s), mat_mul(u, s)
            res = self.bruhat_leq(us, ws) if self.length(us) < lu else self.bruhat_leq(u, ws)
        self._bruhat[key] = res
        return res
