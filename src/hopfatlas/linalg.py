"""Exact linear algebra over Q(zeta_N).

Vectors are sparse dicts {coordinate: FieldElem}; subspaces carry a canonical
reduced row-echelon basis so equal subspaces have identical representations.
All elimination is exact; ambient dimensions go up to dim(H)^2 for tensor
squares, so the row operations stay sparse throughout.
"""

from __future__ import annotations

from .scalars import FieldElem, embed


def spvec(order, items=None):
    """Sparse vector from {index: coeff-like}; zero entries dropped."""
    out = {}
    if items:
        for i, c in items.items() if isinstance(items, dict) else items:
            if not isinstance(c, FieldElem):
                c = FieldElem.from_rational(c, order)
            if c:
                out[i] = c
    return out


def sp_add_into(acc: dict, vec: dict, scale=None):
    for i, c in vec.items():
        t = c if scale is None else c * scale
        cur = acc.get(i)
        s = t if cur is None else cur + t
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)
    return acc


def sp_scale(vec: dict, scale) -> dict:
    return {i: c * scale for i, c in vec.items()} if scale else {}


class Echelon:
    """Incremental forward echelon of sparse rows; canonical_rows() yields RREF."""

    def __init__(self):
        self.rows = {}  # pivot column -> row dict, pivot coefficient 1

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        while vec:
            p = min(vec)
            row = self.rows.get(p)
            if row is None:
                return vec
            sp_add_into(vec, row, -vec[p])
        return vec

    def normal_form(self, vec: dict) -> dict:
        """vec minus the combination of rows that clears every pivot column.
        reduce() stops at the first non-pivot leading entry, which decides
        membership; this is the projection along the span, the same for
        every vector of a coset."""
        vec = dict(vec)
        for p in sorted(self.rows):
            c = vec.get(p)
            if c:
                sp_add_into(vec, self.rows[p], -c)
        return vec

    def insert(self, vec: dict) -> bool:
        """Reduce and insert; returns True if the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        inv = res[p].inverse()
        self.rows[p] = {i: c * inv for i, c in res.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def canonical_rows(self) -> list[dict]:
        # back-eliminate so entries above pivots vanish; return rows by pivot order
        pivots = sorted(self.rows)
        rows = {p: dict(self.rows[p]) for p in pivots}
        for p in reversed(pivots):
            for q in pivots:
                if q >= p:
                    break
                c = rows[q].get(p)
                if c:
                    sp_add_into(rows[q], rows[p], -c)
        return [rows[p] for p in pivots]


class Subspace:
    """Exact subspace of k^ambient with canonical RREF basis."""

    __slots__ = ("order", "ambient", "basis")

    def __init__(self, order: int, ambient: int, canonical_rows):
        self.order = order
        self.ambient = ambient
        rows = []
        for r in canonical_rows:
            rows.append(tuple(sorted(((i, c) for i, c in r.items()), key=lambda t: t[0])))
        self.basis = tuple(rows)

    @classmethod
    def from_vectors(cls, order: int, ambient: int, vectors) -> "Subspace":
        ech = Echelon()
        for v in vectors:
            ech.insert(v)
        return cls(order, ambient, ech.canonical_rows())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_vectors(self) -> list[dict]:
        return [dict(r) for r in self.basis]

    def _echelon(self) -> Echelon:
        ech = Echelon()
        for r in self.basis:
            ech.rows[r[0][0]] = dict(r)
        return ech

    def reduce(self, vec: dict) -> dict:
        return self._echelon().reduce(vec)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        ech = self._echelon()
        return all(not ech.reduce(dict(r)) for r in other.basis)

    def join(self, other: "Subspace") -> "Subspace":
        assert self.ambient == other.ambient
        ech = self._echelon()
        for r in other.basis:
            ech.insert(dict(r))
        return Subspace(self.order, self.ambient, ech.canonical_rows())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.order == other.order
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.order, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class LinearMap:
    """Exact linear map; matrix[i][j] = coefficient of target basis i in image of source j."""

    __slots__ = ("order", "source_dim", "target_dim", "columns")

    def __init__(self, order: int, source_dim: int, target_dim: int, columns):
        self.order = order
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.columns = list(columns)
        assert len(self.columns) == source_dim

    @classmethod
    def identity(cls, order, dim):
        one = FieldElem.one(order)
        return cls(order, dim, dim, [{i: one} for i in range(dim)])

    def apply(self, vec: dict) -> dict:
        out = {}
        for j, c in vec.items():
            sp_add_into(out, self.columns[j], c)
        return out

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        assert inner.target_dim == self.source_dim
        cols = [self.apply(c) for c in inner.columns]
        return LinearMap(self.order, inner.source_dim, self.target_dim, cols)

    def image(self) -> Subspace:
        return Subspace.from_vectors(self.order, self.target_dim, self.columns)

    def rank(self) -> int:
        return self.image().dim

    def kernel(self) -> Subspace:
        return kernel_of_columns(self.order, self.target_dim, self.columns, self.source_dim)

    def is_bijective(self) -> bool:
        return self.source_dim == self.target_dim and self.rank() == self.source_dim

    def inverse(self) -> "LinearMap":
        assert self.is_bijective()
        n = self.source_dim
        ech = Echelon()
        one = FieldElem.one(self.order)
        for j in range(n):
            row = {i: c for i, c in self.columns[j].items()}
            row[n + j] = one
            ech.insert(row)
        cols = [None] * n
        for row in ech.canonical_rows():
            items = sorted(row.items())
            p = items[0][0]
            assert p < n
            cols[p] = {i - n: c for i, c in items if i >= n}
        return LinearMap(self.order, n, n, cols)

    def transpose(self) -> "LinearMap":
        cols = [{} for _ in range(self.target_dim)]
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                cols[i][j] = c
        return LinearMap(self.order, self.target_dim, self.source_dim, cols)

    def embed(self, target_order: int) -> "LinearMap":
        return LinearMap(target_order, self.source_dim, self.target_dim,
                         embed(self.columns, target_order))

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.order == other.order
            and self.source_dim == other.source_dim
            and self.target_dim == other.target_dim
            and self.columns == other.columns
        )


def kernel_of_columns(order, ambient, columns, nvars) -> Subspace:
    """Kernel of the map sending e_j to columns[j] (a subspace of k^nvars)."""
    ech = Echelon()
    one = FieldElem.one(order)
    out = []
    for j in range(nvars):
        row = {i: c for i, c in columns[j].items()}
        row[ambient + j] = one
        res = ech.reduce(row)
        if res and min(res) >= ambient:
            out.append({i - ambient: c for i, c in res.items()})
        else:
            ech.insert(res)
    return Subspace.from_vectors(order, nvars, out)


def preimage_of_subspace(order, columns, nvars, target: Subspace) -> Subspace:
    """{v : M v in target} for the map with the given columns."""
    ech = target._echelon()
    residuals = [ech.normal_form(col) for col in columns]
    return kernel_of_columns(order, target.ambient, residuals, nvars)

