"""Structure-constant bialgebras and Hopf algebras with exact verification.

A FinHopf stores sparse tensors over Q(zeta_N): mult[(i,j)][k] is the
coefficient of basis k in b_i*b_j, comult[i][(j,k)] the coefficient of
b_j (x) b_k in Delta(b_i).  Tensor-square vectors are indexed by the pair
(j,k) flattened row-major, which is part of the serialization contract.

Products of sparse vectors are defined once, by mul and mul2 on a table.
The axiom checks read what the structure already stores: b_i*b_j is the
row mult[(i,j)], eps(b_i) is counit[i], S(b_i) is antipode column i and
f(b_i) is column i of a map; they never re-derive these by multiplying or
applying basis singletons.  They still run exhaustively over every basis
index tuple; dimensions in the acceptance suite stay small enough that the
cubic loops are cheap.
"""

from __future__ import annotations

from math import lcm

from .linalg import LinearMap, Subspace, kernel_of_columns, sp_add_into, sp_scale
from .scalars import FieldElem


class ShapeError(ValueError):
    """Malformed structure tensors (bad index ranges or vector lengths)."""


class CoinvariantDimensionError(RuntimeError):
    """dim H = dim H^{co pi} * dim B failed for a surjective Hopf algebra map."""


class Report:
    """Verification outcome: empty failure list means ok."""

    def __init__(self, subject: str):
        self.subject = subject
        self.failures = []

    def fail(self, axiom: str, witness, message: str = ""):
        self.failures.append((axiom, witness, message))

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_axioms(self):
        return sorted({f[0] for f in self.failures})

    def __repr__(self):
        if self.ok:
            return f"Report({self.subject}: ok)"
        return f"Report({self.subject}: FAILED {self.failed_axioms()})"


def mul(table: dict, u: dict, v: dict) -> dict:
    """u*v for sparse vectors under a multiplication table {(i,j): {k: c}}."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            row = table.get((i, j))
            if row:
                sp_add_into(out, row, a * b)
    return out


def mul2(table: dict, t1: dict, t2: dict) -> dict:
    """Multiplication in the tensor square; keys are (j,k) pairs."""
    out = {}
    for (a, b), c1 in t1.items():
        for (x, y), c2 in t2.items():
            left = table.get((a, x))
            right = table.get((b, y))
            if not left or not right:
                continue
            scale = c1 * c2
            for k1, d1 in left.items():
                for k2, d2 in right.items():
                    key = (k1, k2)
                    val = out.get(key)
                    add = scale * d1 * d2
                    tot = add if val is None else val + add
                    if tot:
                        out[key] = tot
                    else:
                        out.pop(key, None)
    return out


class FinHopf:
    """A finite-dimensional Hopf (or bi-) algebra given by structure constants."""

    def __init__(self, name, dim, order, mult, unit, comult, counit, antipode, metadata=None):
        self.name = name
        self.dim = dim
        self.order = order
        self.mult = mult          # {(i,j): {k: FieldElem}}
        self.unit = unit          # {i: FieldElem}
        self.comult = comult      # {i: {(j,k): FieldElem}}
        self.counit = counit      # {i: FieldElem}
        self.antipode = antipode  # LinearMap dim -> dim
        self.metadata = metadata or {}

    # -- element operations --------------------------------------------------

    def one_elem(self):
        return dict(self.unit)

    def basis_elem(self, i):
        return {i: FieldElem.one(self.order)}

    def basis(self) -> list:
        """All basis singletons b_i = {i: 1}."""
        one = FieldElem.one(self.order)
        return [{i: one} for i in range(self.dim)]

    def mul(self, u: dict, v: dict) -> dict:
        return mul(self.mult, u, v)

    def elem_power(self, u: dict, k: int) -> dict:
        acc = self.one_elem() if k <= 0 else dict(u)
        for _ in range(k - 1):
            acc = self.mul(acc, u)
        return acc

    def delta(self, u: dict) -> dict:
        out = {}
        for i, a in u.items():
            row = self.comult.get(i)
            if row:
                sp_add_into(out, row, a)
        return out

    def eps(self, u: dict) -> FieldElem:
        total = FieldElem.zero(self.order)
        for i, a in u.items():
            c = self.counit.get(i)
            if c:
                total = total + c * a
        return total

    def s(self, u: dict) -> dict:
        return self.antipode.apply(u)

    def mul2(self, t1: dict, t2: dict) -> dict:
        return mul2(self.mult, t1, t2)

    def tensor_elem(self, u: dict, v: dict) -> dict:
        return {(i, j): c for i, a in u.items() for j, b in v.items() if (c := a * b)}

    def flatten_pairs(self, t: dict) -> dict:
        return {j * self.dim + k: c for (j, k), c in t.items()}

    # -- whole-algebra helpers -------------------------------------------------

    def embed(self, target_order: int) -> "FinHopf":
        if target_order == self.order:
            return self
        mult = {
            ij: {k: c.embed(target_order) for k, c in row.items()}
            for ij, row in self.mult.items()
        }
        comult = {
            i: {jk: c.embed(target_order) for jk, c in row.items()}
            for i, row in self.comult.items()
        }
        unit = {i: c.embed(target_order) for i, c in self.unit.items()}
        counit = {i: c.embed(target_order) for i, c in self.counit.items()}
        meta = _embed_metadata(self.metadata, target_order)
        return FinHopf(
            self.name, self.dim, target_order, mult, unit, comult, counit,
            self.antipode.embed(target_order), meta,
        )

    def scalar(self, q) -> FieldElem:
        return FieldElem.from_rational(q, self.order)


def _embed_metadata(meta: dict, order: int) -> dict:
    def conv(v):
        if isinstance(v, dict) and all(isinstance(c, FieldElem) for c in v.values()):
            return {i: c.embed(order) for i, c in v.items()}
        if isinstance(v, list):
            return [conv(x) for x in v]
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        return v

    return {k: conv(v) for k, v in meta.items()}


def _check_shapes(h: FinHopf):
    n = h.dim
    def idx_ok(i):
        return isinstance(i, int) and 0 <= i < n
    for (i, j), row in h.mult.items():
        if not (idx_ok(i) and idx_ok(j)) or not all(idx_ok(k) for k in row):
            raise ShapeError(f"{h.name}: mult entry out of range at ({i},{j})")
    for i, row in h.comult.items():
        if not idx_ok(i) or not all(idx_ok(j) and idx_ok(k) for (j, k) in row):
            raise ShapeError(f"{h.name}: comult entry out of range at {i}")
    if not all(idx_ok(i) for i in h.unit) or not all(idx_ok(i) for i in h.counit):
        raise ShapeError(f"{h.name}: unit/counit out of range")
    if h.antipode.source_dim != n or h.antipode.target_dim != n:
        raise ShapeError(f"{h.name}: antipode must be {n}x{n}")


def verify_bialgebra(h: FinHopf) -> Report:
    """Exhaustive check: associativity, unit, coassociativity, counit, and
    Delta/eps being algebra maps.  Failures carry witness index tuples."""
    _check_shapes(h)
    rep = Report(f"bialgebra({h.name})")
    n, mult = h.dim, h.mult
    zero = FieldElem.zero(h.order)
    one = h.one_elem()
    basis = h.basis()

    for i, b in enumerate(basis):
        if mul(mult, one, b) != b or mul(mult, b, one) != b:
            rep.fail("unit", (i,), "1*b != b or b*1 != b")

    for i, bi in enumerate(basis):
        for j in range(n):
            bij = mult.get((i, j), {})
            for k, bk in enumerate(basis):
                if mul(mult, bij, bk) != mul(mult, bi, mult.get((j, k), {})):
                    rep.fail("associativity", (i, j, k))

    for i in range(n):
        d = h.comult.get(i, {})
        left = {}
        right = {}
        for (j, k), c in d.items():
            for (a, b), c2 in h.comult.get(j, {}).items():
                sp_add_into(left, {(a, b, k): c * c2}, None)
            for (a, b), c2 in h.comult.get(k, {}).items():
                sp_add_into(right, {(j, a, b): c * c2}, None)
        if left != right:
            rep.fail("coassociativity", (i,))
        lc, rc = {}, {}
        for (j, k), c in d.items():
            e = h.counit.get(j)
            if e:
                sp_add_into(lc, {k: c * e}, None)
            e = h.counit.get(k)
            if e:
                sp_add_into(rc, {j: c * e}, None)
        if lc != basis[i] or rc != basis[i]:
            rep.fail("counit", (i,))

    unit_tensor = h.tensor_elem(one, one)
    if h.delta(one) != unit_tensor:
        rep.fail("comult-algebra-map", ("unit",), "Delta(1) != 1(x)1")
    if not h.eps(one) == 1:
        rep.fail("counit-algebra-map", ("unit",), "eps(1) != 1")
    for i in range(n):
        di = h.comult.get(i, {})
        ei = h.counit.get(i, zero)
        for j in range(n):
            prod = mult.get((i, j), {})
            if h.delta(prod) != mul2(mult, di, h.comult.get(j, {})):
                rep.fail("comult-algebra-map", (i, j))
            if h.eps(prod) != ei * h.counit.get(j, zero):
                rep.fail("counit-algebra-map", (i, j))
    return rep


def verify_antipode(h: FinHopf) -> Report:
    """m(S(x)id)Delta = unit*eps = m(id(x)S)Delta on every basis element."""
    rep = Report(f"antipode({h.name})")
    zero = FieldElem.zero(h.order)
    basis, s = h.basis(), h.antipode.columns
    for i in range(h.dim):
        target = sp_scale(h.unit, h.counit.get(i, zero))
        left, right = {}, {}
        for (j, k), c in h.comult.get(i, {}).items():
            sp_add_into(left, mul(h.mult, s[j], basis[k]), c)
            sp_add_into(right, mul(h.mult, basis[j], s[k]), c)
        if left != target:
            rep.fail("antipode-left", (i,))
        if right != target:
            rep.fail("antipode-right", (i,))
    return rep


def transpose_table(table: dict) -> dict:
    """{a: {b: c}} -> {b: {a: c}}.  The multiplication of H^* is the
    transposed comultiplication of H, and its comultiplication the
    transposed multiplication."""
    out = {}
    for a, row in table.items():
        for b, c in row.items():
            out.setdefault(b, {})[a] = c
    return out


def hopf_dual(h: FinHopf) -> FinHopf:
    """Transpose all structure; claimed metadata swaps with the dual claims."""
    mult = transpose_table(h.comult)
    comult = transpose_table(h.mult)
    meta = dict(h.metadata)
    swapped = dict(meta)
    for a, b in (
        ("claimed_grouplikes", "dual_grouplikes"),
        ("claimed_matrix_bases", "dual_matrix_bases"),
    ):
        swapped[a] = meta.get(b, [])
        swapped[b] = meta.get(a, [])
    swapped.pop("claimed_generators", None)
    swapped.pop("family", None)
    swapped["dual_of"] = meta.get("family", h.name)
    return FinHopf(
        f"{h.name}*", h.dim, h.order, mult, dict(h.counit), comult, dict(h.unit),
        h.antipode.transpose(), swapped,
    )


def tensor_hopf(h: FinHopf, k: FinHopf) -> FinHopf:
    """Componentwise tensor product; index (i,a) -> i*dim(K)+a."""
    order = lcm(h.order, k.order)
    h, k = h.embed(order), k.embed(order)
    nk = k.dim

    def pair(i, a):
        return i * nk + a

    def pair2(x, y):
        return pair(x[0], y[0]), pair(x[1], y[1])

    def outer(u, v, key=pair):
        """u (x) v with its indices merged by key."""
        return {key(x, y): cx * cy for x, cx in u.items() for y, cy in v.items()}

    mult = {pair2(ij, ab): outer(rh, rk)
            for ij, rh in h.mult.items() for ab, rk in k.mult.items()}
    comult = {pair(i, a): outer(rh, rk, pair2)
              for i, rh in h.comult.items() for a, rk in k.comult.items()}
    cols = [outer(si, sa) for si in h.antipode.columns for sa in k.antipode.columns]
    anti = LinearMap(order, h.dim * nk, h.dim * nk, cols)
    meta = {}
    for key in ("claimed_grouplikes", "dual_grouplikes"):
        gh, gk = h.metadata.get(key, []), k.metadata.get(key, [])
        if gh and gk:
            meta[key] = [outer(u, v) for u in gh for v in gk]
    unit, counit = outer(h.unit, k.unit), outer(h.counit, k.counit)
    return FinHopf(
        f"{h.name}(x){k.name}", h.dim * nk, order, mult, unit, comult, counit, anti, meta,
    )


def equal_tensors(h: FinHopf, k: FinHopf) -> bool:
    """Componentwise equality of all structure tensors in the common field."""
    if h.dim != k.dim:
        return False
    order = lcm(h.order, k.order)
    a, b = h.embed(order), k.embed(order)
    return (
        a.mult == b.mult
        and a.unit == b.unit
        and a.comult == b.comult
        and a.counit == b.counit
        and a.antipode.columns == b.antipode.columns
    )


def verify_hopf_morphism(f: LinearMap, h: FinHopf, k: FinHopf) -> Report:
    """Check f respects mult, unit, comult, counit; antipode compatibility is
    implied but checked anyway and reported distinctly."""
    order = lcm(lcm(h.order, k.order), f.order)
    h, k, f = h.embed(order), k.embed(order), f.embed(order)
    rep = Report(f"morphism({h.name}->{k.name})")
    if f.source_dim != h.dim or f.target_dim != k.dim:
        raise ShapeError("morphism shape mismatch")
    if f.apply(h.one_elem()) != k.one_elem():
        rep.fail("unit", (), "f(1) != 1")
    zero = FieldElem.zero(order)
    fb = f.columns
    for i in range(h.dim):
        fi = fb[i]
        for j in range(h.dim):
            if f.apply(h.mult.get((i, j), {})) != mul(k.mult, fi, fb[j]):
                rep.fail("mult", (i, j))
        lhs = {}
        for (a, b), c in h.comult.get(i, {}).items():
            sp_add_into(lhs, k.tensor_elem(fb[a], fb[b]), c)
        if lhs != k.delta(fi):
            rep.fail("comult", (i,))
        if h.counit.get(i, zero) != k.eps(fi):
            rep.fail("counit", (i,))
        if f.apply(h.antipode.columns[i]) != k.s(fi):
            rep.fail("antipode", (i,), "S-compatibility failed: inconsistent input")
    return rep


def coinvariants(h: FinHopf, k: FinHopf, pi: LinearMap, side: str = "right") -> Subspace:
    """Coinvariants of the comodule structure induced by a Hopf algebra map pi.

    right: {x : (id (x) pi)Delta(x) = x (x) 1}; left is symmetric.  For a
    surjective pi the dimension law dim H = dim(result) * dim K is asserted
    and its failure is a hard error (invalid morphism or a bug upstream).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    order = lcm(lcm(h.order, k.order), pi.order)
    h, k, pi = h.embed(order), k.embed(order), pi.embed(order)
    nh, nk = h.dim, k.dim
    right = side == "right"

    def key(x, t):
        """Coordinate of b_x (x) c_t (right) or c_t (x) b_x (left)."""
        return x * nk + t if right else t * nh + x

    # column j: (id (x) pi)Delta(b_j) - b_j (x) 1, or its mirror image
    columns = []
    for j in range(nh):
        col = {}
        for (a, b), c in h.comult.get(j, {}).items():
            kept, mapped = (a, b) if right else (b, a)
            for t, d in pi.columns[mapped].items():
                sp_add_into(col, {key(kept, t): c * d})
        for t, d in k.unit.items():
            sp_add_into(col, {key(j, t): -d})
        columns.append(col)
    ambient = nh * nk
    result = kernel_of_columns(order, ambient, columns, h.dim)
    if pi.rank() == k.dim and result.dim * k.dim != h.dim:
        raise CoinvariantDimensionError(
            f"dim H = dim H^co(pi) * dim B violated for surjective pi: "
            f"{h.dim} != {result.dim} * {k.dim} (coinvariant dimension law)"
        )
    return result
