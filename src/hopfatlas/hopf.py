"""Structure-constant bialgebras and Hopf algebras with exact verification.

A FinHopf stores sparse tensors over Q(zeta_N): mult[(i,j)][k] is the
coefficient of basis k in b_i*b_j, comult[i][(j,k)] the coefficient of
b_j (x) b_k in Delta(b_i).  Tensor-square vectors are indexed by the pair
(j,k) flattened row-major, which is part of the serialization contract.

All axiom checks run exhaustively over basis indices; dimensions in the
acceptance suite stay small enough that the cubic loops are cheap.
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

    def __bool__(self):
        return self.ok

    def failed_axioms(self):
        return sorted({f[0] for f in self.failures})

    def __repr__(self):
        if self.ok:
            return f"Report({self.subject}: ok)"
        return f"Report({self.subject}: FAILED {self.failed_axioms()})"


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

    def zero_elem(self):
        return {}

    def one_elem(self):
        return dict(self.unit)

    def basis_elem(self, i):
        return {i: FieldElem.one(self.order)}

    def mul(self, u: dict, v: dict) -> dict:
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                row = self.mult.get((i, j))
                if row:
                    sp_add_into(out, row, a * b)
        return out

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
        """Multiplication in the tensor square; keys are (j,k) pairs."""
        out = {}
        for (a, b), c1 in t1.items():
            for (x, y), c2 in t2.items():
                left = self.mult.get((a, x))
                right = self.mult.get((b, y))
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

    def tensor_elem(self, u: dict, v: dict) -> dict:
        return {(i, j): a * b for i, a in u.items() for j, b in v.items() if a * b}

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
    n = h.dim
    one = h.one_elem()

    for i in range(n):
        b = h.basis_elem(i)
        if h.mul(one, b) != b or h.mul(b, one) != b:
            rep.fail("unit", (i,), "1*b != b or b*1 != b")

    for i in range(n):
        for j in range(n):
            bij = h.mul(h.basis_elem(i), h.basis_elem(j))
            for k in range(n):
                left = h.mul(bij, h.basis_elem(k))
                right = h.mul(h.basis_elem(i), h.mul(h.basis_elem(j), h.basis_elem(k)))
                if left != right:
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
        if lc != h.basis_elem(i) or rc != h.basis_elem(i):
            rep.fail("counit", (i,))

    unit_tensor = h.tensor_elem(one, one)
    if h.delta(one) != unit_tensor:
        rep.fail("comult-algebra-map", ("unit",), "Delta(1) != 1(x)1")
    if not h.eps(one) == 1:
        rep.fail("counit-algebra-map", ("unit",), "eps(1) != 1")
    for i in range(n):
        di = h.comult.get(i, {})
        for j in range(n):
            prod = h.mul(h.basis_elem(i), h.basis_elem(j))
            if h.delta(prod) != h.mul2(di, h.comult.get(j, {})):
                rep.fail("comult-algebra-map", (i, j))
            lhs = h.eps(prod)
            rhs = h.eps(h.basis_elem(i)) * h.eps(h.basis_elem(j))
            if lhs != rhs:
                rep.fail("counit-algebra-map", (i, j))
    return rep


def verify_antipode(h: FinHopf) -> Report:
    """m(S(x)id)Delta = unit*eps = m(id(x)S)Delta on every basis element."""
    rep = Report(f"antipode({h.name})")
    for i in range(h.dim):
        target = sp_scale(h.unit, h.counit.get(i, FieldElem.zero(h.order)))
        left, right = {}, {}
        for (j, k), c in h.comult.get(i, {}).items():
            sp_add_into(left, h.mul(h.s(h.basis_elem(j)), h.basis_elem(k)), c)
            sp_add_into(right, h.mul(h.basis_elem(j), h.s(h.basis_elem(k))), c)
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

    mult = {}
    for (i, j), rh in h.mult.items():
        for (a, b), rk in k.mult.items():
            row = {}
            for x, cx in rh.items():
                for y, cy in rk.items():
                    row[pair(x, y)] = cx * cy
            mult[(pair(i, a), pair(j, b))] = row
    unit = {}
    for i, c in h.unit.items():
        for a, d in k.unit.items():
            unit[pair(i, a)] = c * d
    comult = {}
    for i, rh in h.comult.items():
        for a, rk in k.comult.items():
            row = {}
            for (x1, x2), cx in rh.items():
                for (y1, y2), cy in rk.items():
                    row[(pair(x1, y1), pair(x2, y2))] = cx * cy
            comult[pair(i, a)] = row
    counit = {}
    for i, c in h.counit.items():
        for a, d in k.counit.items():
            counit[pair(i, a)] = c * d
    cols = []
    for i in range(h.dim):
        si = h.s(h.basis_elem(i))
        for a in range(k.dim):
            sa = k.s(k.basis_elem(a))
            col = {}
            for x, cx in si.items():
                for y, cy in sa.items():
                    col[pair(x, y)] = cx * cy
            cols.append(col)
    anti = LinearMap(order, h.dim * nk, h.dim * nk, cols)
    meta = {}
    gh = h.metadata.get("claimed_grouplikes", [])
    gk = k.metadata.get("claimed_grouplikes", [])
    if gh and gk:
        meta["claimed_grouplikes"] = [
            {pair(i, a): c * d for i, c in u.items() for a, d in v.items()}
            for u in gh for v in gk
        ]
    dh = h.metadata.get("dual_grouplikes", [])
    dk = k.metadata.get("dual_grouplikes", [])
    if dh and dk:
        meta["dual_grouplikes"] = [
            {pair(i, a): c * d for i, c in u.items() for a, d in v.items()}
            for u in dh for v in dk
        ]
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
    for i in range(h.dim):
        fi = f.apply(h.basis_elem(i))
        for j in range(h.dim):
            if f.apply(h.mul(h.basis_elem(i), h.basis_elem(j))) != k.mul(fi, f.apply(h.basis_elem(j))):
                rep.fail("mult", (i, j))
        lhs = {}
        for (a, b), c in h.comult.get(i, {}).items():
            sp_add_into(lhs, k.tensor_elem(f.apply(h.basis_elem(a)), f.apply(h.basis_elem(b))), c)
        if lhs != k.delta(fi):
            rep.fail("comult", (i,))
        if h.eps(h.basis_elem(i)) != k.eps(fi):
            rep.fail("counit", (i,))
        if f.apply(h.s(h.basis_elem(i))) != k.s(fi):
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
    nk = k.dim
    one_k = k.one_elem()
    columns = []
    for j in range(h.dim):
        col = {}
        for (a, b), c in h.comult.get(j, {}).items():
            if side == "right":
                img = pi.apply(h.basis_elem(b))
                for t, d in img.items():
                    key = a * nk + t
                    sp_add_into(col, {key: c * d}, None)
            else:
                img = pi.apply(h.basis_elem(a))
                for t, d in img.items():
                    key = t * h.dim + b
                    sp_add_into(col, {key: c * d}, None)
        if side == "right":
            for t, d in one_k.items():
                sp_add_into(col, {j * nk + t: -d}, None)
        else:
            for t, d in one_k.items():
                sp_add_into(col, {t * h.dim + j: -d}, None)
        columns.append(col)
    ambient = h.dim * nk
    result = kernel_of_columns(order, ambient, columns, h.dim)
    if pi.rank() == k.dim and result.dim * k.dim != h.dim:
        raise CoinvariantDimensionError(
            f"dim H = dim H^co(pi) * dim B violated for surjective pi: "
            f"{h.dim} != {result.dim} * {k.dim} (coinvariant dimension law)"
        )
    return result
