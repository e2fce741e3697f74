"""Coradical invariants computed exactly from structure constants.

The Jacobson radical of the dual algebra comes from the trace form of the
left regular representation (characteristic zero), the coradical is its
annihilator, and the filtration iterates H_n = Delta^{-1}(H (x) H_{n-1} +
H_0 (x) H).  Grouplike counting is certification-based: claimed grouplikes
are verified individually and matched against an exact upper bound, the
semisimple dimension of the commutator quotient of the dual.  The bound
counts one-dimensional blocks over the algebraic closure, so it can only
under-certify, never over-certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hopf import FinHopf, hopf_dual, mul, transpose_table
from .linalg import (
    Echelon, LinearMap, Subspace, kernel_of_columns, preimage_of_subspace, sp_add_into,
)
from .scalars import FieldElem


class InvariantError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# algebra-level helpers (operate on a mult table, used for H and for H*)
# ---------------------------------------------------------------------------

def trace_gram(mult: dict, dim: int, order: int):
    """Gram matrix of the trace form (i,j) -> Tr(L_i L_j), as column dicts."""
    mats = []
    for i in range(dim):
        ent = {}
        for m in range(dim):
            row = mult.get((i, m))
            if row:
                for k, c in row.items():
                    ent[(m, k)] = c
        mats.append(ent)
    cols = []
    for j in range(dim):
        col = {}
        mj = mats[j]
        for i in range(dim):
            total = FieldElem.zero(order)
            for (m, k), c in mats[i].items():
                d = mj.get((k, m))
                if d:
                    total = total + c * d
            if total:
                col[i] = total
        cols.append(col)
    return cols


def trace_form_radical(mult: dict, dim: int, order: int) -> Subspace:
    cols = trace_gram(mult, dim, order)
    return kernel_of_columns(order, dim, cols, dim)


def verify_nilpotent(mult, dim, order, space: Subspace) -> bool:
    cur = space
    for _ in range(dim + 1):
        if cur.dim == 0:
            return True
        nxt = []
        for u in cur.basis_vectors():
            for v in space.basis_vectors():
                nxt.append(mul(mult, u, v))
        cur = Subspace.from_vectors(order, dim, nxt)
    return False


def quotient_algebra(mult, dim, order, ideal: Subspace):
    """Multiplication table of A/I on the non-pivot coordinates."""
    ech = ideal._echelon()
    pivots = set(r[0][0] for r in ideal.basis)
    coords = [i for i in range(dim) if i not in pivots]
    pos = {c: a for a, c in enumerate(coords)}

    def project(vec):
        res = ech.normal_form(vec)
        return {pos[i]: c for i, c in res.items()}

    qmult = {}
    for a, i in enumerate(coords):
        for b, j in enumerate(coords):
            row = project(dict(mult.get((i, j), {})))
            if row:
                qmult[(a, b)] = row
    return qmult, len(coords), project


def ideal_closure(mult, dim, order, generators) -> Subspace:
    """Smallest two-sided ideal containing the generators."""
    ech = Echelon()
    queue = []
    for gvec in generators:
        if ech.insert(dict(gvec)):
            queue.append(dict(gvec))
    basis = [{i: FieldElem.one(order)} for i in range(dim)]
    while queue:
        w = queue.pop()
        for b in basis:
            for prod in (mul(mult, b, w), mul(mult, w, b)):
                red = ech.reduce(prod)
                if red:
                    ech.insert(red)
                    queue.append(red)
    return Subspace(order, dim, ech.canonical_rows())


# ---------------------------------------------------------------------------
# radical of the dual, coradical, filtration
# ---------------------------------------------------------------------------

def radical_of_dual(h: FinHopf) -> Subspace:
    """Jacobson radical of H^* as a subspace of dual coordinates; verified
    nilpotent, with a semisimple (nondegenerate trace form) quotient."""
    mult = transpose_table(h.comult)  # multiplication of H^*
    rad = trace_form_radical(mult, h.dim, h.order)
    if not verify_nilpotent(mult, h.dim, h.order, rad):
        raise InvariantError(f"{h.name}: trace-form radical is not nilpotent")
    qmult, qdim, _ = quotient_algebra(mult, h.dim, h.order, rad)
    if trace_form_radical(qmult, qdim, h.order).dim != 0:
        raise InvariantError(f"{h.name}: dual/J has degenerate trace form")
    return rad


def annihilator(order, dim, functionals: Subspace) -> Subspace:
    """{v : f(v) = 0 for all f in the span}; functionals live in dual coords."""
    rows = functionals.basis_vectors()
    return LinearMap(order, len(rows), dim, rows).transpose().kernel()


def coradical(h: FinHopf) -> Subspace:
    rad = radical_of_dual(h)
    h0 = annihilator(h.order, h.dim, rad)
    if h0.dim + rad.dim != h.dim:
        raise InvariantError(f"{h.name}: dim H0 + dim J != dim H")
    return h0


@dataclass
class FiltrationReport:
    layer_dims: list
    p_dims: list
    layers: list  # Subspace per level, ending at the full space


def coradical_filtration(h: FinHopf) -> FiltrationReport:
    """H_0 = coradical, H_n = Delta^{-1}(H (x) H_{n-1} + H_0 (x) H)."""
    h0 = coradical(h)
    layers = [h0]
    dims = [h0.dim]
    n = h.dim
    delta_cols = [h.flatten_pairs(h.comult.get(i, {})) for i in range(n)]
    while dims[-1] < n:
        prev = layers[-1]
        spanning = []
        for i in range(n):
            for w in prev.basis_vectors():
                spanning.append({i * n + k: c for k, c in w.items()})
        for w in h0.basis_vectors():
            for k in range(n):
                spanning.append({i * n + k: c for i, c in w.items()})
        target = Subspace.from_vectors(h.order, n * n, spanning)
        nxt = preimage_of_subspace(h.order, delta_cols, n, target)
        if nxt.dim <= dims[-1]:
            raise InvariantError(f"{h.name}: coradical filtration failed to grow")
        layers.append(nxt)
        dims.append(nxt.dim)
    return FiltrationReport(dims, [d - dims[0] for d in dims], layers)


# ---------------------------------------------------------------------------
# grouplikes
# ---------------------------------------------------------------------------

@dataclass
class GrouplikeReport:
    verified: list           # grouplike vectors, claimed order
    count_bound: int
    complete: bool
    orders: list = field(default_factory=list)
    table: dict = field(default_factory=dict)  # (i,j) -> k indices into verified
    inverses: list = field(default_factory=list)  # i -> index of g_i^{-1}

    @property
    def count(self):
        return len(self.verified)


def grouplike_count_bound(h: FinHopf) -> int:
    """Semisimple dimension of H^*/(commutator ideal); counts one-dimensional
    simple blocks over the closure, an exact upper bound for |G(H)|."""
    mult = transpose_table(h.comult)  # multiplication of H^*
    n, order = h.dim, h.order
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            comm = dict(mult.get((i, j), {}))
            rji = mult.get((j, i))
            if rji:
                sp_add_into(comm, rji, -FieldElem.one(order))
            if comm:
                gens.append(comm)
    ideal = ideal_closure(mult, n, order, gens)
    qmult, qdim, _ = quotient_algebra(mult, n, order, ideal)
    rad = trace_form_radical(qmult, qdim, order)
    return qdim - rad.dim


def grouplikes(h: FinHopf) -> GrouplikeReport:
    claims = h.metadata.get("claimed_grouplikes", [])
    verified = []
    for g in claims:
        if h.is_grouplike(g):
            verified.append(dict(g))
        else:
            raise InvariantError(f"{h.name}: claimed grouplike fails verification")
    seen = Subspace.from_vectors(h.order, h.dim, verified)
    if seen.dim != len(verified):
        raise InvariantError(f"{h.name}: claimed grouplikes not distinct")
    bound = grouplike_count_bound(h)
    if len(verified) > bound:
        raise InvariantError(
            f"{h.name}: {len(verified)} verified grouplikes exceed count bound {bound}"
        )
    rep = GrouplikeReport(verified, bound, complete=len(verified) == bound)
    if rep.complete:
        index = {_vec_key(g): i for i, g in enumerate(verified)}
        for i, a in enumerate(verified):
            for j, b in enumerate(verified):
                prod = h.mul(a, b)
                k = index.get(_vec_key(prod))
                if k is None:
                    raise InvariantError(f"{h.name}: grouplike product leaves the certified set")
                rep.table[(i, j)] = k
        one_key = _vec_key(h.one_elem())
        if one_key not in index:
            raise InvariantError(f"{h.name}: unit not among claimed grouplikes")
        e = index[one_key]
        for i in range(len(verified)):
            k, prev, cur = 1, e, i
            while cur != e:
                prev, cur = cur, rep.table[(cur, i)]
                k += 1
            rep.orders.append(k)
            rep.inverses.append(prev)
    return rep


def _vec_key(vec):
    return tuple(sorted(vec.items()))


# ---------------------------------------------------------------------------
# skew-primitives, antipode, summary
# ---------------------------------------------------------------------------

def skew_space(h: FinHopf, hg: dict, gg: dict) -> Subspace:
    """P_{h,g} = {x : Delta(x) = x (x) h + g (x) x}; h, g must verify as grouplikes."""
    for v in (hg, gg):
        if not h.is_grouplike(v):
            raise InvariantError(f"{h.name}: skew_space argument is not grouplike")
    n = h.dim
    cols = []
    for j in range(n):
        col = dict(h.flatten_pairs(h.comult.get(j, {})))
        for t, c in hg.items():
            sp_add_into(col, {j * n + t: -c})
        for t, c in gg.items():
            sp_add_into(col, {t * n + j: -c})
        cols.append(col)
    return kernel_of_columns(h.order, n * n, cols, n)


ANTIPODE_ORDER_CAP = 1000


def antipode_order(h: FinHopf):
    ident = LinearMap.identity(h.order, h.dim)
    power = h.antipode
    for k in range(1, ANTIPODE_ORDER_CAP + 1):
        if power.columns == ident.columns:
            return k
        power = h.antipode.compose(power)
    return f"exceeds cap {ANTIPODE_ORDER_CAP}"


def trace_s2(h: FinHopf) -> FieldElem:
    s2 = h.antipode.compose(h.antipode)
    total = FieldElem.zero(h.order)
    for i in range(h.dim):
        c = s2.columns[i].get(i)
        if c:
            total = total + c
    return total


@dataclass
class InvariantSummary:
    dim: int
    corad_dim: int
    grouplike_count: int        # r = |G(H)|
    dual_grouplike_count: int   # s = |G(H*)|
    antipode_order: object
    trace_S2: FieldElem
    skew_table: dict
    is_semisimple: bool
    filtration: list
    r_certified: bool = True
    s_certified: bool = True

    @property
    def hopf_type(self):
        return (self.grouplike_count, self.dual_grouplike_count)


def summarize(h: FinHopf) -> InvariantSummary:
    """All standing invariants; asserts the semisimple/cosemisimple/trace
    equivalences (characteristic zero).

    The skew table takes r kernels, not r^2: left multiplication by a
    grouplike a is a coalgebra automorphism with a.P_{h,g} = P_{ah,ag}, so
    P_{h,g} = h.P_{1,h^-1 g} and dim P_{h,g} = dim P_{1,h^-1 g}."""
    filt = coradical_filtration(h)
    corad = filt.layer_dims[0]
    tr = trace_s2(h)
    semisimple = bool(tr)
    if semisimple != (corad == h.dim):
        raise InvariantError(
            f"{h.name}: trace(S^2) != 0 and coradical dimension disagree "
            f"(semisimple iff cosemisimple must hold)"
        )
    rep = grouplikes(h)
    dual = hopf_dual(h)
    drep = grouplikes(dual)
    skew = {}
    if rep.complete:
        base = [skew_space(h, h.one_elem(), g).dim for g in rep.verified]
        for i, inv_i in enumerate(rep.inverses):
            for j in range(rep.count):
                skew[(i, j)] = base[rep.table[(inv_i, j)]]
    return InvariantSummary(
        dim=h.dim,
        corad_dim=corad,
        grouplike_count=rep.count,
        dual_grouplike_count=drep.count,
        antipode_order=antipode_order(h),
        trace_S2=tr,
        skew_table=skew,
        is_semisimple=semisimple,
        filtration=filt.layer_dims,
        r_certified=rep.complete,
        s_certified=drep.complete,
    )


# ---------------------------------------------------------------------------
# coalgebra profile certification
# ---------------------------------------------------------------------------

@dataclass
class ProfileReport:
    certified: bool
    grouplike_count: int
    blocks: tuple       # sorted ((d, multiplicity), ...)
    corad_dim: int
    certified_dim: int
    message: str = ""


def verify_coalgebra_profile(h: FinHopf) -> ProfileReport:
    """Check the claimed grouplikes plus claimed matrix-like blocks span the
    coradical; on success the profile (g, {(d, m_d)}) is certified."""
    rep = grouplikes(h)
    if not rep.complete:
        raise InvariantError(f"{h.name}: grouplikes not certified complete")
    blocks = h.metadata.get("claimed_matrix_bases", [])
    vectors = [dict(g) for g in rep.verified]
    counts = {}
    for block in blocks:
        d = len(block)
        counts[d] = counts.get(d, 0) + 1
        for row in block:
            for v in row:
                vectors.append(dict(v))
    span = Subspace.from_vectors(h.order, h.dim, vectors)
    expected = len(rep.verified) + sum(m * d * d for d, m in counts.items())
    corad = coradical(h)
    profile = tuple(sorted(counts.items()))
    if span.dim != expected:
        return ProfileReport(False, rep.count, profile, corad.dim, span.dim,
                             "claimed coradical components not independent")
    if not corad.contains_subspace(span):
        return ProfileReport(False, rep.count, profile, corad.dim, span.dim,
                             "claimed components not inside the coradical")
    if span.dim != corad.dim:
        return ProfileReport(
            False, rep.count, profile, corad.dim, span.dim,
            f"profile incomplete: coradical dimension {corad.dim}, certified {span.dim}",
        )
    return ProfileReport(True, rep.count, profile, corad.dim, span.dim)
