"""Constructors for every named Hopf algebra family in the atlas.

Monomial bases are frozen per family; serialization and the golden-file tests
depend on that order.  Every build() result is fully re-verified (axioms +
metadata claims); a failure is a constructor bug and raises
AtlasConstructionError, which carries the failing report.

Families and their CLI names:

    kC{n}        group algebra of the cyclic group C_n
    kC{n}dual    its dual (functions on C_n)
    kD{k}dual    functions on the dihedral group of order 2k
    taft{N}      Taft algebra at a primitive N-th root of unity, dim N^2
    h4           the 4-dimensional Taft algebra (Sweedler algebra)
    a2           dim 8, two skew-primitive generators over C_2
    a4p          dim 8, g of order 4, x^2 = 0
    a4pp         dim 8, g of order 4, x^2 = g^2 - 1
    a4ppp+/-     dim 8, g of order 4, gx = (+-i) xg, x^2 = 0
    a22          dim 8, grouplikes C_2 x C_2, one skew generator
    k8           dim 8, matrix-like generators; the only dim-8 Hopf algebra
                 that is neither semisimple nor pointed
    am10:{p}     dim 4p, g of order 2p, x^2 = 0, skew partner g
    am10d:{p}    dim 4p, commutation scalar a primitive p-th root, partner g^p
    am11:{p}     dim 4p, x^2 = g^2 - 1, skew partner g
    h4xc:{p}     dim 4p, x^2 = 0, skew partner g^p (tensor of h4 by kC_p)

Prefix "dual:" (e.g. "dual:taft3") resolves to the dual of a family.  kC{n},
kC{n}dual and kD{k}dual are built straight from groups.cyclic_group and
groups.dihedral_group, which refuse n < 1 and k < 3.

A parametrised family has dimension at most MAX_FAMILY_DIM (64): kC65,
kD33dual, taft9 and am10:17 are refused by parse_family, before any work,
with a FamilyLimitError naming the limit.

Pointed families (and k8) are data: _POINTED maps a family id to a function of
the parameters returning a PointedDatum, the quantum-linear-space datum of the
Andruskiewitsch-Schneider lifting method:

    name       display name (FinHopf.name)
    order      N of the coefficient field Q(zeta_N)
    grouplike  ((g, M), ...): grouplike generators, g^M = 1
    skew       ((x, n, w), ...): skew generators, nilpotent of index n, with
               Delta(x) = x(x)1 + w(x)x for a word w = {g: exp} in grouplikes
    commute    {(a, b): k} with a after b in generator order: a*b = zeta_N^k b*a;
               a pair that is not listed commutes
    lift       (s0, s2): x^n = s0 + s2*w^n instead of x^n = 0; only used with
               n = 2 and a single skew generator
    override   k8 only: its generators are not grouplike or skew-primitive, so
               their coalgebra data {gen: (Delta, eps, S)} and the claimed_*
               metadata are given explicitly, monomials as exponent tuples

Everything else is derived, and build() verifies the result:

* basis: monomials over the generators (grouplikes first) in mixed radix,
  first generator fastest, so g^a x^b has index a + M*b; words are the
  nonzero (gen, exp) pairs of each monomial;
* products: u*v is prod zeta^(k*u_a*v_b) over the commute pairs times the
  monomial of the summed exponents; grouplike exponents reduce mod M, and a
  skew exponent reaching n gives 0 or the lifting;
* coalgebra: Delta(g) = g(x)g, eps(g) = 1, S(g) = g^(M-1), eps(x) = 0,
  S(x) = -w^-1 x, extended along the words by _finish;
* metadata: the grouplike monomials, the generators, and as dual grouplikes
  the characters g -> zeta_M^j, x -> 0 that respect the lifting;
* the Presentation used by the isomorphism machinery, see presentation().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from . import invariants as inv
from .groups import FiniteGroup, cyclic_group, dihedral_group
from .hopf import (
    FinHopf, LinearMap, Report, hopf_dual, mul, mul2, tensor_hopf, verify_antipode,
    verify_bialgebra, verify_hopf_morphism,
)
from .linalg import Subspace, kernel_of_columns, sp_add_into, sp_scale
from .scalars import FieldElem, is_odd_prime


class AtlasConstructionError(RuntimeError):
    """A constructor produced something that fails verification; report holds
    the failed axiom checks (None for a failed metadata claim)."""

    def __init__(self, message, report: Report = None):
        super().__init__(message)
        self.report = report


class UnknownFamilyError(ValueError):
    pass


class FamilyLimitError(ValueError):
    """A family parameter whose algebra is over MAX_FAMILY_DIM."""

    def __init__(self, family, dim):
        super().__init__(f"family {family!r} has dimension {dim}, over the "
                         f"limit of {MAX_FAMILY_DIM} for parametrised families")
        self.dim = dim


@dataclass(frozen=True)
class FamilySpec:
    family_id: str
    params: tuple = ()


@dataclass
class Presentation:
    """Generator/word data used by the isomorphism machinery.

    grouplike_gens maps generator name to its order; skew_gens maps a
    generator x with Delta(x) = x(x)1 + w(x)x to the word w as {gen: exp}.
    words[i] is the monomial of basis index i as a tuple of (gen, exp).
    relations(images, K) returns the list of violated relation names.
    """

    gen_names: list
    grouplike_gens: dict
    skew_gens: dict
    words: list
    relations: object


@dataclass(frozen=True)
class PointedDatum:
    """Generators, commutation scalars and lifting of a family; see the
    module docstring for the format."""

    name: str
    order: int
    grouplike: tuple
    skew: tuple
    commute: dict
    lift: tuple = (0, 0)
    override: dict = None


# ---------------------------------------------------------------------------
# generic construction machinery
# ---------------------------------------------------------------------------

def _finish(name, order, words, mult, gen_data, metadata):
    """Assemble a FinHopf from a mult table plus generator coalgebra data.

    gen_data: {gen: (delta_pairdict, eps_scalar, s_elem)}; comult, counit and
    antipode extend (anti)multiplicatively along the monomial words.
    """
    dim = len(words)
    one = FieldElem.one(order)
    unit_idx = words.index(())
    unit = {unit_idx: one}

    comult, counit, scols = {}, {}, []
    unit_tensor = {(unit_idx, unit_idx): one}
    for i, word in enumerate(words):
        letters = [gen for gen, exp in word for _ in range(exp)]
        d, e, s = dict(unit_tensor), one, {unit_idx: one}
        for gen in letters:
            gd, ge, _ = gen_data[gen]
            d = mul2(mult, d, gd)
            e = e * ge
        for gen in reversed(letters):
            s = mul(mult, s, gen_data[gen][2])
        if d:
            comult[i] = d
        if e:
            counit[i] = e
        scols.append(s)
    # antipode is antimultiplicative: S(w1^a w2^b) = S(w2)^b S(w1)^a
    anti = LinearMap(order, dim, dim, scols)
    return FinHopf(name, dim, order, mult, unit, comult, counit, anti, metadata)


class _Basis:
    """Mixed-radix monomial basis over a datum's generators, first fastest."""

    def __init__(self, datum: PointedDatum):
        self.gens = [g for g, _ in datum.grouplike] + [x for x, _, _ in datum.skew]
        self.radix = [m for _, m in datum.grouplike] + [n for _, n, _ in datum.skew]
        self.grouplikes = len(datum.grouplike)
        self.exps = [e[::-1] for e in product(*(range(r) for r in reversed(self.radix)))]
        self.index = {e: i for i, e in enumerate(self.exps)}
        self.words = [tuple((g, k) for g, k in zip(self.gens, e) if k) for e in self.exps]
        self.labels = ["*".join(f"{g}^{k}" if k > 1 else g for g, k in w) or "1" for w in self.words]
        self.grouplike_monomials = [i for i, e in enumerate(self.exps) if not any(e[self.grouplikes:])]

    def at(self, exps) -> int:
        """Index of a monomial; grouplike exponents are taken mod their order."""
        ng = self.grouplikes
        key = tuple(k % r for k, r in zip(exps[:ng], self.radix)) + tuple(exps[ng:])
        return self.index[key]

    def of(self, word: dict) -> int:
        return self.at([word.get(g, 0) for g in self.gens])


def _mult_table(datum: PointedDatum, basis: _Basis) -> dict:
    """Each product of two basis monomials, computed once."""
    order, ng = datum.order, basis.grouplikes
    zeta = [FieldElem.zeta(order, t) for t in range(order)]
    pos = {g: a for a, g in enumerate(basis.gens)}
    pairs = [(pos[a], pos[b], k) for (a, b), k in datum.commute.items()]
    s0, s2 = (FieldElem.from_rational(s, order) for s in datum.lift)
    mult = {}
    for i, u in enumerate(basis.exps):
        for j, v in enumerate(basis.exps):
            coeff = zeta[sum(k * u[a] * v[b] for a, b, k in pairs) % order]
            e = [x + y for x, y in zip(u, v)]
            over = [s for s, (_, n, _) in enumerate(datum.skew) if e[ng + s] >= n]
            if not over:
                mult[(i, j)] = {basis.at(e): coeff}
            elif any(datum.lift):
                (s,) = over  # a lifting is only given for a single skew generator
                _, n, w = datum.skew[s]
                e[ng + s] -= n
                row = sp_add_into({}, {basis.at(e): coeff * s0})
                sp_add_into(row, {basis.at([k + n * w.get(g, 0) for g, k in zip(basis.gens, e)]):
                                  coeff * s2})
                if row:
                    mult[(i, j)] = row
    return mult


def _generator_data(datum: PointedDatum, basis: _Basis, mult: dict) -> dict:
    """Delta, eps and S of each generator: grouplikes and skew-primitives."""
    one, zero = FieldElem.one(datum.order), FieldElem.zero(datum.order)
    data = {}
    for g, m in datum.grouplike:
        i = basis.of({g: 1})
        data[g] = ({(i, i): one}, one, {basis.of({g: m - 1}): one})
    for x, _, w in datum.skew:
        i = basis.of({x: 1})
        w_inv = basis.of({g: -k for g, k in w.items()})
        data[x] = ({(i, basis.of({})): one, (basis.of(w), i): one}, zero,
                   sp_scale(mult[(w_inv, i)], -one))
    return data


def _characters(datum: PointedDatum, basis: _Basis) -> list:
    """Algebra maps g -> zeta_M^j, x -> 0 as dual-basis vectors, keeping those
    that respect the lifting: s0 + s2*chi(w)^n = 0."""
    order = datum.order
    zeta = [FieldElem.zeta(order, t) for t in range(order)]
    s0, s2 = (FieldElem.from_rational(s, order) for s in datum.lift)
    steps = [order // m for _, m in datum.grouplike]
    out = []
    for js in product(*(range(m) for _, m in datum.grouplike)):
        def chi(exps):
            return sum(k * j * step for k, j, step in zip(exps, js, steps)) % order

        if any(s0 + s2 * zeta[n * chi([w.get(g, 0) for g in basis.gens]) % order]
               for _, n, w in datum.skew):
            continue
        out.append({i: zeta[chi(basis.exps[i])] for i in basis.grouplike_monomials})
    return out


def _irrep_functionals(order, M):
    """Coefficient functionals of the 2-dim irreps rho_j(g) = diag(a, -a), a = z^j,
    rho_j(x) = [[0, a^2 - 1], [1, 0]], one per j with a^2 != 1, on the basis
    g^k x^e (index k + M*e); for families with x^2 = g^2 - 1."""
    blocks = []
    for j in range(1, M // 2):
        a = FieldElem.zeta(order, j * (order // M))
        beta = a * a - 1
        plus = [a.power(k) for k in range(M)]
        minus = [(-a).power(k) for k in range(M)]
        blocks.append([
            [{k: c for k, c in enumerate(plus)}, {k + M: c * beta for k, c in enumerate(plus)}],
            [{k + M: c for k, c in enumerate(minus)}, {k: c for k, c in enumerate(minus)}],
        ])
    return blocks


def _claims(spec, basis: _Basis, one):
    """Override claims: exponent tuples become basis vectors, lists and dicts
    keep their shape."""
    if isinstance(spec, tuple):
        return {basis.at(spec): one}
    if isinstance(spec, dict):
        return {k: _claims(v, basis, one) for k, v in spec.items()}
    return [_claims(v, basis, one) for v in spec]


def _build_pointed(datum: PointedDatum, fam: str) -> FinHopf:
    order = datum.order
    one = FieldElem.one(order)
    basis = _Basis(datum)
    mult = _mult_table(datum, basis)
    meta = {
        "family": fam,
        "basis_labels": basis.labels,
        "claimed_grouplikes": [{i: one} for i in basis.grouplike_monomials],
        "claimed_generators": {g: {basis.of({g: 1}): one} for g in basis.gens},
        "claimed_matrix_bases": [],
        "dual_grouplikes": _characters(datum, basis),
        "dual_matrix_bases": _irrep_functionals(order, datum.grouplike[0][1]) if any(datum.lift) else [],
    }
    if datum.override is None:
        gen_data = _generator_data(datum, basis, mult)
    else:
        over = dict(datum.override)
        gen_data = {
            g: ({(basis.at(a), basis.at(b)): c for (a, b), c in delta.items()}, eps,
                {basis.at(e): c for e, c in s.items()})
            for g, (delta, eps, s) in over.pop("coalgebra").items()
        }
        meta.update(_claims(over, basis, one))
    return _finish(datum.name, order, basis.words, mult, gen_data, meta)


# ---------------------------------------------------------------------------
# group algebras and their duals
# ---------------------------------------------------------------------------

def group_algebra(group: FiniteGroup) -> FinHopf:
    """kG, family k<group name>: basis the group elements in their frozen order."""
    n, field_order = group.order, group.field_order
    one = FieldElem.one(field_order)
    mult = {(i, j): {group.mul[i][j]: one} for i in range(n) for j in range(n)}
    unit = {0: one}
    comult = {i: {(i, i): one} for i in range(n)}
    counit = {i: one for i in range(n)}
    anti = LinearMap(field_order, n, n, [{group.inv[i]: one} for i in range(n)])
    dual_groups = [
        {i: v for i, v in enumerate(vals) if v} for vals in group.characters
    ]
    dual_blocks = [
        [[{i: m[u][v] for i, m in enumerate(rep) if m[u][v]} for v in range(2)]
         for u in range(2)]
        for rep in group.irreps
    ]
    meta = {
        "family": f"k{group.name}",
        "basis_labels": list(group.labels),
        "claimed_grouplikes": [{i: one} for i in range(n)],
        "claimed_generators": {},
        "claimed_matrix_bases": [],
        "dual_grouplikes": dual_groups,
        "dual_matrix_bases": dual_blocks,
    }
    return FinHopf(f"k{group.name}", n, field_order, mult, unit, comult, counit, anti, meta)


def _group_dual(fam, group):
    d = hopf_dual(group_algebra(group))
    d.name = fam
    d.metadata["family"] = fam
    return d


def _dual_family(fam, inner):
    d = hopf_dual(build(inner))
    d.metadata["family"] = fam
    return d


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

def _check_odd_prime(p):
    if not is_odd_prime(p):
        raise ValueError(f"parameter must be an odd prime, got {p}")


def _gx(name, order, M, k, partner, lift=(0, 0)):
    """g of order M, x^2 = 0 or the lifting, xg = zeta^k gx, Delta(x) = x(x)1 + g^partner(x)x."""
    return PointedDatum(name, order, (("g", M),), (("x", 2, {"g": partner}),),
                        {("x", "g"): k}, lift)


def _taft(N):
    if N < 2:
        raise ValueError("Taft parameter must be >= 2")
    order = N if N >= 3 else 2
    # gx = q xg with q = zeta_N, so xg = q^-1 gx
    return PointedDatum(f"T(zeta_{N})" if N > 2 else "H4", order, (("g", N),),
                        (("x", N, {"g": 1}),), {("x", "g"): -(order // N) % order})


def _four_p(p, name, partner, lift=(0, 0)):
    """am10, am11 and h4xc: g of order 2p anticommutes with x."""
    _check_odd_prime(p)
    return _gx(name, 2 * p, 2 * p, p, partner, lift)


def _am10d(p):
    _check_odd_prime(p)
    order = lcm(4, p)
    # gx = -xi xg with xi = zeta_order^(order/p) a primitive p-th root of unity
    return _gx(f"A(-1,0)*[p={p}]", order, 2 * p, -(order // 2 + order // p) % order, p)


def _k8():
    # relations a^4 = 1, c^2 = 0, ac = xi ca (xi = zeta_4); the matrix-like
    # generators are e11 = a, e12 = a^2 c, e21 = c, e22 = a^3
    e11, e12, e21, e22 = (1, 0), (2, 1), (0, 1), (3, 0)
    one, zero = FieldElem.one(4), FieldElem.zero(4)
    return PointedDatum(
        "K8", 4, (("a", 4),), (("c", 2, {}),), {("c", "a"): 3},
        override={
            "coalgebra": {"a": ({(e11, e11): one, (e12, e21): one}, one, {e22: one}),
                          "c": ({(e21, e11): one, (e22, e21): one}, zero, {e21: -FieldElem.zeta(4)})},
            "claimed_grouplikes": [(0, 0), (2, 0)],
            "claimed_generators": {"a": e11, "b": e12, "c": e21, "d": e22},
            "claimed_matrix_bases": [[[e11, e12], [e21, e22]]],
        },
    )


# family id -> (family string, "{}" marking the parameter; function of the
# parameters returning the datum)
_POINTED = {
    "taft": ("taft{}", _taft),
    "h4": ("h4", lambda: _taft(2)),
    "a2": ("a2", lambda: PointedDatum("A2", 4, (("g", 2),), (("x", 2, {"g": 1}), ("y", 2, {"g": 1})),
                                      {("x", "g"): 2, ("y", "g"): 2, ("y", "x"): 2})),
    "a4p": ("a4p", lambda: _gx("A4'", 4, 4, 2, 1)),
    "a4pp": ("a4pp", lambda: _gx("A4''", 4, 4, 2, 1, lift=(-1, 1))),
    "a4ppp+": ("a4ppp+", lambda: _gx("A4'''(+)", 4, 4, 3, 2)),
    "a4ppp-": ("a4ppp-", lambda: _gx("A4'''(-)", 4, 4, 1, 2)),
    "a22": ("a22", lambda: PointedDatum("A22", 4, (("g", 2), ("h", 2)), (("x", 2, {"g": 1}),),
                                        {("x", "g"): 2, ("x", "h"): 2})),
    "k8": ("k8", _k8),
    "am10": ("am10:{}", lambda p: _four_p(p, f"A(-1,0)[p={p}]", 1)),
    "am10d": ("am10d:{}", _am10d),
    "am11": ("am11:{}", lambda p: _four_p(p, f"A(-1,1)[p={p}]", 1, lift=(-1, 1))),
    "h4xc": ("h4xc:{}", lambda p: _four_p(p, f"H4xC{p}", p)),
}

# every family; the functions of the non-pointed ones take the family string
# and the parameters and return the FinHopf.  parse_family tries the patterns
# in this order, so "kC{}dual" comes before "kC{}".
_FAMILIES = {
    "dual": ("dual:{}", _dual_family),
    "kCdual": ("kC{}dual", lambda fam, n: _group_dual(fam, cyclic_group(n))),
    "kDdual": ("kD{}dual", lambda fam, k: _group_dual(fam, dihedral_group(k))),
    "kC": ("kC{}", lambda fam, n: group_algebra(cyclic_group(n))),
    **_POINTED,
}


# The largest dimension a family parameter may ask for.  The constructors
# build tables of size dim^2 and the axiom checks take dim^3 products, so an
# unbounded parameter is unbounded work; every shipped family is within it.
MAX_FAMILY_DIM = 64

# the dimension of each parametrised family, as a function of its parameter
_FAMILY_DIM = {
    "kCdual": lambda n: n,
    "kDdual": lambda k: 2 * k,
    "kC": lambda n: n,
    "taft": lambda N: N * N,
    **dict.fromkeys(("am10", "am10d", "am11", "h4xc"), lambda p: 4 * p),
}


def parse_family(s: str) -> FamilySpec:
    s = s.strip()
    for fid, (pattern, _) in _FAMILIES.items():
        prefix, param, suffix = pattern.partition("{}")
        if not param and s == pattern:
            return FamilySpec(fid)
        if param and s.startswith(prefix) and s.endswith(suffix):
            param = s[len(prefix):len(s) - len(suffix)]
            try:
                if fid == "dual":
                    # the inner name must be a family itself; store its canonical name
                    return FamilySpec(fid, (family_string(parse_family(param)),))
                value = int(param)
            except FamilyLimitError as e:  # inside dual:, name the whole input
                raise FamilyLimitError(s, e.dim) from None
            except ValueError:  # not an integer, or not a family: try the next pattern
                continue
            dim = _FAMILY_DIM[fid](value)
            if value > 0 and dim > MAX_FAMILY_DIM:  # below 1, the constructor's check speaks
                raise FamilyLimitError(s, dim)
            return FamilySpec(fid, (value,))
    raise UnknownFamilyError(f"unknown family {s!r}")


def family_string(spec: FamilySpec) -> str:
    if spec.family_id not in _FAMILIES:
        raise UnknownFamilyError(f"unknown family id {spec.family_id!r}")
    return _FAMILIES[spec.family_id][0].format(*spec.params)


def _build_unverified(spec: FamilySpec) -> FinHopf:
    fam = family_string(spec)
    make = _FAMILIES[spec.family_id][1]
    if spec.family_id in _POINTED:
        return _build_pointed(make(*spec.params), fam)
    return make(fam, *spec.params)


def _datum(fam: str) -> PointedDatum | None:
    """The datum of a pointed family (or k8); None for any other name."""
    try:
        spec = parse_family(fam)
        return _POINTED[spec.family_id][1](*spec.params) if spec.family_id in _POINTED else None
    except ValueError:  # not a family name, or a parameter out of range
        return None


def presentation(family) -> Presentation | None:
    """Generators, basis words and defining relations of a pointed family (or
    k8); None for any other family or name."""
    datum = _datum(family) if isinstance(family, str) else None
    if datum is None:
        return None
    basis = _Basis(datum)
    commute = [(a, b, datum.commute.get((a, b), 0))
               for ai, a in enumerate(basis.gens) for b in basis.gens[:ai]]

    def relations(images, K):
        step = K.order // datum.order
        failed = []
        for g, m in datum.grouplike:
            if K.elem_power(images[g], m) != K.one_elem():
                failed.append(f"{g}^{m}=1")
        s0, s2 = (K.scalar(s) for s in datum.lift)
        for x, n, w in datum.skew:
            rhs = sp_scale(K.one_elem(), s0)
            if s2:
                sp_add_into(rhs, K.elem_power(K.word_image(images, w.items()), n), s2)
            if K.elem_power(images[x], n) != rhs:
                failed.append(f"{x}^{n}")
        for a, b, k in commute:
            # b*a = q a*b with q = zeta^-k
            q = FieldElem.zeta(K.order, -k * step)
            if K.mul(images[b], images[a]) != sp_scale(K.mul(images[a], images[b]), q):
                failed.append(f"{b}{a}={a}{b}" if q == 1 else f"{b}{a}+{a}{b}=0" if q == -1
                              else f"{b}{a}=q*{a}{b}")
        return failed

    pointed = datum.override is None
    return Presentation(
        gen_names=list(basis.gens),
        grouplike_gens=dict(datum.grouplike) if pointed else {},
        skew_gens={x: dict(w) for x, _, w in datum.skew} if pointed else {},
        words=basis.words,
        relations=relations,
    )


_BUILD_CACHE: dict[str, FinHopf] = {}


def build(spec) -> FinHopf:
    """Construct and verify an atlas family; hard error on any failure."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    fam = family_string(spec)
    if fam in _BUILD_CACHE:
        return _BUILD_CACHE[fam]
    h = _build_unverified(spec)
    rep = verify_bialgebra(h)
    rep.failures += verify_antipode(h).failures
    if not rep.ok:
        raise AtlasConstructionError(f"{fam}: axioms failed: {rep.failures[:3]}", rep)
    _verify_metadata_claims(h, fam)
    _BUILD_CACHE[fam] = h
    return h


def _verify_metadata_claims(h: FinHopf, fam: str):
    """Claimed grouplikes and matrix-like bases, of h and (the dual_* claims)
    of its dual."""
    for k, side in ((h, ""), (hopf_dual(h), "dual ")):
        one = FieldElem.one(k.order)
        # No unit check S(g)g = 1 = gS(g): build() calls this only after
        # verify_antipode has passed, and for Delta(g) = g(x)g the antipode
        # axioms read S(g)g = eps(g)1 = gS(g).  hopf_dual transposes S, m and
        # Delta, so the dual's antipode axioms are the transpose of h's.
        for g in k.metadata.get("claimed_grouplikes", []):
            if not k.is_grouplike(g):
                raise AtlasConstructionError(f"{fam}: {side}claimed grouplike fails Delta/eps")
        for block in k.metadata.get("claimed_matrix_bases", []):
            d = len(block)
            for u in range(d):
                for v in range(d):
                    expect = {}
                    for l in range(d):
                        sp_add_into(expect, k.tensor_elem(block[u][l], block[l][v]))
                    if k.delta(block[u][v]) != expect:
                        raise AtlasConstructionError(f"{fam}: {side}matrix-like comult fails at {(u, v)}")
                    target = one if u == v else FieldElem.zero(k.order)
                    if k.eps(block[u][v]) != target:
                        raise AtlasConstructionError(f"{fam}: {side}matrix-like counit fails at {(u, v)}")
            vecs = [block[u][v] for u in range(d) for v in range(d)]
            if Subspace.from_vectors(k.order, k.dim, vecs).dim != d * d:
                raise AtlasConstructionError(f"{fam}: {side}matrix-like basis not independent")


def list_families():
    """The finite family list exercised by the acceptance suite."""
    fams = [f"kC{n}" for n in range(1, 13)]
    fams += [f"kC{n}dual" for n in range(1, 13)]
    fams += [f"kD{k}dual" for k in (3, 4, 5, 6)]
    fams += ["taft2", "taft3", "taft4", "h4"]
    fams += ["a2", "a4p", "a4pp", "a4ppp+", "a4ppp-", "a22", "k8"]
    for p in (3, 5):
        fams += [f"am10:{p}", f"am10d:{p}", f"am11:{p}", f"h4xc:{p}"]
    return fams


# ---------------------------------------------------------------------------
# shipped isomorphism witnesses
#
# Coefficients were produced by the bounded grid search in isowitness and
# frozen here as data; verify via isowitness.verify_iso.  Vectors are given
# as {basis index: power-basis coordinate strings} at the stated field order.
# ---------------------------------------------------------------------------

_WITNESS_DATA = [
    {"source": "taft2", "target": "dual:taft2", "N": 2,
     "images": {"g": {0: ["1"], 1: ["-1"]}, "x": {2: ["1"], 3: ["-1"]}}},
    {"source": "h4", "target": "dual:h4", "N": 2,
     "images": {"g": {0: ["1"], 1: ["-1"]}, "x": {2: ["1"], 3: ["-1"]}}},
    {"source": "taft3", "target": "dual:taft3", "N": 3,
     "images": {"g": {0: ["1", "0"], 1: ["0", "1"], 2: ["-1", "-1"]},
                "x": {3: ["1", "0"], 4: ["0", "1"], 5: ["-1", "-1"]}}},
    {"source": "taft4", "target": "dual:taft4", "N": 4,
     "images": {"g": {0: ["1", "0"], 1: ["0", "1"], 2: ["-1", "0"], 3: ["0", "-1"]},
                "x": {4: ["1", "0"], 5: ["0", "1"], 6: ["-1", "0"], 7: ["0", "-1"]}}},
    {"source": "a2", "target": "dual:a2", "N": 4,
     "images": {"g": {0: ["1", "0"], 1: ["-1", "0"]},
                "x": {4: ["1", "0"], 5: ["-1", "0"]},
                "y": {2: ["1", "0"], 3: ["-1", "0"]}}},
    {"source": "a22", "target": "dual:a22", "N": 4,
     "images": {"g": {0: ["1", "0"], 1: ["-1", "0"], 2: ["-1", "0"], 3: ["1", "0"]},
                "h": {0: ["1", "0"], 1: ["-1", "0"], 2: ["1", "0"], 3: ["-1", "0"]},
                "x": {4: ["1", "0"], 5: ["-1", "0"], 6: ["-1", "0"], 7: ["1", "0"]}}},
    {"source": "a4ppp+", "target": "dual:a4p", "N": 4,
     "images": {"g": {0: ["1", "0"], 1: ["0", "1"], 2: ["-1", "0"], 3: ["0", "-1"]},
                "x": {4: ["1", "0"], 5: ["-1", "0"], 6: ["1", "0"], 7: ["-1", "0"]}}},
    {"source": "a4ppp+", "target": "a4ppp-", "N": 4,
     "images": {"g": {3: ["1", "0"]}, "x": {4: ["1", "0"]}}},
    {"source": "h4xc:3", "target": "dual:h4xc:3", "N": 6,
     "images": {"g": {0: ["1", "0"], 1: ["0", "1"], 2: ["-1", "1"],
                      3: ["-1", "0"], 4: ["0", "-1"], 5: ["1", "-1"]},
                "x": {6: ["1", "0"], 7: ["-1", "0"], 8: ["1", "0"],
                      9: ["-1", "0"], 10: ["1", "0"], 11: ["-1", "0"]}}},
    # change of basis between the presentation-built k8 and the dual of a4pp;
    # the scaling needs sqrt(2) = z8 - z8^3, so this witness lives in Q(zeta_8)
    {"source": "k8", "target": "dual:a4pp", "N": 8,
     "images": {"a": {0: ["1", "0", "0", "0"], 1: ["0", "0", "1", "0"],
                      2: ["-1", "0", "0", "0"], 3: ["0", "0", "-1", "0"]},
                "c": {4: ["0", "1", "0", "-1"], 5: ["0", "-1", "0", "-1"],
                      6: ["0", "-1", "0", "1"], 7: ["0", "1", "0", "1"]}}},
]


def builtin_witnesses():
    """Shipped duality / change-of-basis witnesses, as IsoWitness values."""
    from .isowitness import IsoWitness

    return [
        IsoWitness(rec["source"], rec["target"], {
            gen: {int(i): FieldElem(rec["N"], coords) for i, coords in vec.items()}
            for gen, vec in rec["images"].items()
        })
        for rec in _WITNESS_DATA
    ]


# ---------------------------------------------------------------------------
# sub-Hopf-algebra claims: which families contain a copy of h4
# ---------------------------------------------------------------------------

def _h4_embedding_indices(fam):
    """Basis indices of the images of h4's g and x in a pointed family: w and x
    for its first skew generator x when x^2 = 0 and the partner w has order 2
    (then wx = -xw).  None otherwise: the family claims to contain no h4."""
    datum = _datum(fam)
    if datum is None or datum.override is not None:
        raise UnknownFamilyError(f"no sub-Hopf claim recorded for {fam!r}")
    x, n, w = datum.skew[0]
    basis = _Basis(datum)
    w_squared = basis.of({g: 2 * k for g, k in w.items()})
    if n == 2 and not any(datum.lift) and basis.of(w) != 0 and w_squared == 0:  # w^2 = 1 != w
        return basis.of(w), basis.of({x: 1})
    return None


@dataclass
class SubHopfClaim:
    family: str
    contains_h4: bool
    embedding: object = None    # LinearMap h4 -> H for positive claims
    certificate: dict = None    # exhaustive negative evidence


def sub_hopf_claims(fam: str) -> SubHopfClaim:
    """Positive claims return a verified embedding of h4; negative claims an
    exhaustive certificate over all certified grouplikes of order 2."""
    h = build(fam)
    h4 = build("h4")
    pos = _h4_embedding_indices(fam)
    if pos is not None:
        G, X = (h.basis_elem(i) for i in pos)
        cols = [h.one_elem(), G, X, h.mul(G, X)]
        f = LinearMap(h.order, 4, h.dim, cols)
        rep = verify_hopf_morphism(f, h4.embed(h.order), h)
        if not rep.ok or f.rank() != 4:
            raise AtlasConstructionError(f"{fam}: shipped h4 embedding fails verification")
        return SubHopfClaim(fam, True, embedding=f)
    rep = inv.grouplikes(h)
    if not rep.complete:
        raise AtlasConstructionError(f"{fam}: grouplikes not certified, cannot certify absence")
    evidence = []
    for g, o in zip(rep.verified, rep.orders):
        if o != 2:
            continue
        # any embedding sends the h4 grouplike to an order-2 grouplike c and
        # the skew generator to a nonzero v in P_{1,c} with cv+vc=0, v^2=0
        space = inv.skew_space(h, h.one_elem(), g)
        basis = space.basis_vectors()
        anticomm_cols = [sp_add_into(h.mul(g, b), h.mul(b, g)) for b in basis]
        coeffs = kernel_of_columns(h.order, h.dim, anticomm_cols, len(basis))
        span = LinearMap(h.order, len(basis), h.dim, basis)
        witnesses = [span.apply(t) for t in coeffs.basis_vectors()]
        if len(witnesses) == 0:
            evidence.append({"skew_dim": space.dim, "anticommutant_dim": 0})
        elif len(witnesses) == 1:
            sq = h.mul(witnesses[0], witnesses[0])
            if not sq:
                raise AtlasConstructionError(f"{fam}: unexpected h4 embedding found")
            evidence.append({"skew_dim": space.dim, "anticommutant_dim": 1, "square_nonzero": True})
        else:
            raise AtlasConstructionError(
                f"{fam}: anticommutant dimension {len(witnesses)} needs quadratic solving"
            )
    return SubHopfClaim(
        fam, False,
        certificate={"order2_grouplikes": sum(1 for o in rep.orders if o == 2),
                     "per_grouplike": evidence},
    )


# ---------------------------------------------------------------------------
# shipped surjection examples for the coinvariant laws
# ---------------------------------------------------------------------------

def shipped_surjections():
    """Three verified Hopf algebra surjections used by the coinvariant laws."""
    h4 = build("h4")
    kc3 = build("kC3")
    t = tensor_hopf(h4, kc3)  # index (i,a) -> i*3 + a
    cols_to_h4 = [{i: FieldElem.one(t.order)} for i in range(4) for _ in range(3)]
    pi1 = LinearMap(t.order, 12, 4, cols_to_h4)
    cols_to_kc3 = [{a: h4.counit[i].embed(t.order)} if h4.counit.get(i) else {}
                   for i in range(4) for a in range(3)]
    pi2 = LinearMap(t.order, 12, 3, cols_to_kc3)
    return {
        "h4xc3-to-h4": (t, h4, pi1),
        "h4xc3-to-kc3": (t, kc3, pi2),
        "id-h4": (h4, h4, LinearMap.identity(h4.order, 4)),
    }
