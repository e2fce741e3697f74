"""Canonical serialization: algebra files and witness files.

Algebra files are JSON with entries sorted lexicographically by index tuple
and coefficients in the exact-scalars format {"N": n, "coords": ["p/q", ...]};
dumping is deterministic, so files round-trip byte-identically.
"""

from __future__ import annotations

import json

from .hopf import FinHopf
from .linalg import LinearMap
from .scalars import FieldElem

FORMAT_VERSION = 1

_META_VEC_KEYS = ("claimed_grouplikes", "dual_grouplikes")
_META_BLOCK_KEYS = ("claimed_matrix_bases", "dual_matrix_bases")
_META_PLAIN_KEYS = ("family", "basis_labels", "dual_of")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _vec_json(vec: dict):
    return [[i, c.to_json()] for i, c in sorted(vec.items())]


class FormatError(ValueError):
    """A file that is not well-formed for its format."""


def _coeff_load(cj, order: int) -> FieldElem:
    """A coefficient {"N": order, "coords": ["p/q", ...]} with phi(order) coordinates."""
    if not (isinstance(cj, dict) and type(cj.get("N")) is int and cj["N"] == order
            and isinstance(cj.get("coords"), list)
            and all(isinstance(s, str) for s in cj["coords"])):
        raise FormatError(f"bad coefficient {cj!r} for N={order}")
    # phi(n) >= sqrt(n/2): reject too few coordinates before the O(n) totient
    if 2 * len(cj["coords"]) ** 2 < order:
        raise FormatError(f"bad coefficient {cj!r}: too few coordinates for order {order}")
    try:
        return FieldElem.from_json(cj)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad coefficient {cj!r}: {e}") from None


def _json_load(text: str):
    try:
        return json.loads(text)
    except ValueError as e:
        raise FormatError(f"not JSON: {e}") from None


def _checked(key, value, kind):
    """value, if it is a kind (list or dict); FormatError otherwise."""
    if not isinstance(value, kind):
        raise FormatError(f"{key!r} is not {'a list' if kind is list else 'an object'}")
    return value


def _entries_load(key, entries, arity: int, dim: int, order: int) -> list:
    """[i_1, ..., i_arity, coefficient] entries, each index in range(dim), as
    (i_1, ..., i_arity, FieldElem) tuples."""
    out = []
    for entry in _checked(key, entries, list):
        if not (isinstance(entry, list) and len(entry) == arity + 1
                and all(type(i) is int for i in entry[:arity])):
            raise FormatError(f"{key!r}: {entry!r} is not [{'index, ' * arity}coefficient]")
        for i in entry[:arity]:
            if not 0 <= i < dim:
                raise FormatError(f"{key!r}: index {i} out of range for dimension {dim}")
        out.append((*entry[:arity], _coeff_load(entry[arity], order)))
    return out


def _vec_load(key, entries, dim: int, order: int) -> dict:
    """A sparse vector: [index, coefficient] pairs with index in range(dim)."""
    return dict(_entries_load(key, entries, 1, dim, order))


def _dense_json(vec: dict, dim: int, order: int):
    zero = FieldElem.zero(order)
    return [vec.get(i, zero).to_json() for i in range(dim)]


def algebra_to_json(h: FinHopf) -> dict:
    mult = []
    for (i, j), row in h.mult.items():
        for k, c in row.items():
            mult.append([i, j, k, c.to_json()])
    mult.sort(key=lambda e: (e[0], e[1], e[2]))
    comult = []
    for i, row in h.comult.items():
        for (j, k), c in row.items():
            comult.append([i, j, k, c.to_json()])
    comult.sort(key=lambda e: (e[0], e[1], e[2]))
    antipode = []
    for j, col in enumerate(h.antipode.columns):
        for i, c in col.items():
            antipode.append([i, j, c.to_json()])
    antipode.sort(key=lambda e: (e[0], e[1]))
    meta = {}
    for key in _META_PLAIN_KEYS:
        if key in h.metadata:
            meta[key] = h.metadata[key]
    for key in _META_VEC_KEYS:
        if key in h.metadata:
            meta[key] = [_vec_json(v) for v in h.metadata[key]]
    if "claimed_generators" in h.metadata:
        meta["claimed_generators"] = {
            name: _vec_json(v) for name, v in sorted(h.metadata["claimed_generators"].items())
        }
    for key in _META_BLOCK_KEYS:
        if key in h.metadata:
            meta[key] = [
                [[_vec_json(v) for v in row] for row in block]
                for block in h.metadata[key]
            ]
    return {
        "format": FORMAT_VERSION,
        "name": h.name,
        "dim": h.dim,
        "N": h.order,
        "mult": mult,
        "unit": _dense_json(h.unit, h.dim, h.order),
        "comult": comult,
        "counit": _dense_json(h.counit, h.dim, h.order),
        "antipode": antipode,
        "metadata": meta,
    }


def algebra_from_json(obj) -> FinHopf:
    """The algebra an algebra file holds; a file that is not well-formed for
    the format, in its header, its tables, its metadata's structure or any
    coefficient, raises FormatError."""
    if not (isinstance(obj, dict) and obj.get("format") == FORMAT_VERSION):
        raise FormatError(f"not an algebra file of format {FORMAT_VERSION}")
    order, dim, name = obj.get("N"), obj.get("dim"), obj.get("name")
    if not (type(order) is int and order >= 1 and type(dim) is int and dim >= 1
            and isinstance(name, str)):
        raise FormatError(f"need a string name and integers N, dim >= 1, got "
                          f"name={name!r}, N={order!r}, dim={dim!r}")
    dense = {}  # read first: their lengths bound dim by the file's size
    for key in ("unit", "counit"):
        coeffs = obj.get(key)
        if not (isinstance(coeffs, list) and len(coeffs) == dim):
            raise FormatError(f"{key!r} is not a list of {dim} coefficients")
        coeffs = enumerate(_coeff_load(cj, order) for cj in coeffs)
        dense[key] = {i: c for i, c in coeffs if c}
    mult = {}
    for i, j, k, c in _entries_load("mult", obj.get("mult"), 3, dim, order):
        mult.setdefault((i, j), {})[k] = c
    comult = {}
    for i, j, k, c in _entries_load("comult", obj.get("comult"), 3, dim, order):
        comult.setdefault(i, {})[(j, k)] = c
    cols = [dict() for _ in range(dim)]
    for i, j, c in _entries_load("antipode", obj.get("antipode"), 2, dim, order):
        cols[j][i] = c
    meta = {}
    raw = _checked("metadata", obj.get("metadata", {}), dict)
    for key in _META_PLAIN_KEYS:
        if key in raw:
            meta[key] = raw[key]
    for key in _META_VEC_KEYS:
        if key in raw:
            meta[key] = [_vec_load(key, v, dim, order) for v in _checked(key, raw[key], list)]
    if "claimed_generators" in raw:
        meta["claimed_generators"] = {
            gen: _vec_load(gen, v, dim, order)
            for gen, v in _checked("claimed_generators", raw["claimed_generators"], dict).items()
        }
    for key in _META_BLOCK_KEYS:
        if key in raw:
            meta[key] = [
                [[_vec_load(key, v, dim, order) for v in _checked(key, row, list)]
                 for row in _checked(key, block, list)]
                for block in _checked(key, raw[key], list)
            ]
    return FinHopf(
        name, dim, order, mult, dense["unit"], comult, dense["counit"],
        LinearMap(order, dim, dim, cols), meta,
    )


def dump_algebra(h: FinHopf) -> str:
    return canonical_json(algebra_to_json(h))


def load_algebra(text: str) -> FinHopf:
    return algebra_from_json(_json_load(text))


def witness_to_json(w) -> dict:
    images = {}
    order = None
    for gen, vec in sorted(w.generator_images.items()):
        images[gen] = _vec_json(vec)
        for c in vec.values():
            order = c.order
    return {
        "format": FORMAT_VERSION,
        "source": w.source_family,
        "target": w.target,
        "N": order,
        "generator_images": images,
    }


def load_witness(text: str, target: FinHopf):
    """Parse a witness file whose images live in target's basis; anything that
    is not a well-formed witness raises FormatError.  The file's N, the order
    of every coefficient, must be a multiple of the target's order."""
    from .isowitness import IsoWitness

    obj = _json_load(text)
    if not isinstance(obj, dict) or obj.get("format") != FORMAT_VERSION:
        raise FormatError(f"not a witness file of format {FORMAT_VERSION}")
    images = obj.get("generator_images")
    if not (isinstance(obj.get("source"), str) and isinstance(obj.get("target"), str)
            and isinstance(images, dict)):
        raise FormatError("need string source and target and a generator_images object")
    order = obj.get("N")
    if not (type(order) is int and order >= 1 and order % target.order == 0):
        raise FormatError(f"N={order!r} is not a multiple of the target's order {target.order}")
    return IsoWitness(obj["source"], obj["target"],
                      {gen: _vec_load(gen, v, target.dim, order) for gen, v in images.items()})


def dump_witness(w) -> str:
    return canonical_json(witness_to_json(w))
