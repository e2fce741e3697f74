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


def _vec_load(key, entries, dim: int, order: int) -> dict:
    """A sparse vector: [index, coefficient] pairs with index in range(dim)."""
    if not isinstance(entries, list):
        raise FormatError(f"{key!r} is not a list")
    vec = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2 and type(entry[0]) is int):
            raise FormatError(f"{key!r}: {entry!r} is not an [index, coefficient] pair")
        i, cj = entry
        if not 0 <= i < dim:
            raise FormatError(f"{key!r}: index {i} out of range for dimension {dim}")
        vec[i] = _coeff_load(cj, order)
    return vec


def _dense_json(vec: dict, dim: int, order: int):
    zero = FieldElem.zero(order)
    return [vec.get(i, zero).to_json() for i in range(dim)]


def _dense_load(lst):
    out = {}
    for i, cj in enumerate(lst):
        c = FieldElem.from_json(cj)
        if c:
            out[i] = c
    return out


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
    order = obj["N"]
    dim = obj["dim"]
    mult = {}
    for i, j, k, cj in obj["mult"]:
        mult.setdefault((i, j), {})[k] = FieldElem.from_json(cj)
    comult = {}
    for i, j, k, cj in obj["comult"]:
        comult.setdefault(i, {})[(j, k)] = FieldElem.from_json(cj)
    cols = [dict() for _ in range(dim)]
    for i, j, cj in obj["antipode"]:
        cols[j][i] = FieldElem.from_json(cj)
    meta = {}
    raw = obj.get("metadata", {})
    for key in _META_PLAIN_KEYS:
        if key in raw:
            meta[key] = raw[key]
    for key in _META_VEC_KEYS:
        if key in raw:
            meta[key] = [_vec_load(key, v, dim, order) for v in raw[key]]
    if "claimed_generators" in raw:
        meta["claimed_generators"] = {
            name: _vec_load(name, v, dim, order) for name, v in raw["claimed_generators"].items()
        }
    for key in _META_BLOCK_KEYS:
        if key in raw:
            meta[key] = [
                [[_vec_load(key, v, dim, order) for v in row] for row in block]
                for block in raw[key]
            ]
    return FinHopf(
        obj["name"], dim, order, mult, _dense_load(obj["unit"]), comult,
        _dense_load(obj["counit"]), LinearMap(order, dim, dim, cols), meta,
    )


def dump_algebra(h: FinHopf) -> str:
    return canonical_json(algebra_to_json(h))


def load_algebra(text: str) -> FinHopf:
    return algebra_from_json(json.loads(text))


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
        "target": w.target if isinstance(w.target, str) else w.target.name,
        "N": order,
        "generator_images": images,
    }


def load_witness(text: str, target: FinHopf):
    """Parse a witness file whose images live in target's basis; anything that
    is not a well-formed witness raises FormatError.  The file's N, the order
    of every coefficient, must be a multiple of the target's order."""
    from .isowitness import IsoWitness

    try:
        obj = json.loads(text)
    except ValueError as e:
        raise FormatError(f"not JSON: {e}") from None
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
