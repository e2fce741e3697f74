"""Golden digests of CLI output: algebra files, prover traces and verb stdout.

The SHA-256 digests in golden_digests.json pin the byte-exact output of
`hopfatlas export` and `hopfatlas dual` for every family in list_families(),
of `hopfatlas invariants` on the pointed families and on duals with several
grouplikes (kC{n}dual, kD{n}dual, dual:...), of the `hopfatlas iso` search on
the AC6 pairs, of `hopfatlas coinv` on the shipped surjections (both sides),
of the algebra file of `tensor_hopf` on a few pairs, and of `hopfatlas prove`
(stdout and the --trace file, a pair of digests per key) on a few dimensions
under the base pack, the extended pack, and the extended pack with every flag
and axiom, and on the two largest pinned dimensions, 160 and 200, under the
base and the extended pack. They also pin the stdout of `hopfatlas status`
on every dimension 2..100, of `hopfatlas table` in both formats, and of
`hopfatlas suite`.
Regenerate them (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hopfatlas.atlas import build, list_families
from hopfatlas.cli import main
from hopfatlas.hopf import tensor_hopf
from hopfatlas.serialize import dump_algebra

DIGESTS = Path(__file__).with_name("golden_digests.json")

INVARIANT_FAMILIES = ("taft2", "taft3", "taft4", "h4", "a2", "a4p", "a4pp", "a4ppp+",
                      "a4ppp-", "a22", "k8", "am10:3", "am10d:3", "am11:3", "h4xc:3",
                      "am10:5", "am11:5", "h4xc:5", "kC6dual", "kC8dual", "kC11dual",
                      "kC12dual", "kD4dual", "kD6dual", "dual:kD3dual", "dual:am11:3")
ISO_PAIRS = (("taft2", "dual:taft2"), ("taft3", "dual:taft3"), ("taft4", "dual:taft4"),
             ("a2", "dual:a2"), ("a22", "dual:a22"), ("a4ppp+", "dual:a4p"),
             ("a4ppp+", "a4ppp-"))
SURJECTIONS = ("h4xc3-to-h4", "h4xc3-to-kc3", "id-h4")
TENSOR_PAIRS = (("h4", "kC3"), ("taft3", "kC2"), ("k8", "kC2dual"), ("a22", "h4"),
                ("kD3dual", "taft2"))
PROVE_DIMS = (42, 56, 66, 70, 78, 96)
PROVE_SETTINGS = (["--pack", "base"], ["--pack", "extended"],
                  ["--pack", "extended", "--flag", "free-translation", "--flag", "full-orbit=2",
                   "--axiom", "pq-half-dim"])
PROVE_LARGE_DIMS = (160, 200)
PROVE_LARGE_SETTINGS = (["--pack", "base"], ["--pack", "extended"])
STATUS_DIMS = range(2, 101)
TABLE_FORMATS = ("md", "csv")


def cases():
    """(key, argv) for every pinned invocation; export and prove --trace
    write to a file."""
    out = []
    for fam in list_families():
        out.append((f"export {fam}", ["export", fam, "--out"]))
        out.append((f"dual {fam}", ["dual", fam]))
    for fam in INVARIANT_FAMILIES:
        out.append((f"invariants {fam}", ["invariants", fam]))
    for a, b in ISO_PAIRS:
        out.append((f"iso {a} {b}", ["iso", a, b]))
    for name in SURJECTIONS:
        for side in ("left", "right"):
            out.append((f"coinv {name} {side}", ["coinv", name, "--side", side]))
    for a, b in TENSOR_PAIRS:
        out.append((f"tensor {a} {b}", ["tensor", a, b]))
    for dims, settings in ((PROVE_DIMS, PROVE_SETTINGS), (PROVE_LARGE_DIMS, PROVE_LARGE_SETTINGS)):
        for n in dims:
            for setting in settings:
                argv = ["prove", str(n), *setting]
                out.append((" ".join(argv), argv + ["--trace"]))
    for n in STATUS_DIMS:
        out.append((f"status {n}", ["status", str(n)]))
    for fmt in TABLE_FORMATS:
        out.append((f"table --format {fmt}", ["table", "--format", fmt]))
    out.append(("suite", ["suite"]))
    return out


def output_digest(argv):
    if argv[0] == "tensor":
        text = dump_algebra(tensor_hopf(build(argv[1]), build(argv[2])))
        return 0, sha256(text)
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        if argv[-1] in ("--out", "--trace"):
            argv = argv + [path]
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if argv[0] == "prove":
            return code, [sha256(stdout.getvalue()), sha256(Path(path).read_text())]
        text = Path(path).read_text() if argv[0] == "export" else stdout.getvalue()
    return code, sha256(text)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key,argv", cases(), ids=[key for key, _ in cases()])
def test_output_matches_golden_digest(key, argv):
    want = json.loads(DIGESTS.read_text())[key]
    code, digest = output_digest(argv)
    assert code == 0 and digest == want, key


if __name__ == "__main__":
    digests = {}
    for key, argv in cases():
        code, digest = output_digest(argv)
        assert code == 0, key
        digests[key] = digest
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
