"""Golden digests of CLI output: export/dual files, invariants and iso stdout.

The SHA-256 digests in golden_digests.json pin the byte-exact output of
`hopfatlas export` and `hopfatlas dual` for every family in list_families(),
of `hopfatlas invariants` on the pointed families, and of the `hopfatlas iso`
search on the AC6 pairs.  Regenerate them (only when an output change is
intended) with

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

from hopfatlas.atlas import list_families
from hopfatlas.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

INVARIANT_FAMILIES = ("taft2", "taft3", "taft4", "h4", "a2", "a4p", "a4pp", "a4ppp+",
                      "a4ppp-", "a22", "k8", "am10:3", "am10d:3", "am11:3", "h4xc:3")
ISO_PAIRS = (("taft2", "dual:taft2"), ("taft3", "dual:taft3"), ("taft4", "dual:taft4"),
             ("a2", "dual:a2"), ("a22", "dual:a22"), ("a4ppp+", "dual:a4p"),
             ("a4ppp+", "a4ppp-"))


def cases():
    """(key, argv) for every pinned invocation; export writes to a file."""
    out = []
    for fam in list_families():
        out.append((f"export {fam}", ["export", fam, "--out"]))
        out.append((f"dual {fam}", ["dual", fam]))
    for fam in INVARIANT_FAMILIES:
        out.append((f"invariants {fam}", ["invariants", fam]))
    for a, b in ISO_PAIRS:
        out.append((f"iso {a} {b}", ["iso", a, b]))
    return out


def output_digest(argv):
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        if argv[-1] == "--out":
            argv = argv + [path]
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        text = Path(path).read_text() if argv[0] == "export" else stdout.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


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
