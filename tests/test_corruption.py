"""Seeded corruption of the three readers: traces, algebra files, witnesses.

Each reader gets 200 mutants of well-formed files, drawn by
HOPFATLAS_TEST_SEED: byte flips, truncation, deleted and duplicated keys
and list entries, values of the wrong type, out-of-range indices and huge
integers.  Every mutant must either load cleanly or raise the reader's own
error (TraceError or FormatError), never anything else; the CLI turns a
few of the rejected ones into exit code 4 and one error line.  The whole
file runs in well under 3 s.
"""

import json
import os
import random

import pytest

from hopfatlas.atlas import build, builtin_witnesses
from hopfatlas.cli import main
from hopfatlas.prover import FREE_TRANSLATION, TraceError, full_orbit, prove, replay
from hopfatlas.serialize import FormatError, dump_algebra, dump_witness, load_algebra, load_witness

TEST_SEED = int(os.environ.get("HOPFATLAS_TEST_SEED", "0"))
MUTANTS = 200
FAMILIES = ("taft2", "k8", "dual:taft3", "h4xc:3")
WRONG_TYPES = (None, True, 0.5, "x", "1/0", [], {}, [[]], -1)
# placeholders that json.dumps writes as a string, swapped for raw text after
DUPLICATE, HUGE = "\x00duplicate", "\x00huge"


def _paths(obj, path=()):
    """The path of every value below the root of a parsed JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _edit(obj, path, change):
    """obj with change(parent, key) applied to a copy of the value's parent;
    only the containers along the path are copied."""
    obj = dict(obj) if isinstance(obj, dict) else list(obj)
    if len(path) == 1:
        change(obj, path[0])
    else:
        obj[path[0]] = _edit(obj[path[0]], path[1:], change)
    return obj


def _tree_mutant(rng, obj, paths):
    path, value = rng.choice(paths)
    kind = rng.choice(("delete", "duplicate", "type", "index", "huge"))
    if kind == "index" and type(value) is int:
        new = rng.choice((-1, value + 1, value + 1000, 2 ** 63))
    elif kind == "huge":
        new = rng.choice((10 ** 30, -(2 ** 64), HUGE))
    else:
        new = rng.choice(WRONG_TYPES + (value,))

    def change(parent, key):
        if kind == "delete":
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, dict):
            parent[DUPLICATE] = new  # written after the original, so JSON keeps it
        elif kind == "duplicate":
            parent.insert(key, parent[key])
        else:
            parent[key] = new

    text = json.dumps(_edit(obj, path, change), separators=(",", ":"))
    text = text.replace(json.dumps(DUPLICATE), json.dumps(str(path[-1])), 1)
    return f"{kind} at {path}", text.replace(json.dumps(HUGE), "9" * 5000)


def _text_mutant(rng, text):
    if rng.random() < 0.5:
        cut = rng.randrange(len(text))
        return f"truncated at {cut}", text[:cut]
    data = bytearray(text.encode())
    flips = [(rng.randrange(len(data)), 1 << rng.randrange(8)) for _ in range(rng.randint(1, 3))]
    for i, bit in flips:
        data[i] ^= bit
    return f"flipped {flips}", data.decode("utf-8", "replace")


def mutants(rng, texts):
    """MUTANTS (i, description, text) triples, each from texts[i]."""
    sources = [(text, json.loads(text)) for text in texts]
    sources = [(text, obj, list(_paths(obj))) for text, obj in sources]
    for _ in range(MUTANTS):
        i = rng.randrange(len(sources))
        text, obj, paths = sources[i]
        yield i, *(_text_mutant(rng, text) if rng.random() < 0.4 else _tree_mutant(rng, obj, paths))


def _rejected(read, cases, error):
    """The (i, text) mutants that read(i, text) rejects with error; any other
    exception fails the test."""
    rejected = []
    for i, what, text in cases:
        try:
            read(i, text)
        except error:
            rejected.append((i, text))
        except Exception as e:  # any other escape is what the test looks for
            pytest.fail(f"source {i}, {what}: {type(e).__name__}: {e}"[:500])
    return rejected


def _assert_exit_4(capsys, tmp_path, text, *argv):
    path = tmp_path / "mutant.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    err = capsys.readouterr().err
    assert exc.value.code == 4 and err.count("\n") == 1, (argv, err[:500])
    assert err.startswith(f"error: {path}: malformed "), err[:500]


def test_trace_reader_rejects_every_mutant_cleanly(tmp_path, capsys):
    text = prove(24, pack="extended", flags=(full_orbit(2), FREE_TRANSLATION)).serialize()
    rng = random.Random(TEST_SEED)
    rejected = _rejected(lambda i, text: replay(text), mutants(rng, [text]), TraceError)
    assert len(rejected) >= 3
    for _, bad in rejected[:3]:
        _assert_exit_4(capsys, tmp_path, bad, "prove", "--replay")


def test_algebra_reader_rejects_every_mutant_cleanly():
    rng = random.Random(TEST_SEED)
    texts = [dump_algebra(build(fam)) for fam in FAMILIES]
    assert _rejected(lambda i, text: load_algebra(text), mutants(rng, texts), FormatError)


def test_witness_reader_rejects_every_mutant_cleanly(tmp_path, capsys):
    rng = random.Random(TEST_SEED)
    witnesses = builtin_witnesses()
    targets = [build(w.target) for w in witnesses]
    cases = mutants(rng, [dump_witness(w) for w in witnesses])
    rejected = _rejected(lambda i, text: load_witness(text, targets[i]), cases, FormatError)
    assert len(rejected) >= 3
    for i, bad in rejected[:3]:
        w = witnesses[i]
        _assert_exit_4(capsys, tmp_path, bad, "iso", w.source_family, w.target, "--witness")
