"""The CI workflow reruns every seeded test file at a second seed.

The workflow is read as plain text, so the check needs no YAML parser.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEP = "- name: Seeded oracle tests at a second seed"
# a file reads the seed through the variable's name as a string literal
READS_SEED = re.compile(r"""["']HOPFATLAS_TEST_SEED["']""")


def test_second_seed_step_lists_every_seeded_test_file():
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == STEP)
    step = [lines[start]]
    for line in lines[start + 1:]:
        if line.lstrip().startswith("- "):
            break
        step.append(line)
    listed = set(re.findall(r"tests/\w+\.py", "\n".join(step)))
    seeded = {f"tests/{p.name}" for p in sorted((ROOT / "tests").glob("*.py"))
              if READS_SEED.search(p.read_text())}
    assert len(seeded) >= 6
    assert seeded <= listed, sorted(seeded - listed)
    assert all((ROOT / name).is_file() for name in listed), sorted(listed)
