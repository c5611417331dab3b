"""Source-layout conventions that no linter in the test environment checks."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 99


@pytest.mark.parametrize("folder", ["src", "tests", "scripts"])
def test_no_line_longer_than_limit(folder):
    long_lines = [
        f"{path.relative_to(ROOT)}:{no}: {len(line)} characters"
        for path in sorted((ROOT / folder).rglob("*.py"))
        for no, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, "\n".join(long_lines)
