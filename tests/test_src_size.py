"""The package source stays within its line budget.

ROADMAP rule: ``src/`` stays under 4,900 lines (``wc -l src/sunflows/*.py``), so a new
check is paid for with deletions.
"""

from pathlib import Path

CAP = 4900
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sunflows"


def test_src_stays_within_the_line_cap():
    lines = {p.name: p.read_text().count("\n") for p in sorted(PACKAGE.glob("*.py"))}
    total = sum(lines.values())
    assert total <= CAP, (f"src/sunflows/*.py is {total} lines, over the {CAP}-line cap; "
                          f"ROADMAP rule: src/ stays under {CAP:,} lines and new checks are "
                          f"paid for with deletions. Per module: {lines}")
