import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_total_is_sum_of_rows():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stderr == ""
    rows = dict(line.split() for line in done.stdout.splitlines())
    total = int(rows.pop("total"))
    assert set(rows) == {p.name for p in (ROOT / "src" / "tperfect").glob("*.py")}
    assert total == sum(map(int, rows.values())) > 0
