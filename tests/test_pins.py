"""Every exact-output pin lives in pins.py or result_files.sha256, and CI
checks exactly the result files it builds."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTRY = PINS, RESULT_FILES = ROOT / "tests" / "pins.py", ROOT / "tests" / "result_files.sha256"
SHA256 = re.compile(r"\b[0-9a-fA-F]{64}\b")


def test_no_sha256_outside_the_registry():
    files = [*(ROOT / "tests").rglob("*.py"), *(p for p in (ROOT / ".github").rglob("*") if p.is_file())]
    found = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in files if path not in REGISTRY
        for n, line in enumerate(path.read_text().splitlines(), 1) if SHA256.search(line)
    ]
    assert not found, f"move these pins into {PINS.name} or {RESULT_FILES.name}: {found}"


def test_ci_checks_every_result_file_it_builds():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lines = RESULT_FILES.read_text().splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  ci-[\w-]+\.json", line) for line in lines), lines
    built, pinned = set(re.findall(r"--out (ci-\S+)", ci)), {line.split()[1] for line in lines}
    assert built == pinned, f"built, not pinned: {built - pinned}; pinned, not built: {pinned - built}"
    # one check, after the last result file is built
    assert ci.index(f"sha256sum -c tests/{RESULT_FILES.name}") > ci.rindex("--out ci-")
