"""Nothing is exported without a caller in the package or a test."""

import re
from pathlib import Path

import ggsys

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_has_a_caller_or_a_test():
    package = Path(ggsys.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "tests").glob("*.py") if p.name != Path(__file__).name]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    # a definition is not a use
    unused = [
        name
        for name in ggsys.__all__
        if not re.search(rf"(?<!def )(?<!class )\b{re.escape(name)}\b", text)
    ]
    assert unused == []
