"""README's Layout block stays in step with the package's modules."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layout_names_every_module_once():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    named = re.findall(r"^  (\w+\.py)\s", block, flags=re.MULTILINE)
    modules = [p.name for p in (ROOT / "src" / "got").glob("*.py") if p.name != "__init__.py"]
    assert sorted(named) == sorted(modules)
