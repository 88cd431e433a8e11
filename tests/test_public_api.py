"""The README's library import block runs, and every exported name exists."""

import os
import re

import mpirecon

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def library_import_block() -> str:
    with open(README) as f:
        section = f.read().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_import_block_runs_and_names_only_exports():
    namespace = {}
    exec(library_import_block(), namespace)
    imported = set(namespace) - {"__builtins__"}
    assert "run_pipeline" in imported
    assert imported <= set(mpirecon.__all__)


def test_every_exported_name_resolves():
    assert [name for name in mpirecon.__all__ if not hasattr(mpirecon, name)] == []
    assert len(set(mpirecon.__all__)) == len(mpirecon.__all__)
