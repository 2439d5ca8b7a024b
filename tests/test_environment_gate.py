"""Lint gate: no module of the package reads the environment.

Every setting reaches the package as an argument or a command-line option,
so none can hide in an environment variable.  Standard library only
(``ast``): a module fails the gate when it names ``os.environ``,
``os.getenv`` or their bytes forms, or imports one of them from ``os``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """Line numbers of the environment reads in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in READERS:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in READERS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{path.name}:{line}" for line in environment_reads(tree)]
    assert not found, f"environment read at {found}"


def test_the_gate_sees_an_environment_read():
    snippet = (
        "import os\n"
        "cap = os.environ.get('CAP')\n"
        "from os import getenv\n"
        "home = os.getenv('HOME')\n"
        "path = os.path.join('a', 'b')\n"
    )
    assert environment_reads(ast.parse(snippet)) == [2, 3, 4]
