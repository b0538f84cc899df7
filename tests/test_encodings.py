"""A fence against text files opened in the locale's encoding."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "kshrink").glob("*.py"))


def locale_opens(source: str) -> list[str]:
    """The lines of source that call open() in text mode without encoding="utf-8".

    A call is in binary mode when its mode, the second positional argument
    or mode=, is a string constant holding "b"; a mode that is not a
    constant counts as text. The readers require UTF-8, so every text file
    is opened as UTF-8 whatever the locale.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "open":
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        if isinstance(mode, ast.Constant) and "b" in str(mode.value):
            continue
        encoding = node.args[3] if len(node.args) > 3 else keywords.get("encoding")
        if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_text_open_is_utf8(path):
    assert locale_opens(path.read_text(encoding="utf-8")) == []


def test_the_fence_sees_a_locale_open():
    source = (
        "def f(path, mode):\n"
        "    open(path)\n"
        "    open(path, 'w', newline='')\n"
        "    open(path, mode, encoding='utf-8')\n"
        "    open(path, mode)\n"
        "    open(path, encoding='latin-1')\n"
        "    open(path, 'rb')\n"
        "    open(path, mode='wb')\n"
        "    open(path, 'w', -1, 'utf-8')\n"
        "    open(path, 'w', newline='', encoding='utf-8')\n"
    )
    assert locale_opens(source) == [
        "2: open(path)",
        "3: open(path, 'w', newline='')",
        "5: open(path, mode)",
        "6: open(path, encoding='latin-1')",
    ]
