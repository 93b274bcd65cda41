"""The one text reader: every text input is read through ``semlink._text``.

The guard scans ``src/semlink`` with ``ast``: outside ``_text`` no code opens
a file in text mode for reading or calls ``.read_text(...)``.  Binary reads
(``"rb"``, ``read_bytes``) and writes are free; ``embed_io.load_text`` is the
one exception, since embedding labels are raw bytes kept with surrogateescape.
"""

import ast
from pathlib import Path

import pytest

from semlink._text import read_all, read_lines, tsv_fields
from semlink.errors import FormatError

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semlink"
ALLOWED = {("_text", None), ("embed_io", "load_text")}


def _mode(call: ast.Call):
    """The mode an ``open(path, mode)`` or ``path.open(mode)`` call passes, else "r"."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))


def _reads_text(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "read_text":
        return True
    is_open = (isinstance(func, ast.Name) and func.id == "open") or (
        isinstance(func, ast.Attribute) and func.attr == "open"
    )
    if not is_open:
        return False
    mode = _mode(call)
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode chosen at run time may read text
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


def text_reads_outside_reader(package=PACKAGE) -> list[str]:
    """``module.function:line`` of each text-mode read not in `ALLOWED`."""
    found = []
    for path in sorted(package.glob("*.py")):
        if (path.stem, None) in ALLOWED:
            continue
        for top in ast.parse(path.read_text("utf-8")).body:
            if (path.stem, getattr(top, "name", None)) in ALLOWED:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _reads_text(node):
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}:{node.lineno}")
    return found


def test_every_text_input_goes_through_the_reader():
    assert text_reads_outside_reader() == []


def test_guard_sees_text_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(p):\n"
        "    open(p)\n"
        "    open(p, 'r', encoding='utf-8')\n"
        "    open(p, mode='rt')\n"
        "    p.open()\n"
        "    p.read_text('utf-8')\n"
        "    open(p, 'rb'), open(p, 'w'), p.read_bytes(), p.write_text('x')\n",
        "utf-8",
    )
    assert text_reads_outside_reader(tmp_path) == [f"mod.f:{n}" for n in range(2, 7)]


def test_lines_are_numbered_with_universal_newlines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"a\tb\r\n\r\nc # d\re\n  \nf")
    assert list(read_lines(p)) == [(1, "a\tb"), (3, "c # d"), (4, "e"), (5, "  "), (6, "f")]
    assert list(read_lines(p, comments=True)) == [(1, "a\tb"), (3, "c"), (4, "e"), (6, "f")]
    assert read_all(p) == "a\tb\n\nc # d\ne\n  \nf"


@pytest.mark.parametrize("data, line, byte", [
    (b"ok\nbad \xff\n", 2, "0xff"),
    (b"ok\r\nok\r\n\xc3\r\n", 3, "0xc3"),  # a cut-off sequence before a newline
    (b"ok\rok\rok\r\xe9t\xe9\r", 4, "0xe9"),  # old Mac newlines count as lines too
    (b"x" * 20000 + b"\n" * 3 + b"\x80", 4, "0x80"),  # past the first decoded chunk
])
def test_bad_byte_names_file_line_and_byte(tmp_path, data, line, byte):
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    for read in (lambda: list(read_lines(p)), lambda: read_all(p)):
        with pytest.raises(FormatError) as e:
            read()
        assert (e.value.path, e.value.line) == (p, line)
        assert f"not UTF-8 text (byte {byte})" in str(e.value)


def test_tsv_fields_says_what_was_expected():
    assert tsv_fields("a\tb", 2, "f", 3) == ["a", "b"]
    with pytest.raises(FormatError, match=r"expected 2 tab-separated fields, found 3 \[f:3\]"):
        tsv_fields("a\tb\tc", 2, "f", 3)
    with pytest.raises(FormatError, match=r"expected '<x>' \[f:3\]"):
        tsv_fields("a", 2, "f", 3, "expected '<x>'")
