"""The one text reader and the one writer: every text input and every output
file goes through ``semlink._text``.

The guards scan ``src/semlink`` with ``ast``.  Outside ``_text`` no code opens
a file in text mode for reading or calls ``.read_text(...)``; binary reads
(``"rb"``, ``read_bytes``) are free, and ``embed_io.load_text`` is the one
exception, since embedding labels are raw bytes kept with surrogateescape.
No code outside ``_text`` opens a file for writing in any mode, text or
binary (a mode holding ``w``, ``a``, ``x`` or ``+``), or calls
``.write_text(...)``, ``.write_bytes(...)`` or ``json.dump(...)``: every
output is written through ``_text.replacing``.
"""

import ast
import os
import stat
from pathlib import Path

import pytest

from semlink._text import read_all, read_lines, replacing, tsv_fields, write_files, write_lines
from semlink.errors import FormatError

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semlink"
READERS = {"_text", "embed_io.load_text"}
WRITERS = {"_text"}


def _open_mode(call: ast.Call) -> str:
    """The mode of an ``open(path, mode)`` or ``path.open(mode)`` call, "" for
    any other call."""
    func = call.func
    if not ((isinstance(func, ast.Name) and func.id == "open") or
            (isinstance(func, ast.Attribute) and func.attr == "open")):
        return ""
    position = 1 if isinstance(func, ast.Name) else 0
    if len(call.args) > position:
        mode = call.args[position]
    else:
        mode = next((k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return "rwax+"  # a mode chosen at run time may read or write text
    return mode.value


def _reads_text(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "read_text":
        return True
    mode = _open_mode(call)
    return "b" not in mode and any(c in mode for c in "r+")


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and (
        func.attr in ("write_text", "write_bytes")
        or (func.attr == "dump" and getattr(func.value, "id", None) == "json")
    ):
        return True
    return any(c in _open_mode(call) for c in "wax+")


def _calls(node, where):
    """``(where, call)`` for each call under ``node``; ``where`` grows by the
    name of each class or function the call sits in (``module.Class.method``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, where)


def _outside(package, allowed, matches) -> list[str]:
    """``module.function:line`` of each call that ``matches`` outside the ``allowed`` scopes."""
    found = []
    for path in sorted(package.glob("*.py")):
        for where, call in _calls(ast.parse(path.read_text("utf-8")), path.stem):
            if matches(call) and not any(where == a or where.startswith(a + ".") for a in allowed):
                found.append(f"{where}:{call.lineno}")
    return found


def text_reads_outside_reader(package=PACKAGE) -> list[str]:
    return _outside(package, READERS, _reads_text)


def writes_outside_writer(package=PACKAGE) -> list[str]:
    return _outside(package, WRITERS, _writes)


def test_every_text_input_goes_through_the_reader():
    assert text_reads_outside_reader() == []


def test_every_text_output_goes_through_the_writer():
    assert writes_outside_writer() == []


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


def test_guard_sees_text_writes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import json\n"
        "def f(p, fh):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a', encoding='utf-8')\n"
        "    p.open('x')\n"
        "    open(p, 'r+')\n"
        "    p.write_text('x')\n"
        "    json.dump({}, fh)\n"
        "    open(p, 'wb')\n"
        "    open(p, mode='ab')\n"
        "    p.open('xb')\n"
        "    open(p, 'rb+')\n"
        "    p.write_bytes(b'')\n"
        "    open(p), open(p, 'rb'), p.open('rb'), json.dumps({}), fh.write('x')\n"
        "class C:\n"
        "    def write(self, p):\n"
        "        open(p, 'w')\n",
        "utf-8",
    )
    assert writes_outside_writer(tmp_path) == [f"mod.f:{n}" for n in range(3, 14)] + ["mod.C.write:17"]


def test_write_lines_writes_utf8_lines(tmp_path):
    p = tmp_path / "t.txt"
    write_lines(p, ["a\tb", "", "caf\u00e9", '{\n  "k": 1\n}'])
    assert p.read_bytes() == b'a\tb\n\ncaf\xc3\xa9\n{\n  "k": 1\n}\n'
    write_lines(p, iter([]))
    assert p.read_bytes() == b""


def test_write_lines_leaves_the_file_as_it_was_on_failure(tmp_path):
    def failing():
        yield "new"
        raise RuntimeError("failed while computing")

    for p in (tmp_path / "old.txt", tmp_path / "absent.txt"):
        if p.name == "old.txt":
            p.write_bytes(b"old\n")
        before = p.read_bytes() if p.exists() else None
        with pytest.raises(RuntimeError):
            write_lines(p, failing())
        with pytest.raises(FormatError) as e:
            write_lines(p, ["ok", '{\n  "k": 1\n}', "caf\udce9 x", "ok"])
        assert (e.value.path, e.value.line) == (p, 5)  # the file line, not the item
        assert "text with no UTF-8 form: 'caf\\udce9 x'" in str(e.value)
        assert (p.read_bytes() if p.exists() else None) == before


@pytest.mark.parametrize("existing", [None, b"old\n"], ids=["absent", "present"])
def test_write_files_writes_all_or_nothing(tmp_path, existing):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    if existing is not None:
        first.write_bytes(existing)
    # no UTF-8 form, a missing directory, a directory
    for bad in ((second, ["caf\udce9"]), (tmp_path / "nodir" / "x.txt", ["x"]), (tmp_path, ["x"])):
        with pytest.raises((FormatError, OSError)):
            write_files([(first, ["new"]), bad])
        assert (first.read_bytes() if first.exists() else None) == existing
        assert os.listdir(tmp_path) == (["first.txt"] if existing else [])  # no temp file
    write_files([(first, ["a"]), (second, ["b", "c"])])
    assert (first.read_bytes(), second.read_bytes()) == (b"a\n", b"b\nc\n")


def test_replacing_keeps_the_target_until_every_handle_is_written(tmp_path):
    target = tmp_path / "t.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with replacing([target]) as (fh,):
            fh.write(b"new" * 10000)
            raise RuntimeError("failed while writing")
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["t.bin"]
    longest = tmp_path / ("u" * 255)  # the longest name a file can have
    with replacing([target, longest]) as (fh, gh):
        fh.write(b"new")
        gh.write(b"")
    assert (target.read_bytes(), longest.read_bytes()) == (b"new", b"")
    assert sorted(os.listdir(tmp_path)) == ["t.bin", longest.name]


def test_replacing_writes_through_symlinks_with_default_permissions(tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_bytes(b"old\n")
    real.chmod(0o600)
    link.symlink_to(real.name)
    write_lines(link, ["new"])
    assert link.is_symlink() and real.read_bytes() == b"new\n"
    plain = tmp_path / "plain.txt"
    with open(plain, "wb"):
        pass
    assert stat.S_IMODE(real.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_replacing_refuses_what_is_not_a_regular_file(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for target in (fifo, tmp_path):
        with pytest.raises(OSError, match="not a regular file"):
            write_files([(tmp_path / "first.txt", ["a"]), (target, ["x"])])
    assert sorted(os.listdir(tmp_path)) == ["fifo"]


def test_replacing_removes_a_stale_temp_file_and_refuses_a_repeated_target(tmp_path):
    """A target's temp name is fixed, so a write removes what a killed writer
    left under it, the link alone where that is a symlink."""
    target, kept = tmp_path / "t.bin", tmp_path / "kept"
    kept.write_bytes(b"kept")
    with replacing([target]) as (fh,):
        temp = Path(fh.name)
    for stale in (lambda: temp.write_bytes(b"stale"), lambda: temp.symlink_to(kept)):
        stale()
        with replacing([target]) as (fh,):
            assert fh.name == str(temp)
            fh.write(b"new")
        assert (target.read_bytes(), kept.read_bytes()) == (b"new", b"kept")
        assert sorted(os.listdir(tmp_path)) == ["kept", "t.bin"]
    with pytest.raises(OSError, match="output named twice"):
        write_files([(target, ["a"]), (tmp_path / "." / "t.bin", ["b"])])
    assert target.read_bytes() == b"new"


def test_replacing_syncs_each_directory_once_after_its_renames(tmp_path, monkeypatch):
    """The renames reach the disk: after the last rename, each target's
    directory is synced once, on POSIX only; a failed sync raises."""
    (tmp_path / "sub").mkdir()
    targets = [tmp_path / "a", tmp_path / "sub" / "b", tmp_path / "c"]
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", (st.st_dev, st.st_ino) if stat.S_ISDIR(st.st_mode) else "file"))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_files([(t, ["x"]) for t in targets])
    dirs = [(st.st_dev, st.st_ino) for st in (os.stat(tmp_path), os.stat(tmp_path / "sub"))]
    assert calls == [("fsync", "file")] * 3 + [("replace", n) for n in "abc"] + [("fsync", d) for d in dirs]
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(os, "name", "nt")
        write_files([(targets[0], ["y"])])
    assert calls == [("fsync", "file"), ("replace", "a")]

    def failing(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing)
    with pytest.raises(OSError, match="Input/output error"):
        write_lines(targets[1], ["z"])
    assert targets[1].read_bytes() == b"z\n"
    assert sorted(os.listdir(tmp_path / "sub")) == ["b"]


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
