"""Every command that writes, run through ``main`` when a write fails and on
damaged inputs.

`COMMANDS` lists each command that writes a file: its arguments and the
files it writes.  In the arguments, ``<name>`` stands for the input ``name``
(``<out>`` for the command's output directory), and a bare output name for
that file in the output directory.  Inputs come from the default fixture
(seed 7) and from the commands themselves.

The fault test runs every command in one child process whose file-size
limit (``RLIMIT_FSIZE``) makes the larger outputs fail with ``EFBIG``, over
older outputs.  The property test damages one input of one command.  Either
way a command that fails leaves every output as it was, and no command
leaves a temp file behind.  The kill test SIGKILLs `pipeline run` at one of
its syncs or renames, where nothing is cleaned up; the rerun then writes
every output whole and removes the temp files.
"""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semlink.cli import main
from semlink.corpus import load_linking_jsonl
from semlink.embed_io import load_binary
from semlink.fixtures import FixtureSizes, make_fixtures
from semlink.pipeline import STAGE_ORDER, STAGES

from test_pipeline_cli import PINNED

SRC = Path(__file__).resolve().parent.parent / "src"
# a child process's environment: the package and these tests importable
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), str(Path(__file__).parent),
                                                          os.environ.get("PYTHONPATH")]))}
PIPELINE_OUTPUTS = ("dictionary.txt", "remap.tsv", "types.tsv", "semantic.bin", "reinforced.bin",
                    "model.txt", "train_trace.json", "eval.json", "eval.tsv", "manifest.json")
FIXTURE_OUTPUTS = ("words.bin", "wikitext.bin", "articles.tsv", "seeds.txt", "extensions.txt", "remap.tsv",
                   "types.tsv", "train.jsonl", "dev.jsonl", "eval.jsonl", "fixture.json")
COMMANDS = {
    "dict mine": ("dict mine --corpus <articles> --out nouns.tsv", ("nouns.tsv",)),
    "dict expand": ("dict expand --seeds @<seeds> --embeddings <words> --corpus <articles> -k 5 --out exp.tsv",
                    ("exp.tsv",)),
    "dict build": ("dict build --seeds <seeds> --extensions <extensions> --remap <remap> --embeddings <words> "
                   "--out-words dictionary.txt --out-remap remap.tsv", ("dictionary.txt", "remap.tsv")),
    "types extract": ("types extract --corpus <articles> --dictionary <dictionary> --out types.tsv",
                      ("types.tsv",)),
    "embed convert bin": ("embed convert --in <wikitext> --out table.bin", ("table.bin",)),
    "embed convert txt": ("embed convert --in <words> --out table.txt", ("table.txt",)),
    "embed reinforce": ("embed reinforce --wikitext <wikitext> --words <words> --types <types> --out out.bin",
                        ("out.bin",)),
    "link train": ("link train --train <train> --dev <dev> --entities <reinforced> --words <words> --epochs 5 "
                   "--out-model model.txt --out-trace trace.json", ("model.txt", "trace.json")),
    "link infer": ("link infer --docs <eval> --entities <reinforced> --words <words> --model <model> --out p.tsv",
                   ("p.tsv",)),
    "link infer exhaustive": ("link infer --docs <eval> --entities <reinforced> --words <words> --model <model> "
                              "--strategy exhaustive --out p.tsv", ("p.tsv",)),
    "link convert": ("link convert --in <conll> --out docs.jsonl", ("docs.jsonl",)),
    "eval f1": ("eval f1 --docs <eval> --pred <pred> --out f1.json", ("f1.json",)),
    "eval converge": ("eval converge --train <train> --dev <dev> --words <words> --baseline <wikitext> "
                      "--reinforced <reinforced> --seeds 1,2 --epochs 5 --out converge.json --curves curves.tsv",
                      ("converge.json", "curves.tsv")),
    "eval geometry": ("eval geometry --baseline <wikitext> --reinforced <reinforced> --pairs <pairs> "
                      "--out geometry.json", ("geometry.json",)),
    "pipeline run": ("pipeline run --config <config> --set out=<out>", PIPELINE_OUTPUTS),
    "fixtures make": ("fixtures make --out <out>", FIXTURE_OUTPUTS),
}
# the keys of a pipeline configuration and the inputs they name
CONFIG_KEYS = {"words": "words", "wikitext": "wikitext", "corpus": "articles", "seeds": "seeds",
               "extensions": "extensions", "remap": "remap", "train": "train", "dev": "dev", "eval": "eval"}
OLD = b"older output\n"


def inputs_of(command: str) -> list[str]:
    names = [n for n in re.findall(r"<(\w+)>", COMMANDS[command][0]) if n != "out"]
    return names + (list(CONFIG_KEYS.values()) if "config" in names else [])


def argv(command: str, inputs: dict, out: Path) -> list[str]:
    template, outputs = COMMANDS[command]
    paths = {**inputs, "out": out}
    return [str(out / token) if token in outputs else re.sub(r"<(\w+)>", lambda m: str(paths[m[1]]), token)
            for token in template.split()]


def write_config(path: Path, inputs: dict) -> Path:
    path.write_text("".join(f"{key} = {inputs[name]}\n" for key, name in CONFIG_KEYS.items()), "utf-8")
    return path


def run(args) -> tuple[int, str]:
    """The exit code of ``main(args)`` and what it printed to stderr.  The
    commands' own warnings (a spread of 0 in `eval converge`) are no fault."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            main(args)
        except SystemExit as e:
            return e.code, err.getvalue()
    return 0, err.getvalue()


def read_outputs(command: str, out: Path) -> dict:
    return {name: (out / name).read_bytes() if (out / name).exists() else None for name in COMMANDS[command][1]}


def kept_outputs(command: str, err: str) -> tuple[str, ...]:
    """The outputs a failed command must leave as they were: all of them, or
    for a failed pipeline stage, those of that stage and of the later ones."""
    failed = re.search(r"stage '(\w+)' failed", err) if command == "pipeline run" else None
    if failed is None:
        return COMMANDS[command][1]
    return tuple(name for stage in STAGE_ORDER[STAGE_ORDER.index(failed[1]):] for name in STAGES[stage][2])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    found = {k: str(p) for k, p in make_fixtures(7, FixtureSizes(), root).items()}
    work = tmp_path_factory.mktemp("derived")
    for command, output, name in (("dict build", "dictionary.txt", "dictionary"),
                                  ("embed reinforce", "out.bin", "reinforced"),
                                  ("link train", "model.txt", "model"), ("link infer", "p.tsv", "pred")):
        assert run(argv(command, found, work))[0] == 0
        found[name] = str(shutil.copy(work / output, root / f"{name}{Path(output).suffix}"))
    conll = root / "conll.tsv"
    conll.write_text("".join(
        f"-DOCSTART- ({doc.doc_id})\n" + "".join(
            f"{m.context[0]}\n{m.surface}\tB\t{m.surface}\t{m.gold}\t{','.join(m.candidates)}\n{m.context[-1]}\n"
            for m in doc.mentions)
        for doc in load_linking_jsonl(found["train"])[:4]), "utf-8")
    labels = load_binary(found["wikitext"]).labels
    pairs = root / "pairs.tsv"
    pairs.write_text(f"{labels[0]}\t{labels[1]}\tsame\n{labels[2]}\t{labels[3]}\tdifferent\n", "utf-8")
    found.update(conll=str(conll), pairs=str(pairs), config=str(write_config(root / "p.cfg", found)))
    return found


def test_failed_write_leaves_every_output_as_it_was(inputs, tmp_path):
    limit = 4096
    expected, before, runs = {}, {}, []
    for command, (_, outputs) in COMMANDS.items():
        # the complete outputs, from a run without a limit
        ref = tmp_path / "ref" / command.replace(" ", "_")
        ref.mkdir(parents=True)
        assert run(argv(command, inputs, ref))[0] == 0, command
        expected[command] = read_outputs(command, ref)
        out = tmp_path / "out" / command.replace(" ", "_")
        out.mkdir(parents=True)
        if command == "pipeline run":
            # an older run whose later stages used another alpha, so that
            # `semantic` is the first stage to run again
            assert run(argv(command, inputs, out) + ["--set", "alpha=0.5"])[0] == 0
        else:
            for name in outputs:
                (out / name).write_bytes(OLD)
        before[command] = read_outputs(command, out)
        runs.append(argv(command, inputs, out))

    child = (
        "import json, resource, sys\n"
        "from test_faults import run\n"
        "limit, runs = json.loads(sys.stdin.read())\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
        "print(json.dumps([run(args) for args in runs]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], input=json.dumps([limit, runs]),
                          capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = dict(zip(COMMANDS, json.loads(proc.stdout)))

    for command, (code, err) in results.items():
        out = tmp_path / "out" / command.replace(" ", "_")
        assert sorted(os.listdir(out)) == sorted(COMMANDS[command][1]), command  # no temp file
        assert "Traceback" not in err, (command, err)
        got = read_outputs(command, out)
        if command == "fixtures make":  # writes its files one by one
            assert code in (0, 2) and all(got[n] in (before[command][n], expected[command][n]) for n in got)
        elif code == 0:
            assert got == expected[command], command
        else:
            assert code == 2 and f"[Errno {errno.EFBIG}]" in err, (command, code, err)
            assert got == before[command], command
    failed = {command for command, (code, _) in results.items() if code}
    assert {"embed reinforce", "embed convert bin", "embed convert txt", "pipeline run"} <= failed
    assert "stage 'semantic' failed" in results["pipeline run"][1]
    assert {"dict build", "link train", "eval converge"}.isdisjoint(failed)


# a command run in a child that SIGKILLs itself at its nth call of os.<call>
KILL_CHILD = (
    "import os, signal, sys\n"
    "from semlink.cli import main\n"
    "call, n, real, calls = sys.argv[1], int(sys.argv[2]), getattr(os, sys.argv[1]), []\n"
    "def hooked(*args):\n"
    "    calls.append(args)\n"
    "    if len(calls) == n:\n"
    "        os.kill(os.getpid(), signal.SIGKILL)\n"
    "    return real(*args)\n"
    "setattr(os, call, hooked)\n"
    "main(sys.argv[3:])\n"
)
# a cold `pipeline run` on the default fixture renames 15 times, and syncs 15
# files and, after each of its 12 writes, their directory
KILL_CALLS = {"fsync": 27, "replace": 15}
# Every kill point under a profile that runs more examples than the default
# (README).  Else a few: the first sync, with both of `dict`'s temp files open;
# types.tsv's sync; the directory sync after model.txt and train_trace.json
# are renamed, before the manifest records them; the rename between those
# two; the last manifest rename; and one past the last of each call, which
# pins the counts.
KILL_POINTS = ([(call, n) for call, last in KILL_CALLS.items() for n in range(1, last + 2)]
               if settings.default.max_examples > settings.get_profile("semlink").max_examples
               else [("fsync", 1), ("fsync", 6), ("fsync", 20), ("fsync", 28),
                     ("replace", 11), ("replace", 15), ("replace", 16)])


@pytest.mark.parametrize("call, n", KILL_POINTS)
def test_killed_run_is_mended_by_its_rerun(inputs, tmp_path, call, n):
    """A `pipeline run` killed at its nth `os.fsync` or `os.replace` may leave
    temp files and a stage half renamed; the manifest has not recorded that
    stage, so the rerun writes `PINNED`'s bytes and no temp file stays."""
    out = tmp_path / "out"
    args = argv("pipeline run", inputs, out)
    proc = subprocess.run([sys.executable, "-c", KILL_CHILD, call, str(n), *args],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert proc.returncode == (0 if n > KILL_CALLS[call] else -signal.SIGKILL), proc.stderr
    assert run(args)[0] == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED} == PINNED
    assert sorted(os.listdir(out)) == sorted(PIPELINE_OUTPUTS)


def _with_relation(model: bytes) -> bytes:
    """The model with one relation diagonal, all -50, under softmax weighting."""
    head, b, c, _weighting = model.decode().splitlines()
    dim = int(head.split()[0])
    return f"{dim} 1\n{b}\n{c}\n{' '.join(['-50'] * dim)}\nsoftmax\n".encode()


@pytest.mark.parametrize("damage, needle", [
    (lambda model: model + b"7 7 7\ngarbage\n", "line after the weighting line"),
    (_with_relation, "model has K = 1 relation diagonals"),
], ids=["trailing-lines", "relations"])
def test_model_the_command_cannot_score_exits_2(inputs, tmp_path, damage, needle):
    """A model file holds 3 + K lines and a weighting line, and the commands
    that score no relation refuse K >= 1; either way the output is kept."""
    model = tmp_path / "model.txt"
    model.write_bytes(damage(Path(inputs["model"]).read_bytes()))
    readers = [command for command in COMMANDS if "model" in inputs_of(command)]
    assert readers == ["link infer", "link infer exhaustive"]
    for command in readers:
        out = tmp_path / command.replace(" ", "_")
        out.mkdir()
        for name in COMMANDS[command][1]:
            (out / name).write_bytes(OLD)
        code, err = run(argv(command, {**inputs, "model": str(model)}, out))
        assert code == 2 and needle in err and str(model) in err, (command, err)
        assert read_outputs(command, out) == dict.fromkeys(COMMANDS[command][1], OLD)


def _truncate(data, at, _n, _r):
    return data[: at % (len(data) + 1)]


def _flip(data, at, n, _r):
    if not data:
        return data
    i = at % len(data)
    return data[:i] + bytes([data[i] ^ (n % 255 + 1)]) + data[i + 1:]


SEPARATORS = b'\t \n,:"\x00'


def _insert(data, at, n, _r):
    i = at % (len(data) + 1)
    return data[:i] + bytes([SEPARATORS[n % len(SEPARATORS)]]) + data[i:]


def _delete(data, at, n, _r):
    i = at % (len(data) + 1)
    return data[:i] + data[i + n:]


def _duplicate(data, at, n, _r):
    i = at % (len(data) + 1)
    return data[:i] + data[i:i + n] + data[i:]


_TOKEN = re.compile(rb'"[^"\n]*"|[^\s,:\[\]{}"]+')


def _swap(data, at, _n, replacement):
    tokens = list(_TOKEN.finditer(data))
    if not tokens:
        return data
    m = tokens[at % len(tokens)]
    return data[: m.start()] + replacement + data[m.end():]


MUTATIONS = st.sampled_from([_truncate, _flip, _insert, _delete, _duplicate, _swap])


# how many examples a profile with more than the default runs (see README)
@settings(max_examples=max(200, settings.default.max_examples),
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(c for c in COMMANDS if inputs_of(c))), data=st.data(),
       mutate=MUTATIONS, at=st.integers(0, 1 << 20), n=st.integers(1, 64),
       replacement=st.sampled_from([b"nan", b"7", b"\r", b"-inf", b"1e309", b"\"\""]))
def test_damaged_input_ends_in_an_error_and_leaves_outputs(inputs, command, data, mutate, at, n, replacement):
    name = data.draw(st.sampled_from(inputs_of(command)), label="input")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        used = dict(inputs)
        damaged = work / ("damaged" + Path(inputs[name]).suffix)
        if name != "config":
            damaged.write_bytes(mutate(Path(inputs[name]).read_bytes(), at, n, replacement))
            used[name] = str(damaged)
        if command == "pipeline run":
            used["config"] = str(write_config(work / "p.cfg", used))
        if name == "config":
            damaged.write_bytes(mutate(Path(used["config"]).read_bytes(), at, n, replacement))
            used["config"] = str(damaged)
        out = work / "out"
        out.mkdir()
        for output in COMMANDS[command][1]:
            (out / output).write_bytes(OLD)
        code, err = run(argv(command, used, out))
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        if code:
            got = read_outputs(command, out)
            assert all(got[name] == OLD for name in kept_outputs(command, err)), err
        assert sorted(os.listdir(out)) == sorted(COMMANDS[command][1])


def test_failing_property_prints_its_example(tmp_path):
    """The suite's warning filters (``pyproject.toml``) let hypothesis report a
    failing example instead of ending in an internal error."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n",
        "utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(SRC.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
