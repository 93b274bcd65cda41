"""Shared fixtures and the terminal summary: acceptance criteria and the
line counts of ``src/semlink``."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from semlink.corpus import LinkingDocument, Mention
from semlink.embed_io import EmbeddingTable
from semlink.linking_core import LinkingModel

# Property tests replay the same examples on every run and have no per-example
# time limit, so they neither flake on a slow machine nor differ between runs.
settings.register_profile("semlink", derandomize=True, deadline=None)
settings.load_profile("semlink")
# The long run of the damaged-input property (README): many more examples,
# new ones on every run, and no example database left behind, so a failure
# prints the @reproduce_failure blob that replays it.
settings.register_profile("semlink-fuzz", max_examples=20_000, derandomize=False, database=None, print_blob=True)

_ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []
_ACCEPTANCE_DOCS: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance" in item.nodeid and item.obj.__doc__:
            _ACCEPTANCE_DOCS[item.nodeid] = item.obj.__doc__.strip().splitlines()[0]


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS.append(
            (report.nodeid, report.outcome.upper(), _ACCEPTANCE_DOCS.get(report.nodeid, ""))
        )


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for nodeid, outcome, doc in _ACCEPTANCE_RESULTS:
            name = nodeid.split("::")[-1]
            mark = "PASS" if outcome == "PASSED" else outcome
            terminalreporter.write_line(f"[{mark}] {name}: {doc}")
    code, notes = line_counts(Path(__file__).resolve().parent.parent / "src" / "semlink")
    terminalreporter.write_line(f"src/semlink: {code} code lines, {notes} docstring/comment lines")


def line_counts(package: Path) -> tuple[int, int]:
    """Non-blank lines of the package's modules: code, and docstring or
    comment lines.  A docstring is the first statement of a module, class or
    function when it is a string; a comment line holds nothing but a comment."""
    code = notes = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text("utf-8")
        docs = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for line_no, line in enumerate(source.splitlines(), 1):
            if line.strip():
                if line_no in docs or line.lstrip().startswith("#"):
                    notes += 1
                else:
                    code += 1
    return code, notes


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_table(rng, n, dim, prefix="v", scale=1.0):
    labels = [f"{prefix}{i:05d}" for i in range(n)]
    matrix = (scale * rng.standard_normal((n, dim))).astype(np.float32)
    return EmbeddingTable(dim, labels, matrix)


@pytest.fixture
def make_table(rng):
    def _make(n, dim, prefix="v", scale=1.0):
        return random_table(rng, n, dim, prefix, scale)

    return _make


def identity_model(dim, n_relations=0):
    """The untrained model: every diagonal all ones."""
    return LinkingModel(dim, np.ones(dim), np.ones(dim), [np.ones(dim) for _ in range(n_relations)])


def toy_world(rng, n_entities=6, dim=4, prefix="E"):
    labels = [f"{prefix}{i}" for i in range(n_entities)]
    entities = EmbeddingTable(dim, labels, rng.standard_normal((n_entities, dim)).astype(np.float32))
    wlabels = [f"w{i}" for i in range(10)]
    words = EmbeddingTable(dim, wlabels, rng.standard_normal((10, dim)).astype(np.float32))
    return entities, words, labels, wlabels


def random_doc(rng, labels, wlabels, n_mentions, n_cands, with_gold=True, doc_id="d"):
    mentions = []
    for _ in range(n_mentions):
        cands = list(rng.choice(labels, size=n_cands, replace=False))
        mentions.append(
            Mention(
                surface="m",
                context=list(rng.choice(wlabels, size=6)),
                candidates=cands,
                gold=cands[int(rng.integers(n_cands))] if with_gold else None,
            )
        )
    return LinkingDocument(doc_id, mentions)
