"""Each pipeline stage reads only the parameters it records.

The manifest skips a stage when its inputs and recorded parameters are
unchanged, so a stage that read a configuration value it does not record
could skip when it should rerun.  The guard scans ``pipeline.py`` with
``ast``: ``_RUNNERS`` maps each stage to a module-level runner
``(shared, inputs, params, targets)``, and in each runner every use of
``params`` is a ``params["<key>"]`` subscript naming one of the keys
`STAGES` records for that stage.  Passing ``params`` on, ``params.get`` and
``**params`` all count as unchecked reads, and no runner names ``config`` or
``PipelineConfig``.  ``run_pipeline`` defines no function of its own, so no
runner can close over the configuration.
"""

import ast
from pathlib import Path

from semlink import pipeline

PIPELINE = Path(pipeline.__file__)
SIGNATURE = ["shared", "inputs", "params", "targets"]


def stage_reads(path=PIPELINE, stages=pipeline.STAGES) -> tuple[list[str], set[tuple[str, str]]]:
    """``(problems, reads)``: each problem is ``function:line what``; ``reads``
    holds the ``(stage, key)`` of every recorded parameter a runner reads."""
    module = ast.parse(path.read_text("utf-8"))
    functions = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    runners = next(
        node.value for node in module.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_RUNNERS"]
    )
    problems, reads = [], set()
    for stage_node, runner_node in zip(runners.keys, runners.values):
        stage, name = stage_node.value, runner_node.id
        runner = functions.get(name)
        if runner is None:
            problems.append(f"{name}: not a module-level function")
            continue
        found = []  # (line, what)
        if [a.arg for a in runner.args.args] != SIGNATURE:
            found.append((runner.lineno, f"signature is not {', '.join(SIGNATURE)}"))
        recorded = stages[stage][3]
        subscripted = set()
        for node in ast.walk(runner):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "params":
                subscripted.add(id(node.value))
                key = node.slice
                if isinstance(key, ast.Constant) and key.value in recorded:
                    reads.add((stage, key.value))
                else:
                    found.append((node.lineno, f"reads params[{ast.unparse(key)}], not recorded"))
        for node in ast.walk(runner):
            if isinstance(node, ast.Name) and node.id == "params" and id(node) not in subscripted:
                found.append((node.lineno, "uses params whole"))
            if isinstance(node, ast.Name) and node.id in ("config", "PipelineConfig"):
                found.append((node.lineno, f"names {node.id}"))
        problems += [f"{name}:{line} {what}" for line, what in sorted(found)]
    run = functions["run_pipeline"]
    problems += [f"run_pipeline:{n.lineno} defines a function" for n in ast.walk(run)
                 if n is not run and isinstance(n, (ast.FunctionDef, ast.Lambda))]
    return problems, reads


def test_runners_read_only_recorded_params():
    problems, reads = stage_reads()
    assert problems == []
    unread = {(stage, key) for stage, (*_, keys) in pipeline.STAGES.items() for key in keys} - reads
    # `semantic` records `alpha` without reading it: the benchmark's sweep oracle
    # (perfbench `_check_sweep`) expects `semantic: done` after an alpha change.
    # Dropping it waits for the benchmark change (ROADMAP items 1 and 6).
    assert unread == {("semantic", "alpha")}


def test_guard_sees_unrecorded_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _a(shared, inputs, params, targets):\n"
        "    return params['x']\n"
        "def _b(shared, inputs, params, targets):\n"
        "    return params['y'], params['z']\n"
        "def _c(shared, inputs, params, targets):\n"
        "    helper(params)\n"
        "    params.get('w')\n"
        "    f(**params)\n"
        "    config.w\n"
        "    return PipelineConfig.w\n"
        "def _d(shared, params):\n"
        "    return params['w']\n"
        "def run_pipeline(config):\n"
        "    def inner(): return config\n"
        "_RUNNERS = {'a': _a, 'b': _b, 'c': _c, 'd': _d, 'e': _e}\n",
        "utf-8",
    )
    stages = {stage: ((), (), (), keys) for stage, keys in
              {"a": ("x", "v"), "b": ("y",), "c": ("w",), "d": ("w",), "e": ()}.items()}
    problems, reads = stage_reads(tmp_path / "mod.py", stages)
    assert problems == [
        "_b:4 reads params['z'], not recorded",
        "_c:6 uses params whole", "_c:7 uses params whole", "_c:8 uses params whole",
        "_c:9 names config", "_c:10 names PipelineConfig",
        "_d:11 signature is not shared, inputs, params, targets",
        "_e: not a module-level function",
        "run_pipeline:14 defines a function",
    ]
    assert reads == {("a", "x"), ("b", "y"), ("d", "w")}
