"""Staged pipeline runs, manifest idempotence, and the CLI surface."""

import hashlib
import inspect
import json
import os
import re
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from semlink import pipeline
from semlink.cli import cli, main
from semlink.embed_io import EmbeddingTable, load_binary, save_binary
from semlink.errors import ConfigError, StageError
from semlink.evaluation import convergence_experiment
from semlink.fixtures import FixtureSizes, make_fixtures
from semlink.linking_core import (
    LinkingDocument, LinkingModel, Mention, TrainConfig, infer, load_linking_jsonl, save_linking_jsonl, train,
)
from semlink.pipeline import PipelineConfig, run_pipeline
from semlink.semantic_aggregation import AggregationConfig, aggregate_table
from semlink.type_extraction import read_assignments

SIZES = FixtureSizes(
    entities=18, groups=6, train_docs=6, dev_docs=3, eval_docs=3,
    mentions_per_doc=3, dim=16, filler_words=40,
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fx")
    paths = make_fixtures(7, SIZES, root)
    return root, paths


def write_config(path, paths, out_dir, extra=""):
    path.write_text(
        f"""# pipeline configuration
words = {paths['words']}
wikitext = {paths['wikitext']}
corpus = {paths['articles']}
seeds = {paths['seeds']}
extensions = {paths['extensions']}
remap = {paths['remap']}
train = {paths['train']}
dev = {paths['dev']}
eval = {paths['eval']}
out = {out_dir}
T = 11
alpha = 0.2
epochs = 3
{extra}
""",
        "utf-8",
    )
    return path


# sha256 of each output of `test_outputs_keep_their_bytes`
PINNED = {
    "dictionary.txt": "7e5d4cc180cc53d4342303069339b651ee0a19acadd1b707d1bad8f7547f81d1",
    "remap.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "types.tsv": "efe54a18de0533f006822236c70dce2b3ca6dc9b5e4de89e841b8bb62892605f",
    "semantic.bin": "abddd57ed2cac86e3820386955d51183680f46d98ca3c9a26482aca7d2344aa8",
    "reinforced.bin": "80a1630f336fc3b99a107763f72e03269064f72a8266a0b77022adf0ae8267b8",
    "model.txt": "ec1a25aec897f603466776432d9224b3edacd3c69058843fb0b2e04bbde52f7d",
    "train_trace.json": "6ff417dd34987f63c711dd8d6deb3198c93b0e67a14629fe1b34e15661dcb444",
    "eval.json": "f16032900a90b9de6b5d6dd9a88c51e1d1da99ce90a2833ae6157a84d5feb2ce",
    "eval.tsv": "237f77c197e5c94e6a9ca7357e17b5e1be947b597c38668799e8d43f781d8585",
}


class TestPipeline:
    def test_end_to_end_and_idempotence(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        config = PipelineConfig.from_file(cfg_path)
        status = run_pipeline(config)
        assert status == {s: "done" for s in ("dict", "types", "semantic", "aggregate", "link", "eval")}
        for name in ("dictionary.txt", "types.tsv", "semantic.bin", "reinforced.bin",
                     "model.txt", "eval.json", "manifest.json"):
            assert (out / name).exists()

        # rerun with identical inputs performs no stage work
        again = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert again == {s: "skipped" for s in again}

    def test_outputs_keep_their_bytes(self, tmp_path):
        # a full run with default parameters on the default fixture (seed 7)
        paths = make_fixtures(7, FixtureSizes(), tmp_path / "fx")
        keys = {"words": "words", "wikitext": "wikitext", "corpus": "articles", "seeds": "seeds",
                "extensions": "extensions", "remap": "remap", "train": "train", "dev": "dev", "eval": "eval"}
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"{k} = {paths[v]}\n" for k, v in keys.items()) + f"out = {tmp_path / 'out'}\n")
        assert set(run_pipeline(PipelineConfig.from_file(cfg)).values()) == {"done"}
        assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in PINNED} == PINNED

    def test_word_table_loaded_once_per_run(self, fixture_dir, tmp_path, monkeypatch):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        loaded = []
        real_load = pipeline.embed_io.load_table

        def counting_load(path, *args, **kwargs):
            loaded.append(str(path))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(pipeline.embed_io, "load_table", counting_load)
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert set(status.values()) == {"done"}
        # dict, semantic, aggregate, link and eval all use the word table
        assert loaded.count(str(paths["words"])) == 1
        loaded.clear()
        run_pipeline(PipelineConfig.from_file(cfg_path, overrides={"alpha": "0.3"}))
        assert loaded.count(str(paths["words"])) == 1

    def test_each_artifact_hashed_and_read_once_per_run(self, fixture_dir, tmp_path, monkeypatch):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        hashed, parsed, loaded = Counter(), Counter(), Counter()
        real_sha256 = pipeline._sha256
        real_read = pipeline.type_extraction.read_assignments
        real_load = pipeline.embed_io.load_table

        def counting_sha256(path):
            hashed[Path(path).resolve()] += 1
            return real_sha256(path)

        def counting_read(path, *args, **kwargs):
            parsed[Path(path).name] += 1
            return real_read(path, *args, **kwargs)

        def counting_load(path, *args, **kwargs):
            loaded[Path(path).name] += 1
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_sha256", counting_sha256)
        monkeypatch.setattr(pipeline.type_extraction, "read_assignments", counting_read)
        monkeypatch.setattr(pipeline.embed_io, "load_table", counting_load)

        def run(overrides, skipped):
            hashed.clear(), parsed.clear(), loaded.clear()
            status = run_pipeline(PipelineConfig.from_file(cfg_path, overrides))
            assert [s for s in status if status[s] == "skipped"] == skipped, status
            assert max(hashed.values()) == 1, hashed
            assert hashed[Path(paths["words"]).resolve()] == 1

        run({}, [])  # cold
        assert parsed["types.tsv"] == 1
        assert loaded["reinforced.bin"] == 0  # link and eval use aggregate's table
        run({"alpha": "0.3"}, ["dict", "types"])  # sweep
        assert parsed["types.tsv"] == 1
        assert loaded["reinforced.bin"] == 0
        run({"alpha": "0.3"}, list(pipeline.STAGE_ORDER))  # no-op
        assert parsed["types.tsv"] == 0 and loaded["reinforced.bin"] == 0
        # aggregate skipped, link and eval rerun: they share one load
        run({"alpha": "0.3", "epochs": "2"}, ["dict", "types", "semantic", "aggregate"])
        assert parsed["types.tsv"] == 0 and loaded["reinforced.bin"] == 1

    def test_input_edited_between_runs_is_hashed_again(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        train = tmp_path / "train.jsonl"
        lines = paths["train"].read_text("utf-8").splitlines(keepends=True)
        train.write_text("".join(lines), "utf-8")
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra=f"train = {train}\n")
        assert set(run_pipeline(PipelineConfig.from_file(cfg_path)).values()) == {"done"}
        train.write_text("".join(lines[1:]), "utf-8")
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert status == {"dict": "skipped", "types": "skipped", "semantic": "skipped",
                          "aggregate": "skipped", "link": "done", "eval": "done"}
        assert set(run_pipeline(PipelineConfig.from_file(cfg_path)).values()) == {"skipped"}

    def test_damaged_output_is_rebuilt_and_hashed_again(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        run_pipeline(PipelineConfig.from_file(cfg_path))
        types = (out / "types.tsv").read_bytes()
        (out / "types.tsv").write_bytes(b"damaged\tlawyer\n")
        # types reruns and writes the same file, so its consumers stay fresh
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert [s for s in status if status[s] == "done"] == ["types"]
        assert (out / "types.tsv").read_bytes() == types
        assert set(run_pipeline(PipelineConfig.from_file(cfg_path)).values()) == {"skipped"}

    def test_pipeline_matches_manual_stage_composition(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out,
                                extra="stages = dict,types,semantic,aggregate\n")
        run_pipeline(PipelineConfig.from_file(cfg_path))

        words = load_binary(paths["words"])
        wikitext = load_binary(paths["wikitext"])
        assignments = read_assignments(out / "types.tsv")
        manual = aggregate_table(wikitext, assignments, words, AggregationConfig(T=11, alpha=0.2))
        manual_path = tmp_path / "manual.bin"
        save_binary(manual, manual_path)
        assert manual_path.read_bytes() == (out / "reinforced.bin").read_bytes()

    def test_all_stages_disabled_writes_manifest_only(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra="stages =\n")
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert status == {}
        assert (out / "manifest.json").exists()
        assert not (out / "types.tsv").exists()

    def test_missing_input_fails_validation_before_stages(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        config = PipelineConfig.from_file(cfg_path, {"words": str(tmp_path / "nope.bin")})
        with pytest.raises(ConfigError):
            run_pipeline(config)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "key, stages",
        [("dev", "all"), ("extensions", "all"), ("remap", "all"), ("words", "dict"), ("remap", "types")],
    )
    def test_bad_optional_input_fails_before_any_stage(self, fixture_dir, tmp_path, key, stages):
        root, paths = fixture_dir
        out = tmp_path / "out"
        extra = "" if stages == "all" else f"stages = {stages}\ndictionary = {paths['seeds']}\n"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra=extra)
        for bad in (tmp_path / "nope", tmp_path):  # missing, or a directory
            config = PipelineConfig.from_file(cfg_path, {key: str(bad)})
            with pytest.raises(ConfigError, match=f"'{key}' is not a file"):
                run_pipeline(config)
            assert not out.exists() or not any(out.iterdir())

    def test_copied_output_directory_or_other_cwd_skips_every_stage(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        root, paths = fixture_dir
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path / "p.cfg", paths, "out")
        assert set(run_pipeline(PipelineConfig.from_file(cfg_path)).values()) == {"done"}
        entry = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))["stages"]["types"]
        assert set(entry["inputs"]) == {"corpus", "dictionary", "remap"}
        assert set(entry["outputs"]) == {"types.tsv"}

        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        status = run_pipeline(PipelineConfig.from_file(cfg_path, {"out": str(tmp_path / "out")}))
        assert status == {s: "skipped" for s in pipeline.STAGE_ORDER}
        shutil.copytree(tmp_path / "out", elsewhere / "copy")
        status = run_pipeline(PipelineConfig.from_file(cfg_path, {"out": "copy"}))
        assert status == {s: "skipped" for s in pipeline.STAGE_ORDER}

    def test_old_format_manifest_reruns_each_stage_once(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        run_pipeline(PipelineConfig.from_file(cfg_path))
        # the earlier layout keyed inputs and outputs by path as given
        config = PipelineConfig.from_file(cfg_path)
        config.validate()
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        for stage, entry in manifest["stages"].items():
            inputs = config.inputs(stage)
            entry["inputs"] = {str(inputs[key]): digest for key, digest in entry["inputs"].items()}
            entry["outputs"] = {str(out / name): digest for name, digest in entry["outputs"].items()}
            if "normalize_words" in entry["params"]:
                entry["params"]["normalize"] = entry["params"].pop("normalize_words")
        (out / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert status == {s: "done" for s in pipeline.STAGE_ORDER}
        assert set(run_pipeline(PipelineConfig.from_file(cfg_path)).values()) == {"skipped"}

    def test_train_trace_matches_link_train_cli(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        run_pipeline(PipelineConfig.from_file(write_config(tmp_path / "p.cfg", paths, out)))
        trace = tmp_path / "trace.json"
        r = CliRunner().invoke(cli, [
            "link", "train", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
            "--entities", str(out / "reinforced.bin"), "--words", str(paths["words"]),
            "--epochs", "3", "--out-model", str(tmp_path / "model.txt"), "--out-trace", str(trace),
        ])
        assert r.exit_code == 0, r.output
        assert trace.read_bytes() == (out / "train_trace.json").read_bytes()
        assert (tmp_path / "model.txt").read_bytes() == (out / "model.txt").read_bytes()

    def test_stage_failure_keeps_old_outputs_and_names_stage(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        # corrupt the types input so the semantic stage fails mid-run
        bad_types = tmp_path / "bad_types.tsv"
        bad_types.write_text("entX\tunembeddable_word\n", "utf-8")
        cfg_path = write_config(
            tmp_path / "p.cfg", paths, out,
            extra=f"stages = semantic\ntypes_file = {bad_types}\n",
        )
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig.from_file(cfg_path))
        assert err.value.stage == "semantic"
        assert not (out / "semantic.bin").exists()
        # over an existing output, on bad data and on a write that fails
        (out / "semantic.bin").write_bytes(b"old table\n")
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig.from_file(cfg_path))
        assert err.value.stage == "semantic"
        assert (out / "semantic.bin").read_bytes() == b"old table\n"
        good = write_config(tmp_path / "q.cfg", paths, out, extra="stages = dict\n")
        (out / "dictionary.txt").mkdir()
        with pytest.raises(StageError, match="stage 'dict' failed: .*Errno 21") as err:
            run_pipeline(PipelineConfig.from_file(good))
        assert isinstance(err.value.cause, OSError)
        assert sorted(os.listdir(out)) == ["dictionary.txt", "semantic.bin"]  # no temp file
        assert (out / "semantic.bin").read_bytes() == b"old table\n"

    def test_link_stage_accepts_conll_tsv_corpus(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        from semlink.linking_core import load_linking_jsonl

        docs = load_linking_jsonl(paths["train"])[:3]
        tsv = tmp_path / "train.tsv"
        with open(tsv, "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(f"-DOCSTART- ({doc.doc_id})\n")
                for m in doc.mentions:
                    half = len(m.context) // 2
                    for tok in m.context[:half]:
                        fh.write(tok + "\n")
                    fh.write(f"{m.surface}\tB\t{m.surface}\t{m.gold}\t{','.join(m.candidates)}\n")
                    for tok in m.context[half:]:
                        fh.write(tok + "\n")
        out = tmp_path / "out"
        cfg_path = write_config(
            tmp_path / "p.cfg", paths, out,
            extra=f"stages = link\nreinforced = {paths['wikitext']}\ntrain = {tsv}\nwindow = 10\ndev =\n",
        )
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert status == {"link": "done"}
        assert (out / "model.txt").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("nonsense = 1\n", "utf-8")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(p)

    @pytest.mark.parametrize(
        "key, value",
        [("T", "abc"), ("alpha", "x"), ("epochs", "1.5"), ("lr", "nan"), ("margin", "inf"),
         ("normalize_words", "maybe"), ("normalize_words", "")],
    )
    def test_bad_config_value_names_key_value_and_file(self, tmp_path, key, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"out = {tmp_path / 'o'}\n{key} = {value}\n", "utf-8")
        with pytest.raises(ConfigError) as e:
            PipelineConfig.from_file(p)
        assert f"{p}:2" in str(e.value)
        assert key in str(e.value) and repr(value) in str(e.value)
        p.write_text(f"out = {tmp_path / 'o'}\n", "utf-8")
        with pytest.raises(ConfigError) as e:
            PipelineConfig.from_file(p, {key: value})
        assert "--set" in str(e.value) and key in str(e.value)

    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("0", False), ("true", True), ("False", False), ("YES", True), ("no", False)],
    )
    def test_config_booleans(self, tmp_path, value, expected):
        p = tmp_path / "c.cfg"
        p.write_text(f"normalize_words = {value}\n", "utf-8")
        assert PipelineConfig.from_file(p).normalize_words is expected

    def test_config_file_not_utf8(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"T = 3\nstrategy = caf\xe9\n")
        with pytest.raises(ConfigError) as e:
            PipelineConfig.from_file(p)
        assert f"{p}:2" in str(e.value) and "UTF-8" in str(e.value)

    def test_invalid_parameters_rejected(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        cfg_path = write_config(tmp_path / "p.cfg", paths, tmp_path / "o")
        config = PipelineConfig.from_file(cfg_path, {"alpha": "1.5"})
        with pytest.raises(ConfigError):
            run_pipeline(config)

    @pytest.mark.parametrize(
        "key, value", [("strategy", "bogus"), ("seed", "-1"), ("epochs", "-1"), ("window", "-1")],
    )
    def test_bad_training_parameter_fails_before_any_stage(self, fixture_dir, tmp_path, capsys,
                                                           key, value):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(cfg_path, {key: value}).validate()
        with pytest.raises(SystemExit) as e:
            main(["pipeline", "run", "--config", str(cfg_path), "--set", f"{key}={value}"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert key in err and value in err
        assert not out.exists()

    def test_changed_parameter_invalidates_stage(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out,
                                extra="stages = dict,types,semantic,aggregate\n")
        run_pipeline(PipelineConfig.from_file(cfg_path))
        status = run_pipeline(PipelineConfig.from_file(cfg_path, {"alpha": "0.1"}))
        assert status["aggregate"] == "done"
        assert status["types"] == "skipped"

    def test_normalize_words_reruns_link_and_eval(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        extra = f"stages = link,eval\nreinforced = {paths['wikitext']}\nepochs = 5\n"
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra=extra)
        run_pipeline(PipelineConfig.from_file(cfg_path, {"normalize_words": "0"}))
        status = run_pipeline(PipelineConfig.from_file(cfg_path, {"normalize_words": "1"}))
        assert status == {"link": "done", "eval": "done"}
        fresh = tmp_path / "fresh"
        fresh_cfg = write_config(tmp_path / "fresh.cfg", paths, fresh, extra=extra)
        run_pipeline(PipelineConfig.from_file(fresh_cfg, {"normalize_words": "1"}))
        assert (out / "eval.json").read_bytes() == (fresh / "eval.json").read_bytes()

    def test_normalize_words_switch_reruns_every_stage_reading_words(self, fixture_dir, tmp_path, monkeypatch):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        run_pipeline(PipelineConfig.from_file(cfg_path, {"normalize_words": "0"}))
        dictionary = (out / "dictionary.txt").read_bytes()
        loaded = []
        real_load = pipeline.embed_io.load_table

        def counting_load(path, *args, **kwargs):
            loaded.append(str(path))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(pipeline.embed_io, "load_table", counting_load)
        status = run_pipeline(PipelineConfig.from_file(cfg_path, {"normalize_words": "1"}))
        assert status == {s: "skipped" if s == "types" else "done" for s in pipeline.STAGE_ORDER}
        assert (out / "dictionary.txt").read_bytes() == dictionary
        assert loaded.count(str(paths["words"])) == 1

    def test_output_replaced_by_directory_names_its_stage(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out)
        main(["pipeline", "run", "--config", str(cfg_path)])
        (out / "types.tsv").unlink()
        (out / "types.tsv").mkdir()
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            main(["pipeline", "run", "--config", str(cfg_path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "stage 'types' failed" in err and "not a regular file" in err, err
        assert (out / "types.tsv").is_dir()

    def test_readme_stage_table_matches_stages(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        table = {}
        for line in readme.splitlines():
            cells = line.strip().strip("|").split("|")
            stage = cells[0].strip().strip("`")
            if line.startswith("|") and len(cells) == 5 and stage in pipeline.STAGES:
                table[stage] = tuple(tuple(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:])
        assert list(table.items()) == list(pipeline.STAGES.items())

    def test_changed_version_reruns_every_stage(self, fixture_dir, tmp_path, monkeypatch):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out,
                                extra="stages = dict,types,semantic,aggregate\n")
        run_pipeline(PipelineConfig.from_file(cfg_path))
        assert set(run_pipeline(PipelineConfig.from_file(cfg_path)).values()) == {"skipped"}
        recorded = json.loads((out / "manifest.json").read_text("utf-8"))["stages"]
        assert {entry["params"]["semlink"] for entry in recorded.values()} == {pipeline._code_fingerprint()}
        monkeypatch.setattr(pipeline, "_code_fingerprint", lambda: "0" * 64)
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert set(status.values()) == {"done"}
        recorded = json.loads((out / "manifest.json").read_text("utf-8"))["stages"]
        assert {entry["params"]["semlink"] for entry in recorded.values()} == {"0" * 64}

    def test_code_fingerprint_covers_every_source_file(self):
        package = Path(pipeline.__file__).parent
        digests = "".join(
            f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in sorted(package.glob("*.py"))
        )
        assert "pipeline.py " in digests and "embed_io.py " in digests
        assert pipeline._code_fingerprint() == hashlib.sha256(digests.encode()).hexdigest()

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_manifest_write_keeps_old_manifest(self, fixture_dir, tmp_path, monkeypatch, failing):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra="stages = dict\n")
        run_pipeline(PipelineConfig.from_file(cfg_path))
        manifest = out / "manifest.json"
        before = manifest.read_bytes()

        real = getattr(os, failing)

        def crash(*args):
            if not (out / "types.tsv").exists():  # the types stage's own output
                return real(*args)
            raise OSError("simulated crash while writing the manifest")

        # a crash after the new text is written but before it is durable, or
        # just before the rename: either way the old manifest must survive.
        # Every output is synced and renamed the same way, so the crash waits
        # until the types stage has put its output in place.
        monkeypatch.setattr(os, failing, crash)
        more = write_config(tmp_path / "q.cfg", paths, out, extra="stages = dict,types\n")
        with pytest.raises(OSError, match="simulated crash"):
            run_pipeline(PipelineConfig.from_file(more))
        monkeypatch.undo()
        assert manifest.read_bytes() == before
        assert set(json.loads(before)["stages"]) == {"dict"}
        assert [p.name for p in out.iterdir() if "manifest" in p.name] == ["manifest.json"]
        # the surviving manifest still lets the finished stage be skipped
        assert run_pipeline(PipelineConfig.from_file(more)) == {"dict": "skipped", "types": "done"}

    @pytest.mark.parametrize("damage", [b'{"stages": {"dict": "\xff"}}', b"[1, 2]", b'{"stages": [1]}', b'"stages"',
                                        b'{"stages": {"dict": 5}}'],
                             ids=["not-utf8", "array", "array-stages", "string", "number-entry"])
    def test_damaged_manifest_reruns_every_stage(self, fixture_dir, tmp_path, damage):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra="stages = dict\n")
        run_pipeline(PipelineConfig.from_file(cfg_path))
        (out / "manifest.json").write_bytes(damage)
        assert run_pipeline(PipelineConfig.from_file(cfg_path)) == {"dict": "done"}
        assert run_pipeline(PipelineConfig.from_file(cfg_path)) == {"dict": "skipped"}

    @pytest.mark.parametrize("damage", ["no outputs", "one output missing", "outputs as list"])
    def test_entry_not_listing_every_output_reruns(self, fixture_dir, tmp_path, damage):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra="stages = dict\n")
        run_pipeline(PipelineConfig.from_file(cfg_path))
        dictionary = (out / "dictionary.txt").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        entry = manifest["stages"]["dict"]
        if damage == "no outputs":
            del entry["outputs"]
        elif damage == "one output missing":
            del entry["outputs"]["dictionary.txt"]
        else:
            entry["outputs"] = list(entry["outputs"])
        (out / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        (out / "dictionary.txt").unlink()
        assert run_pipeline(PipelineConfig.from_file(cfg_path)) == {"dict": "done"}
        assert (out / "dictionary.txt").read_bytes() == dictionary
        assert run_pipeline(PipelineConfig.from_file(cfg_path)) == {"dict": "skipped"}


class TestCli:
    def test_embed_convert_round_trip(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        runner = CliRunner()
        out_txt = tmp_path / "words.txt"
        out_bin = tmp_path / "back.bin"
        r1 = runner.invoke(cli, ["embed", "convert", "--in", str(paths["words"]), "--out", str(out_txt)])
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(cli, ["embed", "convert", "--in", str(out_txt), "--out", str(out_bin)])
        assert r2.exit_code == 0
        assert load_binary(out_bin) == load_binary(paths["words"])

    def test_embed_reinforce_and_neighbors(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        runner = CliRunner()
        out_bin = tmp_path / "reinforced.bin"
        r = runner.invoke(cli, [
            "embed", "reinforce",
            "--wikitext", str(paths["wikitext"]), "--words", str(paths["words"]),
            "--types", str(paths["types"]), "--T", "11", "--alpha", "0.2",
            "--out", str(out_bin),
        ])
        assert r.exit_code == 0, r.output
        table = load_binary(out_bin)
        query = table.labels[0]
        r2 = runner.invoke(cli, ["embed", "neighbors", "--table", str(out_bin), "--query", query, "-k", "3"])
        assert r2.exit_code == 0
        assert len(r2.output.strip().splitlines()) == 4  # header + 3 rows

    def test_types_extract_matches_fixture(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        runner = CliRunner()
        out_tsv = tmp_path / "types.tsv"
        r = runner.invoke(cli, [
            "types", "extract", "--corpus", str(paths["articles"]),
            "--dictionary", str(paths["seeds"]), "--cap", "11", "--out", str(out_tsv),
        ])
        assert r.exit_code == 0, r.output
        assert out_tsv.read_bytes() == paths["types"].read_bytes()

    def test_link_train_infer_eval_f1(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        runner = CliRunner()
        model = tmp_path / "model.txt"
        r = runner.invoke(cli, [
            "link", "train", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
            "--entities", str(paths["wikitext"]), "--words", str(paths["words"]),
            "--epochs", "3", "--out-model", str(model),
        ])
        assert r.exit_code == 0, r.output
        pred = tmp_path / "pred.tsv"
        r2 = runner.invoke(cli, [
            "link", "infer", "--docs", str(paths["eval"]), "--entities", str(paths["wikitext"]),
            "--words", str(paths["words"]), "--model", str(model),
            "--strategy", "greedy-local", "--out", str(pred),
        ])
        assert r2.exit_code == 0, r2.output
        out_json = tmp_path / "f1.json"
        r3 = runner.invoke(cli, [
            "eval", "f1", "--docs", str(paths["eval"]), "--pred", str(pred),
            "--out", str(out_json),
        ])
        assert r3.exit_code == 0, r3.output
        payload = json.loads(out_json.read_text("utf-8"))
        assert 0.0 <= payload["micro_f1"] <= 1.0

    def test_link_convert_conll_tsv(self, tmp_path):
        src = tmp_path / "corpus.tsv"
        src.write_text(
            "-DOCSTART- (doc_a)\n"
            "The\n"
            "city\tB\tthe city\tCity_X\tCity_X:0.8,City_Y\n"
            "was\n",
            "utf-8",
        )
        out = tmp_path / "docs.jsonl"
        runner = CliRunner()
        r = runner.invoke(cli, ["link", "convert", "--in", str(src), "--out", str(out), "--window", "3"])
        assert r.exit_code == 0, r.output
        from semlink.linking_core import load_linking_jsonl

        (doc,) = load_linking_jsonl(out)
        assert doc.mentions[0].candidates == ["City_X", "City_Y"]
        assert doc.mentions[0].context == ["the", "was"]

    def test_eval_runs_summary(self):
        runner = CliRunner()
        r = runner.invoke(cli, ["eval", "runs", "--scores", "0.9,0.92,0.91,0.89,0.9"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["runs"] == 5
        assert 0.89 <= payload["mean"] <= 0.92

    def test_dict_expand_cli(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        runner = CliRunner()
        seed_word = paths["seeds"].read_text("utf-8").split()[0]
        out = tmp_path / "expanded.tsv"
        r = runner.invoke(cli, [
            "dict", "expand", "--seeds", seed_word,
            "--embeddings", str(paths["words"]), "--corpus", str(paths["articles"]),
            "-k", "5", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        lines = out.read_text("utf-8").splitlines()
        assert lines[0] == "seed\tword\tsimilarity"
        assert all(line.split("\t")[0] == seed_word for line in lines[1:])
        assert 1 <= len(lines) - 1 <= 5

    def test_dict_mine_and_build(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        runner = CliRunner()
        nouns = tmp_path / "nouns.tsv"
        r = runner.invoke(cli, ["dict", "mine", "--corpus", str(paths["articles"]), "--out", str(nouns)])
        assert r.exit_code == 0, r.output
        out_w, out_r = tmp_path / "w.txt", tmp_path / "r.tsv"
        r2 = runner.invoke(cli, [
            "dict", "build", "--seeds", str(paths["seeds"]), "--nouns", str(nouns),
            "--out-words", str(out_w), "--out-remap", str(out_r),
        ])
        assert r2.exit_code == 0, r2.output
        assert out_w.read_text("utf-8").splitlines() == sorted(
            paths["seeds"].read_text("utf-8").split()
        )

    def test_exit_codes(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        # usage error -> 1
        with pytest.raises(SystemExit) as e:
            main(["embed", "bogus-command"])
        assert e.value.code == 1
        # data error -> 2
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a header")
        with pytest.raises(SystemExit) as e:
            main(["embed", "convert", "--in", str(bad), "--out", str(tmp_path / "o.bin")])
        assert e.value.code == 2
        # capacity error -> 3 (40 candidates ^ 4 mentions > 1e6)
        import semlink.linking_core as lc
        from semlink.linking_core import LinkingDocument, Mention, save_linking_jsonl

        labels = [f"ent{i:04d}" for i in range(SIZES.entities)]
        docs_path = tmp_path / "big.jsonl"
        doc = LinkingDocument(
            "big", [Mention("m", context=[], candidates=labels) for _ in range(6)]
        )
        save_linking_jsonl([doc], docs_path)
        model_path = tmp_path / "model.txt"
        lc.LinkingModel.identity(SIZES.dim).save(model_path)
        with pytest.raises(SystemExit) as e:
            main([
                "link", "infer", "--docs", str(docs_path),
                "--entities", str(paths["wikitext"]), "--words", str(paths["words"]),
                "--model", str(model_path), "--strategy", "exhaustive", "--out", str(tmp_path / "p.tsv"),
            ])
        assert e.value.code == 3

    @pytest.mark.parametrize("mention, record, fault", [
        ({"context": "the quick brown fox"}, {}, "context must be a JSON array, not string"),
        ({"context": [1, 2, 3]}, {}, "context token must be a JSON string, not number"),
        ({"context": [["x"]]}, {}, "context token must be a JSON string, not array"),
        ({"candidates": "ent0001"}, {}, "candidates must be a JSON array, not string"),
        ({"candidates": [7]}, {}, "candidate must be a JSON string, not number"),
        ({"candidates": [[]]}, {}, "candidate pair must be [label, prior], got []"),
        ({"candidates": [[0.5, "ent0001"]]}, {}, "candidate label must be a JSON string, not number"),
        ({"surface": None}, {}, "surface must be a JSON string, not null"),
        ({"gold": 3}, {}, "gold must be a JSON string, not number"),
        ({}, {"mentions": {"surface": "x"}}, "mentions must be a JSON array, not object"),
        ({}, {"mentions": ["x"]}, "mention must be a JSON object, not string"),
        ({}, {"doc_id": 12}, "doc_id must be a JSON string, not number"),
        ({}, "as list", "record must be a JSON object, not array"),
        ({}, {"mentions": []}, "has no mentions"),
    ], ids=["string-context", "number-tokens", "array-token", "string-candidates", "number-candidate",
            "empty-pair", "number-pair-label", "null-surface", "number-gold", "object-mentions",
            "string-mention", "number-doc-id", "array-record", "empty-mentions"])
    def test_link_infer_mistyped_record_exits_2(self, fixture_dir, tmp_path, capsys, mention, record, fault):
        root, paths = fixture_dir
        first, second = paths["eval"].read_text("utf-8").splitlines()[:2]
        bad = json.loads(second)
        bad["mentions"][0].update(mention)
        if record == "as list":
            bad = [bad]
        else:
            bad.update(record)
        docs = tmp_path / "docs.jsonl"
        docs.write_text(f"{first}\n{json.dumps(bad)}\n", "utf-8")
        model = tmp_path / "model.txt"
        LinkingModel.identity(SIZES.dim).save(model)
        with pytest.raises(SystemExit) as e:
            main([
                "link", "infer", "--docs", str(docs), "--entities", str(paths["wikitext"]),
                "--words", str(paths["words"]), "--model", str(model), "--out", str(tmp_path / "p.tsv"),
            ])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert fault in err
        assert f"{docs}:2" in err

    @pytest.mark.parametrize("scores", ["0.9,abc", "@file"])
    def test_eval_runs_bad_score_exits_2(self, tmp_path, capsys, scores):
        if scores == "@file":
            path = tmp_path / "scores.txt"
            path.write_text("0.9\n0.8\nabc\n", "utf-8")
            scores = f"@{path}"
        with pytest.raises(SystemExit) as e:
            main(["eval", "runs", "--scores", scores])
        assert e.value.code == 2
        assert "abc" in capsys.readouterr().err

    @pytest.mark.parametrize("scores", ["", ",", " , ", "@file"])
    def test_eval_runs_no_scores_exits_2(self, tmp_path, capsys, scores):
        if scores == "@file":
            path = tmp_path / "scores.txt"
            path.write_text("\n", "utf-8")
            scores = f"@{path}"
        with pytest.raises(SystemExit) as e:
            main(["eval", "runs", "--scores", scores])
        assert e.value.code == 2
        assert "no scores" in capsys.readouterr().err

    @pytest.mark.parametrize("scores", ["0.9,nan,0.8", "0.9,inf", "-inf,0.9", "@file"])
    def test_eval_runs_non_finite_score_exits_2(self, tmp_path, capsys, scores):
        path = None
        if scores == "@file":
            path = tmp_path / "scores.txt"
            path.write_text("0.9\nNaN\n0.8\n", "utf-8")
            scores = f"@{path}"
        with pytest.raises(SystemExit) as e:
            main(["eval", "runs", "--scores", scores])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite score" in captured.err
        if path is not None:
            assert str(path) in captured.err

    def test_eval_f1_short_prediction_line_exits_2(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        pred = tmp_path / "pred.tsv"
        pred.write_text("doc0\tent0001\n", "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["eval", "f1", "--docs", str(paths["eval"]), "--pred", str(pred)])
        assert e.value.code == 2
        assert f"{pred}:1" in capsys.readouterr().err

    def test_eval_f1_non_integer_index_exits_2(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        pred = tmp_path / "pred.tsv"
        pred.write_text("doc0\tfirst\tent0001\n", "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["eval", "f1", "--docs", str(paths["eval"]), "--pred", str(pred)])
        assert e.value.code == 2

    def test_eval_geometry_short_pair_line_exits_2(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# header\nent0000\tent0001\n", "utf-8")
        with pytest.raises(SystemExit) as e:
            main([
                "eval", "geometry", "--baseline", str(paths["wikitext"]),
                "--reinforced", str(paths["wikitext"]), "--pairs", str(pairs),
            ])
        assert e.value.code == 2
        assert f"{pairs}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds, token", [("", None), (" , ", None), ("1,x", "'x'"),
                                              ("-1", "'-1'"), ("2,1.5", "'1.5'")])
    def test_eval_converge_bad_seeds_exit_2(self, fixture_dir, tmp_path, capsys, seeds, token):
        root, paths = fixture_dir
        with pytest.raises(SystemExit) as e:
            main([
                "eval", "converge", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
                "--words", str(paths["words"]), "--baseline", str(paths["wikitext"]),
                "--reinforced", str(paths["wikitext"]), f"--seeds={seeds}", "--epochs", "1",
            ])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert (token or "no seeds given") in err

    @pytest.mark.parametrize("command, option, value", [
        ("link train", "--seed", "-1"),
        ("link train", "--epochs", "-2"),
        ("eval converge", "--epochs", "-3"),
        ("link train", "--margin", "nan"),
        ("link train", "--lr", "nan"),
        ("link train", "--lr", "inf"),
        ("eval converge", "--margin", "-inf"),
        ("eval converge", "--lr", "nan"),
    ])
    def test_negative_training_argument_exits_2_before_any_load(
        self, fixture_dir, tmp_path, capsys, monkeypatch, command, option, value
    ):
        root, paths = fixture_dir

        def no_load(path):
            pytest.fail(f"table {path} loaded before the arguments were checked")

        monkeypatch.setattr("semlink.cli.embed_io.load_table", no_load)
        model = tmp_path / "model.txt"
        args = {
            "link train": ["--entities", str(paths["wikitext"]), "--out-model", str(model)],
            "eval converge": ["--baseline", str(paths["wikitext"]), "--reinforced", str(paths["wikitext"]),
                              "--out", str(tmp_path / "study.json")],
        }[command]
        with pytest.raises(SystemExit) as e:
            main([*command.split(), "--train", str(paths["train"]), "--dev", str(paths["dev"]),
                  "--words", str(paths["words"]), *args, f"{option}={value}"])
        assert e.value.code == 2
        if value.lstrip("-") in ("nan", "inf"):
            assert f"{option[2:]} must be a finite number, got {value}" in capsys.readouterr().err
        else:
            assert f"{option[2:]} must be >= 0, got {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eval_converge_out_matches_study(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "study.json"
        reinforced = tmp_path / "reinforced.bin"
        words = load_binary(paths["words"])
        wikitext = load_binary(paths["wikitext"])
        table = aggregate_table(wikitext, read_assignments(paths["types"]), words,
                                AggregationConfig(T=11, alpha=0.2))
        save_binary(table, reinforced)
        r = CliRunner().invoke(cli, [
            "eval", "converge", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
            "--words", str(paths["words"]), "--baseline", str(paths["wikitext"]),
            "--reinforced", str(reinforced), "--seeds", "3,1,3", "--epochs", "6",
            "--theta", "0.5", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        train_docs = load_linking_jsonl(paths["train"])
        dev_docs = load_linking_jsonl(paths["dev"])
        config = TrainConfig(margin=1.0, lr=0.01, epochs=6)
        report = convergence_experiment(train_docs, dev_docs, words, wikitext, load_binary(reinforced),
                                        config, [3, 1, 3], theta=0.5)
        assert json.loads(out.read_text("utf-8")) == json.loads(json.dumps(report.to_dict()))
        for name, entities in (("baseline", wikitext), ("reinforced", load_binary(reinforced))):
            result = report.sets[name]
            assert result.seeds == [3, 1, 3]
            for seed, trace in zip(result.seeds, result.dev_f1_traces):
                one = train(train_docs, entities, words, replace(config, seed=seed), dev_docs)
                assert trace == one.dev_f1_trace

    def test_pipeline_run_cli(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out,
                                extra="stages = dict,types\n")
        runner = CliRunner()
        r = runner.invoke(cli, ["pipeline", "run", "--config", str(cfg_path)])
        assert r.exit_code == 0, r.output
        assert "dict: done" in r.output and "types: done" in r.output

    @pytest.mark.parametrize(
        "content, needle",
        [(b"epochs = 1.5\n", "epochs"), (b"normalize_words = maybe\n", "normalize_words"),
         (b"alpha = \xe9\n", "UTF-8")],
    )
    def test_pipeline_run_bad_config_exits_2(self, tmp_path, capsys, content, needle):
        p = tmp_path / "bad.cfg"
        p.write_bytes(content)
        with pytest.raises(SystemExit) as e:
            main(["pipeline", "run", "--config", str(p)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"{p}:1" in err and needle in err

    @pytest.mark.parametrize("key", ["out", "words", "types_file"])
    def test_pipeline_run_nul_in_path_exits_2(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "nul.cfg"
        p.write_bytes(f"T = 3\n{key} = o\0x\n".encode())
        for extra, where in (([], f"{p}:2"), (["--set", f"{key}=o\0y"], "--set")):
            with pytest.raises(SystemExit) as e:
                main(["pipeline", "run", "--config", str(p), *extra])
            assert e.value.code == 2
            err = capsys.readouterr().err
            assert f"{where}: {key} = " in err and "NUL byte" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["nul.cfg"]

    def test_model_file_error_exits_2(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        model.write_bytes(b"2 0\n1 \xe9\n1 1\n")
        with pytest.raises(SystemExit) as e:
            main([
                "link", "infer", "--docs", str(paths["eval"]),
                "--entities", str(paths["wikitext"]), "--words", str(paths["words"]),
                "--model", str(model), "--out", str(tmp_path / "p.tsv"),
            ])
        assert e.value.code == 2
        assert str(model) in capsys.readouterr().err

    def test_fixtures_make_cli(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "fx"
        r = runner.invoke(cli, ["fixtures", "make", "--out", str(out), "--seed", "3",
                                "--entities", "12", "--groups", "4", "--dim", "8",
                                "--train-docs", "2", "--dev-docs", "1", "--eval-docs", "1"])
        assert r.exit_code == 0, r.output
        assert (out / "words.bin").exists()

    def test_eval_geometry_cli(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        runner = CliRunner()
        reinforced = tmp_path / "reinf.bin"
        runner.invoke(cli, [
            "embed", "reinforce", "--wikitext", str(paths["wikitext"]),
            "--words", str(paths["words"]), "--types", str(paths["types"]),
            "--out", str(reinforced),
        ])
        table = load_binary(paths["wikitext"])
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            f"{table.labels[0]}\t{table.labels[6]}\tsame\n"
            f"{table.labels[0]}\t{table.labels[1]}\tdifferent\n",
            "utf-8",
        )
        r = runner.invoke(cli, [
            "eval", "geometry", "--baseline", str(paths["wikitext"]),
            "--reinforced", str(reinforced), "--pairs", str(pairs),
        ])
        assert r.exit_code == 0, r.output
        assert "mean_delta" in r.output

    @pytest.mark.parametrize("args, needle", [
        ("embed reinforce --wikitext {wikitext} --words {words} --types {types} --T 0 --out {tmp}/r.bin",
         "T must be >= 1, got 0"),
        ("embed reinforce --wikitext {wikitext} --words {words} --types {types} --alpha 2 --out {tmp}/r.bin",
         "alpha must be in [0, 1], got 2"),
        ("types extract --corpus {articles} --dictionary {seeds} --cap 0 --out {tmp}/t.tsv", "cap must be >= 1, got 0"),
        ("embed neighbors --table {wikitext} --query ent0000 -k 0", "k must be >= 1, got 0"),
        ("dict expand --seeds type00w0 --embeddings {words} --corpus {articles} -k 0 --out {tmp}/x.tsv",
         "k must be >= 1, got 0"),
        ("fixtures make --out {tmp}/fx --dim 0", "dim must be >= 1, got 0"),
        ("fixtures make --out {tmp}/fx --candidates 0", "candidates must be >= 1, got 0"),
        ("fixtures make --out {tmp}/fx --entities -1", "entities must be >= 0, got -1"),
        ("fixtures make --out {tmp}/fx --entities 5 --groups 0", "groups must be >= 1, got 0"),
        ("pipeline run --config {empty_seeds_config}", "stage 'types' failed: dictionary is empty"),
        ("link convert --in {articles} --out {tmp}/c.jsonl --window -1", "window must be >= 0, got -1"),
    ], ids=["reinforce-T", "reinforce-alpha", "extract-cap", "neighbors-k", "expand-k", "fixtures-dim",
            "fixtures-candidates", "fixtures-entities", "fixtures-groups", "pipeline-empty-seeds",
            "convert-window"])
    def test_out_of_range_value_exits_2(self, fixture_dir, tmp_path, capsys, args, needle):
        root, paths = fixture_dir
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("", "utf-8")
        config = write_config(tmp_path / "p.cfg", paths, tmp_path / "out",
                              extra=f"stages = dict,types\nseeds = {seeds}\n")
        where = {**paths, "tmp": tmp_path, "empty_seeds_config": config}
        with pytest.raises(SystemExit) as e:
            main([token.format(**where) for token in args.split()])
        assert e.value.code == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "fx").exists()


# valid lines for the text inputs the fixture set has no file (or no second line) for
TEXT_LINES = {
    "remap": [b"alpha\tbeta\n", b"gamma\tdelta\n"],
    "nouns": [b"#total_sentences\t3\n", b"lawyer\t2\n"],
    "pred": [b"eval000\t0\tent0000\n", b"eval000\t1\tent0001\n"],
    "scores": [b"0.9\n", b"0.8\n"],
    "pairs": [b"ent0000\tent0006\tsame\n", b"ent0000\tent0001\tdifferent\n"],
    "conll": [b"-DOCSTART- (doc_a)\n", b"city\tB\tthe city\tCity_X\tCity_X,City_Y\n"],
    "article": [b"ent0001 is a type01w0 entity.\n", b"It has a body.\n"],
}


def with_bad_byte(path, lines):
    """``lines`` written to ``path`` with a 0xff byte inside the second one."""
    lines = list(lines)
    lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
    path.write_bytes(b"".join(lines))
    return path


# case: (file the bad copy is made of, command line with the bad copy as {bad})
BAD_BYTE_CASES = {
    "dict-mine-corpus": ("articles", "dict mine --corpus {bad} --out {tmp}/n.tsv"),
    "dict-expand-corpus": ("articles", "dict expand --seeds type00w0 --embeddings {words} --corpus {bad} "
                                       "--out {tmp}/x.tsv"),
    "dict-expand-seeds": ("seeds", "dict expand --seeds @{bad} --embeddings {words} --corpus {articles} "
                                   "--out {tmp}/x.tsv"),
    "dict-build-seeds": ("seeds", "dict build --seeds {bad} --out-words {tmp}/w --out-remap {tmp}/r"),
    "dict-build-extensions": ("seeds", "dict build --seeds {seeds} --extensions {bad} --out-words {tmp}/w "
                                      "--out-remap {tmp}/r"),
    "dict-build-remap": ("remap", "dict build --seeds {seeds} --remap {bad} --out-words {tmp}/w --out-remap {tmp}/r"),
    "dict-build-nouns": ("nouns", "dict build --seeds {seeds} --nouns {bad} --out-words {tmp}/w --out-remap {tmp}/r"),
    "types-extract-corpus": ("articles", "types extract --corpus {bad} --dictionary {seeds} --out {tmp}/t.tsv"),
    "types-extract-corpus-dir": ("article", "types extract --corpus {bad_dir} --dictionary {seeds} "
                                            "--out {tmp}/t.tsv"),
    "types-extract-dictionary": ("seeds", "types extract --corpus {articles} --dictionary {bad} --out {tmp}/t.tsv"),
    "types-extract-remap": ("remap", "types extract --corpus {articles} --dictionary {seeds} --remap {bad} "
                                     "--out {tmp}/t.tsv"),
    "embed-reinforce-types": ("types", "embed reinforce --wikitext {wikitext} --words {words} --types {bad} "
                                       "--out {tmp}/r.bin"),
    "link-train-train": ("train", "link train --train {bad} --entities {wikitext} --words {words} --epochs 1 "
                                  "--out-model {tmp}/m.txt"),
    "link-train-dev": ("dev", "link train --train {train} --dev {bad} --entities {wikitext} --words {words} "
                              "--epochs 1 --out-model {tmp}/m.txt"),
    "link-infer-docs": ("eval", "link infer --docs {bad} --entities {wikitext} --words {words} --model {model} "
                                "--out {tmp}/p.tsv"),
    "link-score-docs": ("eval", "link score --docs {bad} --entities {wikitext} --words {words} --model {model}"),
    "link-score-assignments": ("pred", "link score --docs {eval} --entities {wikitext} --words {words} "
                                       "--model {model} --assignments {bad}"),
    "link-convert-in": ("conll", "link convert --in {bad} --out {tmp}/d.jsonl"),
    "eval-f1-docs": ("eval", "eval f1 --docs {bad} --pred {pred}"),
    "eval-f1-pred": ("pred", "eval f1 --docs {eval} --pred {bad}"),
    "eval-runs-scores": ("scores", "eval runs --scores @{bad}"),
    "eval-converge-train": ("train", "eval converge --train {bad} --dev {dev} --words {words} "
                                     "--baseline {wikitext} --reinforced {wikitext} --epochs 1"),
    "eval-converge-dev": ("dev", "eval converge --train {train} --dev {bad} --words {words} "
                                 "--baseline {wikitext} --reinforced {wikitext} --epochs 1"),
    "eval-geometry-pairs": ("pairs", "eval geometry --baseline {wikitext} --reinforced {wikitext} --pairs {bad}"),
}


@pytest.mark.parametrize("source, args", BAD_BYTE_CASES.values(), ids=BAD_BYTE_CASES.keys())
def test_text_input_not_utf8_exits_2_naming_file_and_line(fixture_dir, tmp_path, capsys, source, args):
    root, paths = fixture_dir
    lines = TEXT_LINES.get(source) or paths[source].read_bytes().splitlines(keepends=True)
    bad_dir = tmp_path / "corpus"
    bad_dir.mkdir()
    (bad_dir / "ent0000.txt").write_bytes(b"ent0000 is a type00w0 entity.\n")
    bad = with_bad_byte((bad_dir if source == "article" else tmp_path) / f"ent0001.{source}", lines)
    model = tmp_path / "model.txt"
    LinkingModel.identity(SIZES.dim).save(model)
    pred = tmp_path / "pred.tsv"
    pred.write_bytes(b"".join(TEXT_LINES["pred"]))
    where = {**paths, "tmp": tmp_path, "bad": bad, "bad_dir": bad_dir, "model": model, "pred": pred}
    with pytest.raises(SystemExit) as e:
        main([token.format(**where) for token in args.split()])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"{bad}:2]" in err and "not UTF-8 text (byte 0xff)" in err


@pytest.mark.parametrize("key, source, stage", [
    ("seeds", "seeds", "dict"), ("corpus", "articles", "types"), ("train", "train", "link"),
    ("dev", "dev", "link"), ("eval", "eval", "eval"),
])
def test_pipeline_text_input_not_utf8_is_a_stage_error(fixture_dir, tmp_path, key, source, stage):
    root, paths = fixture_dir
    bad = with_bad_byte(tmp_path / f"bad.{source}", paths[source].read_bytes().splitlines(keepends=True))
    cfg_path = write_config(tmp_path / "p.cfg", paths, tmp_path / "out", extra=f"{key} = {bad}\n")
    with pytest.raises(StageError) as e:
        run_pipeline(PipelineConfig.from_file(cfg_path))
    assert e.value.stage == stage
    assert f"stage '{stage}' failed" in str(e.value) and f"{bad}:2]" in str(e.value)


# ------------------------------------------------------------ text outputs


def test_article_with_empty_entity_id_names_file_and_line(fixture_dir, tmp_path, capsys):
    root, paths = fixture_dir
    corpus = tmp_path / "articles.tsv"
    corpus.write_text("ent0000\tT\tent0000 is a type00w0 entity.\n\tT\ttext.\n", "utf-8")
    with pytest.raises(SystemExit) as e:
        main(["types", "extract", "--corpus", str(corpus), "--dictionary", str(paths["seeds"]),
              "--out", str(tmp_path / "t.tsv")])
    assert e.value.code == 2
    assert f"article with empty entity_id [{corpus}:2]" in capsys.readouterr().err
    assert not (tmp_path / "t.tsv").exists()


def test_link_infer_raw_byte_label_exits_2_and_keeps_output(fixture_dir, tmp_path, capsys):
    """A label with no UTF-8 form (raw byte 0xe9 in the table, a lone surrogate in JSON)."""
    root, paths = fixture_dir
    table = load_binary(paths["wikitext"])
    entities = tmp_path / "entities.bin"
    save_binary(EmbeddingTable(table.dim, ["caf\udce9", *table.labels[1:]], table.matrix), entities)
    assert entities.read_bytes().count(b"caf\xe9 ") == 1
    docs = tmp_path / "docs.jsonl"
    mention = {"surface": "x", "context": [], "candidates": ["caf\udce9"]}
    docs.write_text(json.dumps({"doc_id": "d", "mentions": [mention]}) + "\n", "utf-8")
    model = tmp_path / "model.txt"
    LinkingModel.identity(SIZES.dim).save(model)
    pred = tmp_path / "pred.tsv"
    pred.write_bytes(b"old\t0\tent0000\n")
    with pytest.raises(SystemExit) as e:
        main(["link", "infer", "--docs", str(docs), "--entities", str(entities), "--words", str(paths["words"]),
              "--model", str(model), "--out", str(pred)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"[{pred}:1]" in err and "no UTF-8 form" in err and "caf\\udce9" in err
    assert pred.read_bytes() == b"old\t0\tent0000\n"


def test_types_extract_non_utf8_file_name_exits_2_and_keeps_output(fixture_dir, tmp_path, capsys):
    root, paths = fixture_dir
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ent0000.txt").write_bytes(b"ent0000 is a type00w0 entity.\n")
    (corpus / os.fsdecode(b"caf\xe9.txt")).write_bytes(b"It is a type01w0 entity.\n")
    out = tmp_path / "types.tsv"
    out.write_bytes(b"old\ttype00w0\n")
    with pytest.raises(SystemExit) as e:
        main(["types", "extract", "--corpus", str(corpus), "--dictionary", str(paths["seeds"]), "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"[{out}:1]" in err and "no UTF-8 form" in err
    assert out.read_bytes() == b"old\ttype00w0\n"


@pytest.mark.parametrize("existing", [None, b"old\t0\tent0000\n"], ids=["absent", "present"])
def test_link_infer_capacity_failure_writes_no_predictions(fixture_dir, tmp_path, capsys, existing):
    root, paths = fixture_dir
    labels = [f"ent{i:04d}" for i in range(SIZES.entities)]
    big = LinkingDocument("big", [Mention("m", context=[], candidates=labels) for _ in range(6)])
    docs = tmp_path / "docs.jsonl"
    save_linking_jsonl([load_linking_jsonl(paths["eval"])[0], big], docs)
    model = tmp_path / "model.txt"
    LinkingModel.identity(SIZES.dim).save(model)
    pred = tmp_path / "pred.tsv"
    if existing is not None:
        pred.write_bytes(existing)
    with pytest.raises(SystemExit) as e:
        main(["link", "infer", "--docs", str(docs), "--entities", str(paths["wikitext"]),
              "--words", str(paths["words"]), "--model", str(model), "--strategy", "exhaustive",
              "--out", str(pred)])
    assert e.value.code == 3
    assert (pred.read_bytes() if pred.exists() else None) == existing


@pytest.mark.parametrize("existing", [None, b"old\n"], ids=["absent", "present"])
@pytest.mark.parametrize("command", ["link-train", "dict-build", "eval-converge"])
def test_unwritable_second_output_leaves_first_as_it_was(fixture_dir, tmp_path, capsys, command, existing):
    root, paths = fixture_dir
    first, second = tmp_path / "first", tmp_path / "nodir" / "second"
    if existing is not None:
        first.write_bytes(existing)
    argv = {
        "link-train": ["link", "train", "--train", paths["train"], "--entities", paths["wikitext"],
                       "--words", paths["words"], "--epochs", "1", "--out-model", first, "--out-trace", second],
        "dict-build": ["dict", "build", "--seeds", paths["seeds"], "--out-words", first, "--out-remap", second],
        "eval-converge": ["eval", "converge", "--train", paths["train"], "--dev", paths["dev"],
                          "--words", paths["words"], "--baseline", paths["wikitext"],
                          "--reinforced", paths["wikitext"], "--seeds", "1", "--epochs", "1",
                          "--out", first, "--curves", second],
    }[command]
    with pytest.raises(SystemExit) as e:
        main([str(arg) for arg in argv])
    assert e.value.code == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert (first.read_bytes() if first.exists() else None) == existing


def test_link_infer_defaults_to_greedy_local(fixture_dir, tmp_path):
    """No command trains C, so the default strategy is the one that does not score with it."""
    root, paths = fixture_dir
    tables = ["--entities", str(paths["wikitext"]), "--words", str(paths["words"])]
    model = tmp_path / "model.txt"
    main(["link", "train", "--train", str(paths["train"]), *tables, "--out-model", str(model)])
    preds = {}
    for strategy in (None, "greedy-local", "exhaustive"):
        pred = tmp_path / f"{strategy}.tsv"
        chosen = ["--strategy", strategy] if strategy else []
        main(["link", "infer", "--docs", str(paths["eval"]), *tables, "--model", str(model), *chosen,
              "--out", str(pred)])
        preds[strategy] = pred.read_bytes()
    assert preds[None] == preds["greedy-local"] != preds["exhaustive"]
    assert inspect.signature(infer).parameters["strategy"].default == "greedy-local"
