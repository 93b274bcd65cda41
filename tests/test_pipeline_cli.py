"""Staged pipeline runs, manifest idempotence, and the CLI surface."""

import hashlib
import inspect
import itertools
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import typing
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from semlink import cli as cli_module, embed_io, linking_core, pipeline
from semlink.cli import cli, main
from semlink.corpus import LinkingDocument, Mention, load_linking_jsonl, save_linking_jsonl
from semlink.embed_io import EmbeddingTable, load_binary, load_table, save_binary, save_text
from semlink.errors import ConfigError, RelationArityError, StageError
from semlink.evaluation import convergence_experiment
from semlink.fixtures import FixtureSizes, make_fixtures
from semlink.linking_core import TrainConfig, infer, train
from semlink.pipeline import PipelineConfig, run_pipeline
from semlink.semantic_aggregation import AggregationConfig, aggregate_table, semantic_table
from semlink.type_extraction import read_assignments

from conftest import identity_model

SIZES = FixtureSizes(
    entities=18, groups=6, train_docs=6, dev_docs=3, eval_docs=3,
    mentions_per_doc=3, dim=16, filler_words=40,
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fx")
    paths = make_fixtures(7, SIZES, root)
    return root, paths


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The default fixture (seed 7) and the output directory of a full
    `pipeline run` on it with default parameters."""
    root = tmp_path_factory.mktemp("default")
    paths = make_fixtures(7, FixtureSizes(), root / "fx")
    keys = {"words": "words", "wikitext": "wikitext", "corpus": "articles", "seeds": "seeds",
            "extensions": "extensions", "remap": "remap", "train": "train", "dev": "dev", "eval": "eval"}
    cfg = root / "p.cfg"
    cfg.write_text("".join(f"{k} = {paths[v]}\n" for k, v in keys.items()) + f"out = {root / 'out'}\n")
    assert set(run_pipeline(PipelineConfig.from_file(cfg)).values()) == {"done"}
    return paths, root / "out"


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


def write_conll(docs, path):
    """``docs`` as a CoNLL-style TSV: each mention between the two halves of its context."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(f"-DOCSTART- ({doc.doc_id})\n")
            for m in doc.mentions:
                half = len(m.context) // 2
                fh.writelines(tok + "\n" for tok in m.context[:half])
                fh.write(f"{m.surface}\tB\t{m.surface}\t{m.gold}\t{','.join(m.candidates)}\n")
                fh.writelines(tok + "\n" for tok in m.context[half:])
    return path


# sha256 of each output of `test_outputs_keep_their_bytes`
PINNED = {
    "dictionary.txt": "7e5d4cc180cc53d4342303069339b651ee0a19acadd1b707d1bad8f7547f81d1",
    "remap.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "types.tsv": "efe54a18de0533f006822236c70dce2b3ca6dc9b5e4de89e841b8bb62892605f",
    "semantic.bin": "abddd57ed2cac86e3820386955d51183680f46d98ca3c9a26482aca7d2344aa8",
    "reinforced.bin": "57db0a587d743a4e3a7fcbf564f9d96c0106f573ddcc1f9f98b06bddb3b7a813",
    "model.txt": "4aeb063f51e709ab30b31d323f72daff9c627bda6d4e50c36ce61a28c8afaf9e",
    "train_trace.json": "f497a47552ed282709152eaca45c3977ae4e3652d2ce6a01ddecf2ef24581a6e",
    "eval.json": "f16032900a90b9de6b5d6dd9a88c51e1d1da99ce90a2833ae6157a84d5feb2ce",
    "eval.tsv": "237f77c197e5c94e6a9ca7357e17b5e1be947b597c38668799e8d43f781d8585",
}
# sha256 of each output of `test_study_outputs_keep_their_bytes`
STUDY_PINNED = {
    "converge.json": "c0550fd42f5d522504c2b692b247a163875af4fe10bb17610754fe30edadd405",
    "runs stdout": "17eb576b3b98b852169631c3dbc9701d48fd3b81485992482c5bfcf203c14784",
}
# sha256 of each output of `test_geometry_outputs_keep_their_bytes`
GEOMETRY_PINNED = {
    "geometry.json": "42cfa15c95a334eb2027862da29158df608de546aedeeea3ed84564e1eff6601",
    "geometry stdout": "39e76770e7774128c7c5cc8e178c3043d3daa7ac2552cb5075aa8b2ed130b259",
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

    def test_outputs_keep_their_bytes(self, default_run):
        _, out = default_run
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED} == PINNED

    def test_study_outputs_keep_their_bytes(self, default_run, tmp_path, capsys):
        """`eval converge --out` with default options on the default run's
        tables, and `eval runs` stdout, keep their bytes."""
        paths, out = default_run
        with pytest.warns(UserWarning, match="only reorder the SGD steps"):
            main(["eval", "converge", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
                  "--words", str(paths["words"]), "--baseline", str(paths["wikitext"]),
                  "--reinforced", str(out / "reinforced.bin"), "--out", str(tmp_path / "converge.json")])
        capsys.readouterr()
        main(["eval", "runs", "--scores", "0.9,0.92,0.91"])
        outputs = {"converge.json": (tmp_path / "converge.json").read_bytes(),
                   "runs stdout": capsys.readouterr().out.encode()}
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == STUDY_PINNED

    def test_geometry_outputs_keep_their_bytes(self, default_run, tmp_path, capsys):
        """`eval geometry --out` on the default run's tables, with three pairs
        of each kind (the default fixture puts entity e in group e % 12), keeps
        the bytes of its JSON and of its stdout."""
        paths, out = default_run
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# a\tb\tkind\nent0000\tent0012\tsame\nent0001\tent0013\tsame\nent0005\tent0041\tsame\n"
                         "ent0000\tent0001\tdifferent\nent0002\tent0030\tdifferent\nent0007\tent0059\tdifferent\n",
                         "utf-8")
        main(["eval", "geometry", "--baseline", str(paths["wikitext"]), "--reinforced", str(out / "reinforced.bin"),
              "--pairs", str(pairs), "--out", str(tmp_path / "geometry.json")])
        outputs = {"geometry.json": (tmp_path / "geometry.json").read_bytes(),
                   "geometry stdout": capsys.readouterr().out.encode()}
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == GEOMETRY_PINNED

    def test_cli_chain_writes_the_pipeline_bytes(self, default_run, tmp_path, capsys, monkeypatch):
        """The README's command chain, with the same inputs and default
        parameters, writes every output it shares with `pipeline run` byte
        for byte, and each command prints its summary line."""
        paths, out = default_run
        monkeypatch.chdir(tmp_path)
        chain = [
            (f"dict build --seeds {paths['seeds']} --extensions {paths['extensions']} --remap {paths['remap']} "
             f"--embeddings {paths['words']} --out-words dictionary.txt --out-remap remap.tsv",
             "dictionary: 60 words, 0 remaps"),
            (f"types extract --corpus {paths['articles']} --dictionary dictionary.txt --remap remap.tsv "
             "--out types.tsv", "extracted types for 60 entities (60 non-empty)"),
            (f"embed reinforce --wikitext {paths['wikitext']} --words {paths['words']} --types types.tsv "
             "--out-semantic semantic.bin --out reinforced.bin", "reinforced 60 entities (T=11, alpha=0.2)"),
            (f"link train --train {paths['train']} --dev {paths['dev']} --entities reinforced.bin "
             f"--words {paths['words']} --out-model model.txt --out-trace train_trace.json",
             "trained 20 epochs, final loss 181.9074"),
            (f"link infer --docs {paths['eval']} --entities reinforced.bin --words {paths['words']} "
             "--model model.txt --out pred.tsv", "inferred 15 documents -> pred.tsv"),
            (f"eval f1 --docs {paths['eval']} --pred pred.tsv --out eval.json",
             "tp=73 fp=2 fn=2 P=0.9733 R=0.9733 F1=0.9733"),
        ]
        for argv, summary in chain:
            main(argv.split())
            assert capsys.readouterr().out == summary + "\n", argv
        for name in ("dictionary.txt", "remap.tsv", "types.tsv", "semantic.bin", "reinforced.bin", "model.txt",
                     "train_trace.json", "eval.json"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

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
        assert parsed["types.tsv"] == 0  # semantic and aggregate use the types stage's assignments
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

    def test_aggregate_stage_writes_what_aggregate_table_returns(self, tmp_path):
        # the stage blends into the base table it loads; untyped rows, odd bits included, keep their bits
        rng = np.random.default_rng(11)
        words = EmbeddingTable(4, ["a", "b", "c"], rng.standard_normal((3, 4)).astype(np.float32))
        odd = np.float32([-0.0, 1e-45, np.finfo(np.float32).max, -np.finfo(np.float32).tiny])
        base = rng.standard_normal((6, 4)).astype(np.float32)
        base[1], base[2] = odd, -odd
        wikitext = EmbeddingTable(4, [f"e{i}" for i in range(6)], base)
        # e1 has no type words and e2 no line; e5's words run past T
        (tmp_path / "types.tsv").write_text("e0\ta,b\ne1\t\ne3\tc\ne4\tb,b,a\ne5\ta,b,c,a\n")
        assignments = read_assignments(tmp_path / "types.tsv")
        save_binary(words, tmp_path / "words.bin")
        save_binary(wikitext, tmp_path / "wikitext.bin")
        save_text(wikitext, tmp_path / "wikitext.txt")
        for alpha in (0.0, 0.2, 1.0):
            cfg = AggregationConfig(T=3, alpha=alpha)
            save_binary(aggregate_table(wikitext, assignments, words, cfg), tmp_path / "expected.bin")
            pipeline.run_stage("semantic", {"words": tmp_path / "words.bin", "types_file": tmp_path / "types.tsv"},
                               {"T": 3, "alpha": alpha}, [tmp_path / "semantic.bin"])
            # a text semantic table is read as one block
            save_text(load_binary(tmp_path / "semantic.bin"), tmp_path / "semantic.txt")
            for source, semantic in itertools.product(("wikitext.bin", "wikitext.txt"), ("semantic.bin", "semantic.txt")):
                inputs = {"wikitext": tmp_path / source, "semantic": tmp_path / semantic}
                table = pipeline.run_stage("aggregate", inputs, {"alpha": alpha}, [tmp_path / "r.bin"])
                assert (tmp_path / "r.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes(), (alpha, source)
                assert table.matrix[1:3].tobytes() == base[1:3].tobytes()
                assert not table.matrix.flags.writeable

    def test_aggregate_stage_returns_the_read_only_table_it_wrote(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        pipeline.run_stage("semantic", {"words": paths["words"], "types_file": paths["types"]},
                           {"T": 11, "alpha": 0.2}, [tmp_path / "semantic.bin"])
        table = pipeline.run_stage("aggregate", {"wikitext": paths["wikitext"], "semantic": tmp_path / "semantic.bin"},
                                   {"alpha": 0.2}, [tmp_path / "r.bin"])
        assert not table.matrix.flags.writeable
        assert table == load_table(tmp_path / "r.bin")

    def test_aggregate_stage_skips_a_semantic_label_the_base_lacks(self, tmp_path):
        base = EmbeddingTable(2, ["e0", "e1"], np.float32([[1, 2], [3, 4]]))
        save_binary(base, tmp_path / "wikitext.bin")
        save_binary(EmbeddingTable(2, ["ghost", "e1"], np.float32([[9, 9], [5, 6]])), tmp_path / "semantic.bin")
        table = pipeline.run_stage("aggregate", {"wikitext": tmp_path / "wikitext.bin",
                                                 "semantic": tmp_path / "semantic.bin"}, {"alpha": 0.5},
                                   [tmp_path / "r.bin"])
        assert table == EmbeddingTable(2, ["e0", "e1"], np.float32([[1, 2], [4, 5]]))

    @pytest.mark.parametrize("fault, needle", [
        ("repeated", "duplicate label 'e0000'"),
        ("non-finite", "non-finite value in vector for label 'e0550'"),
        ("truncated", "file ends inside vector of entry 599"),
    ])
    def test_bad_semantic_block_exits_2_naming_the_file_and_writes_nothing(self, tmp_path, capsys, fault, needle):
        # 600 entries: two blocks, the fault in the second
        n = embed_io.BLOCK_ROWS + 88
        labels = [f"e{i:04d}".encode() for i in range(n)]
        rows = np.arange(2 * n, dtype="<f4").reshape(n, 2)
        save_binary(EmbeddingTable(2, [label.decode() for label in labels], rows.copy()), tmp_path / "wikitext.bin")
        if fault == "repeated":
            labels[-1] = labels[0]
        if fault == "non-finite":
            rows[550, 1] = np.inf
        data = f"{n} 2\n".encode() + b"".join(label + b" " + row.tobytes() for label, row in zip(labels, rows))
        semantic = tmp_path / "semantic.bin"
        semantic.write_bytes(data[:-5] if fault == "truncated" else data)
        out = tmp_path / "out"
        (tmp_path / "p.cfg").write_text(f"stages = aggregate\nwikitext = {tmp_path / 'wikitext.bin'}\n"
                                        f"semantic = {semantic}\nout = {out}\n", "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["pipeline", "run", "--config", str(tmp_path / "p.cfg")])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "stage 'aggregate' failed" in err and str(semantic) in err and needle in err, err
        assert list(out.iterdir()) == []

    def test_unit_length_words_are_a_converted_table(self, fixture_dir, tmp_path):
        # unit-length word vectors come from `embed convert --normalize`, not a pipeline key
        root, paths = fixture_dir
        unit = tmp_path / "unit.bin"
        r = CliRunner().invoke(cli, ["embed", "convert", "--in", str(paths["words"]), "--out", str(unit),
                                     "--normalize"])
        assert r.exit_code == 0, r.output
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "p.cfg", paths, out, extra=f"words = {unit}\n")
        assert set(run_pipeline(PipelineConfig.from_file(cfg_path)).values()) == {"done"}

        words = load_table(paths["words"]).normalized()
        assignments = read_assignments(out / "types.tsv")
        expected = {
            "semantic.bin": semantic_table(assignments, words, 11),
            "reinforced.bin": aggregate_table(load_binary(paths["wikitext"]), assignments, words,
                                              AggregationConfig(T=11, alpha=0.2)),
        }
        for name, table in expected.items():
            save_binary(table, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

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
        tsv = write_conll(load_linking_jsonl(paths["train"])[:3], tmp_path / "train.tsv")
        out = tmp_path / "out"
        cfg_path = write_config(
            tmp_path / "p.cfg", paths, out,
            extra=f"stages = link\nreinforced = {paths['wikitext']}\ntrain = {tsv}\nwindow = 10\ndev =\n",
        )
        status = run_pipeline(PipelineConfig.from_file(cfg_path))
        assert status == {"link": "done"}
        assert (out / "model.txt").exists()

    def test_eval_stage_refuses_a_model_with_relations(self, fixture_dir, tmp_path):
        # eval scores no relation diagonal, so a K >= 1 model would score as if K were 0
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim, 1).save(model)
        cfg_path = write_config(tmp_path / "p.cfg", paths, tmp_path / "out",
                                extra=f"stages = eval\nreinforced = {paths['wikitext']}\nmodel = {model}\n")
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig.from_file(cfg_path))
        assert err.value.stage == "eval" and isinstance(err.value.cause, RelationArityError)
        assert str(model) in str(err.value)
        assert not (tmp_path / "out" / "eval.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("nonsense = 1\n", "utf-8")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(p)

    @pytest.mark.parametrize(
        "key, value",
        [("T", "abc"), ("alpha", "x"), ("epochs", "1.5"), ("lr", "nan"), ("margin", "inf"),
         # forms int() reads that a count's one form does not: 1_1, +5 and other scripts' digits
         ("T", "1_1"), ("epochs", "\u0662\u0660"), ("cap", "+5"), ("seed", "--1"), ("window", "2.5")],
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

    @pytest.mark.parametrize("key", [key for key, kind in typing.get_type_hints(PipelineConfig).items()
                                     if kind in (int, float)])
    def test_every_number_key_refuses_a_word(self, tmp_path, key):
        # read from the fields, so a number key added later is covered too
        p = tmp_path / "c.cfg"
        p.write_text(f"out = {tmp_path / 'o'}\n", "utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"--set: {key} = 'x' is not a")):
            PipelineConfig.from_file(p, {key: "x"})

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

    def test_types_stage_refuses_assignments_its_file_cannot_hold(self, fixture_dir, tmp_path, capsys):
        # a remap target with a comma would read back as two words
        root, paths = fixture_dir
        out = tmp_path / "out"
        remap = tmp_path / "remap.tsv"
        remap.write_text("type00w0\tfe,line\n", "utf-8")
        cfg_path = write_config(tmp_path / "p.cfg", paths, out,
                                extra=f"stages = types\ndictionary = {paths['seeds']}\nremap = {remap}\n")
        with pytest.raises(StageError, match="type word 'fe,line' of entity 'ent0000'") as err:
            run_pipeline(PipelineConfig.from_file(cfg_path))
        assert err.value.stage == "types"
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            main(["pipeline", "run", "--config", str(cfg_path)])
        assert e.value.code == 2
        assert "stage 'types' failed" in capsys.readouterr().err
        assert not (out / "types.tsv").exists()

    @pytest.mark.parametrize("flags", [["-v"], ["--log-level", "INFO"]])
    def test_verbose_run_logs_the_coverage_histogram_and_nothing_else_changes(self, fixture_dir, tmp_path, flags):
        root, paths = fixture_dir
        runs = {}
        # quiet after verbose: the verbose run's handler and level go with it
        for name, argv in (("verbose", flags), ("quiet", []), ("warning", ["--log-level", "warning"])):
            out = tmp_path / name
            cfg_path = write_config(tmp_path / f"{name}.cfg", paths, out)
            r = CliRunner().invoke(cli, [*argv, "pipeline", "run", "--config", str(cfg_path)])
            assert r.exit_code == 0, r.output
            runs[name] = r.stdout, r.stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert runs["quiet"][1] == runs["warning"][1] == ""
        assert re.fullmatch(r"INFO semlink\.semantic_aggregation: semantic means of \d+ entities \(T=11\); "
                            r"coverage histogram \{[0-9:, ]+\}\n", runs["verbose"][1]), runs["verbose"][1]
        assert runs["quiet"][0] == runs["warning"][0] == runs["verbose"][0] != ""
        assert runs["quiet"][2] == runs["warning"][2] == runs["verbose"][2]

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
            # the types stage's own output, and the sync of its directory
            if not (out / "types.tsv").exists() or failing == "fsync" and stat.S_ISDIR(os.fstat(args[0]).st_mode):
                return real(*args)
            raise OSError("simulated crash while writing the manifest")

        # a crash after the new text is written but before it is durable, or
        # just before the rename: either way the old manifest must survive.
        # Every output is synced and renamed the same way, so the crash waits
        # until the types stage has put its output in place and synced its
        # directory.
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

    def test_embed_convert_of_an_empty_table_to_text_exits_2_and_writes_nothing(self, tmp_path, capsys):
        empty, out = tmp_path / "e.bin", tmp_path / "e.txt"
        save_binary(EmbeddingTable(3, [], np.zeros((0, 3), dtype=np.float32)), empty)
        with pytest.raises(SystemExit) as e:
            main(["embed", "convert", "--in", str(empty), "--out", str(out)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"a table with no rows has no text form (dim 3) [{out}]" in err and "Traceback" not in err
        assert not out.exists()

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

    def test_embed_reinforce_keeps_the_output_format(self, fixture_dir, tmp_path):
        # the format follows the extension, as in `embed convert`
        root, paths = fixture_dir
        expected = aggregate_table(load_binary(paths["wikitext"]), read_assignments(paths["types"]),
                                   load_binary(paths["words"]), AggregationConfig(T=11, alpha=0.2))
        for name, save in (("r.txt", save_text), ("r.bin", save_binary)):
            main(["embed", "reinforce", "--wikitext", str(paths["wikitext"]), "--words", str(paths["words"]),
                  "--types", str(paths["types"]), "--out", str(tmp_path / name)])
            save(expected, tmp_path / f"expected-{name}")
            assert (tmp_path / name).read_bytes() == (tmp_path / f"expected-{name}").read_bytes(), name

    @pytest.mark.parametrize("fault, code, needle", [
        ("truncated wikitext", 2, "file ends inside vector"),
        ("--out-semantic is --out", 2, "output named twice"),
        ("text --out-semantic", 1, "Invalid value for --out-semantic"),
    ])
    def test_embed_reinforce_writes_both_outputs_or_neither(self, fixture_dir, tmp_path, capsys, fault, code, needle):
        root, paths = fixture_dir
        wikitext = tmp_path / "wikitext.bin"
        data = Path(paths["wikitext"]).read_bytes()
        wikitext.write_bytes(data[:-5] if fault == "truncated wikitext" else data)
        out = tmp_path / "r.bin"
        semantic = {"--out-semantic is --out": out, "text --out-semantic": tmp_path / "s.txt"}.get(fault, tmp_path / "s.bin")
        out.write_bytes(b"old reinforced")
        semantic.write_bytes(b"old semantic")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(SystemExit) as e:
            main(["embed", "reinforce", "--wikitext", str(wikitext), "--words", str(paths["words"]),
                  "--types", str(paths["types"]), "--out-semantic", str(semantic), "--out", str(out)])
        assert e.value.code == code
        assert needle in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_conll_corpus_reads_as_its_converted_jsonl(self, fixture_dir, tmp_path, capsys):
        """Every command that reads documents takes a .conll corpus as `link
        convert` (window 25) turns it into JSONL."""
        root, paths = fixture_dir
        conll = write_conll(load_linking_jsonl(paths["train"]), tmp_path / "docs.conll")
        jsonl = tmp_path / "docs.jsonl"
        main(["link", "convert", "--in", str(conll), "--out", str(jsonl)])
        tables = ["--entities", str(paths["wikitext"]), "--words", str(paths["words"])]
        outputs = {}
        for docs in (conll, jsonl):
            capsys.readouterr()
            run = tmp_path / docs.suffix[1:]
            run.mkdir()
            main(["link", "train", "--train", str(docs), "--dev", str(docs), *tables, "--epochs", "3",
                  "--out-model", str(run / "model.txt"), "--out-trace", str(run / "trace.json")])
            main(["link", "infer", "--docs", str(docs), *tables, "--model", str(run / "model.txt"),
                  "--out", str(run / "pred.tsv")])
            main(["link", "score", "--docs", str(docs), *tables, "--model", str(run / "model.txt")])
            main(["eval", "f1", "--docs", str(docs), "--pred", str(run / "pred.tsv")])
            main(["eval", "converge", "--train", str(docs), "--dev", str(docs), "--words", str(paths["words"]),
                  "--baseline", str(paths["wikitext"]), "--reinforced", str(paths["wikitext"]), "--seeds", "1",
                  "--epochs", "2", "--theta", "0.5", "--out", str(run / "converge.json")])
            printed = capsys.readouterr().out.replace(str(run), "<run>")
            outputs[docs.suffix] = {p.name: p.read_bytes() for p in run.iterdir()}, printed
        assert outputs[".conll"] == outputs[".jsonl"]
        assert sorted(outputs[".conll"][0]) == ["converge.json", "model.txt", "pred.tsv", "trace.json"]

    @pytest.mark.parametrize("seed", ["-2", "+2", "1_0", "\u0662", "9" * 5000],
                             ids=["minus", "plus", "underscore", "arabic-indic-two", "5000-digits"])
    def test_eval_converge_bad_seed_exits_2(self, fixture_dir, tmp_path, capsys, seed):
        # int() reads '+2', '1_0' and '\u0662', and raises a ValueError past 4300 digits
        root, paths = fixture_dir
        with pytest.raises(SystemExit) as e:
            main(["eval", "converge", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
                  "--words", str(paths["words"]), "--baseline", str(paths["wikitext"]),
                  "--reinforced", str(paths["wikitext"]), "--seeds", f"1,{seed}", "--out", str(tmp_path / "c.json")])
        assert e.value.code == 2
        assert f"seed {seed!r} is not 1 to 18 digits 0-9" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("seeds", [",", "", "@"], ids=["comma", "empty", "word-less-file"])
    def test_dict_expand_no_seeds_exits_2_and_writes_nothing(self, fixture_dir, tmp_path, capsys, seeds):
        root, paths = fixture_dir
        word_less, out = tmp_path / "seeds.txt", tmp_path / "expanded.tsv"
        word_less.write_text("# curated seeds\n\n", "utf-8")
        seeds = f"@{word_less}" if seeds == "@" else seeds
        with pytest.raises(SystemExit) as e:
            main(["dict", "expand", "--seeds", seeds, "--embeddings", str(paths["words"]),
                  "--corpus", str(paths["articles"]), "--out", str(out)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no seeds given" + (f" [{word_less}]" if seeds[:1] == "@" else "") + "\n"
        assert captured.out == "" and not out.exists()

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
        labels = [f"ent{i:04d}" for i in range(SIZES.entities)]
        docs_path = tmp_path / "big.jsonl"
        doc = LinkingDocument(
            "big", [Mention("m", context=[], candidates=labels) for _ in range(6)]
        )
        save_linking_jsonl([doc], docs_path)
        model_path = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model_path)
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
        ({"context": ["x", 1, ["x"]]}, {}, "context token must be a JSON string, not number"),
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
        ({"candidates": ["ent0001", "ent0002", "ent0001:0.5"]}, {}, "repeated candidate 'ent0001'"),
        # a CoNLL field cannot hold a tab, so the tab is named though the repeat comes first
        ({"candidates": ["ent0001", "ent0001", "a\tb"]}, {}, "candidate 'a\\tb' holds a tab or a line break"),
    ], ids=["string-context", "number-tokens", "array-token", "number-then-array-token", "string-candidates",
            "number-candidate", "empty-pair", "number-pair-label", "null-surface", "number-gold", "object-mentions",
            "string-mention", "number-doc-id", "array-record", "empty-mentions", "repeated-candidate",
            "repeat-then-tab"])
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
        identity_model(SIZES.dim).save(model)
        with pytest.raises(SystemExit) as e:
            main([
                "link", "infer", "--docs", str(docs), "--entities", str(paths["wikitext"]),
                "--words", str(paths["words"]), "--model", str(model), "--out", str(tmp_path / "p.tsv"),
            ])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert fault in err
        assert f"{docs}:2" in err

    def test_link_infer_repeated_tsv_candidate_exits_2(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        docs = tmp_path / "docs.tsv"
        docs.write_text("-DOCSTART- (d)\na\nx\tB\tx\tent0001\tent0001,ent0002:0.3,ent0002\n", "utf-8")
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model)
        with pytest.raises(SystemExit) as e:
            main([
                "link", "infer", "--docs", str(docs), "--entities", str(paths["wikitext"]),
                "--words", str(paths["words"]), "--model", str(model), "--out", str(tmp_path / "p.tsv"),
            ])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "repeated candidate 'ent0002'" in err and f"{docs}:3" in err
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("command", ["infer-greedy-local", "infer-exhaustive", "train-train", "train-dev"])
    def test_candidate_missing_from_the_table_exits_2(self, fixture_dir, tmp_path, capsys, command):
        # the candidate packing of inference, of training and of the dev set
        # names the label, the mention and its document
        root, paths = fixture_dir
        first = json.loads(paths["eval"].read_text("utf-8").splitlines()[0])
        mention = first["mentions"][1]
        mention["candidates"].append("ghost")
        docs = tmp_path / "docs.jsonl"
        docs.write_text(json.dumps(first) + "\n", "utf-8")
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model)
        tables = ["--entities", str(paths["wikitext"]), "--words", str(paths["words"])]
        if command.startswith("train"):
            train, dev = (docs, paths["dev"]) if command == "train-train" else (paths["train"], docs)
            args = ["link", "train", "--train", str(train), "--dev", str(dev), *tables,
                    "--epochs", "1", "--out-model", str(tmp_path / "trained.txt")]
        else:
            args = ["link", "infer", "--docs", str(docs), *tables, "--model", str(model),
                    "--strategy", command.removeprefix("infer-"), "--out", str(tmp_path / "p.tsv")]
        with pytest.raises(SystemExit) as e:
            main(args)
        assert e.value.code == 2
        assert f"label 'ghost' not in table: mention 1 of {first['doc_id']!r}\n" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["docs.jsonl", "model.txt"]

    @pytest.mark.parametrize("source", ["assignments", "gold"])
    def test_link_score_names_the_mention_of_a_label_missing_from_the_table(self, fixture_dir, tmp_path, capsys,
                                                                             source):
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model)
        docs = load_linking_jsonl(paths["eval"])
        docs[1].mentions[2].gold = "ghost"
        docs_path, pred = tmp_path / "eval.jsonl", tmp_path / "pred.tsv"
        save_linking_jsonl(docs, docs_path)
        pred.write_text("".join(f"{d.doc_id}\t{i}\t{m.gold}\n" for d in docs for i, m in enumerate(d.mentions)),
                        "utf-8")
        args = ["link", "score", "--docs", str(docs_path), "--entities", str(paths["wikitext"]),
                "--words", str(paths["words"]), "--model", str(model)]
        with pytest.raises(SystemExit) as e:
            main([*args, "--assignments", str(pred)] if source == "assignments" else args)
        assert e.value.code == 2
        captured = capsys.readouterr()
        named = pred if source == "assignments" else docs_path
        assert f"label 'ghost' not in table: mention 2 of {docs[1].doc_id!r} [{named}]\n" in captured.err
        assert captured.out == ""

    def test_link_score_scores_a_label_outside_the_candidates(self, fixture_dir, tmp_path, capsys):
        """An assigned label must be in the entity table, not among the
        mention's candidates, and is scored as `document_score` scores it."""
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model)
        docs = load_linking_jsonl(paths["eval"])
        entities, words = load_table(paths["wikitext"]), load_table(paths["words"])
        chosen = {d.doc_id: [m.gold for m in d.mentions] for d in docs}
        doc = docs[1]
        gold = list(chosen[doc.doc_id])
        chosen[doc.doc_id][2] = next(e for e in entities.labels if e not in doc.mentions[2].candidates)
        pred = tmp_path / "pred.tsv"
        pred.write_text("".join(f"{d}\t{i}\t{label}\n" for d, ls in chosen.items() for i, label in enumerate(ls)),
                        "utf-8")
        main(["link", "score", "--docs", str(paths["eval"]), "--entities", str(paths["wikitext"]),
              "--words", str(paths["words"]), "--model", str(model), "--assignments", str(pred)])
        printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        loaded = linking_core.LinkingModel.load(model, relations=False)
        score = linking_core.document_score(chosen[doc.doc_id], doc, loaded, entities, words)
        assert printed[doc.doc_id] == f"{score:.6f}"
        assert printed[doc.doc_id] != f"{linking_core.document_score(gold, doc, loaded, entities, words):.6f}"

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

    @pytest.mark.parametrize("scores", ["1e200,-1e200", "1.5e308,1e308,1e308"])
    def test_eval_runs_summary_past_the_float_range_exits_2(self, capsys, scores):
        with pytest.raises(SystemExit) as e:
            main(["eval", "runs", "--scores", scores])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows a float" in captured.err

    def test_eval_runs_mean_of_scores_whose_sum_overflows(self):
        with pytest.warns(UserWarning, match="do not differ"):
            r = CliRunner().invoke(cli, ["eval", "runs", "--scores", "1e308,1e308"])
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["mean"] == 1e308 and payload["ci95_halfwidth"] == 0.0

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

    def test_repeated_jsonl_doc_id_exits_2_naming_file_and_line(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        lines = paths["eval"].read_text("utf-8").splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        docs = tmp_path / "eval.jsonl"
        docs.write_text("\n".join([lines[0], json.dumps({**second, "doc_id": first["doc_id"]}), *lines[2:]]), "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["eval", "f1", "--docs", str(docs), "--pred", str(paths["eval"])])
        assert e.value.code == 2
        assert f"repeated doc_id {first['doc_id']!r} [{docs}:2]" in capsys.readouterr().err

    def test_repeated_conll_doc_id_exits_2_naming_file_and_line(self, tmp_path, capsys):
        src, out = tmp_path / "corpus.tsv", tmp_path / "docs.jsonl"
        doc = "-DOCSTART- (doc_a)\ncity\tB\tthe city\tCity_X\tCity_X,City_Y\n"
        src.write_text(doc + "was\n" + doc, "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["link", "convert", "--in", str(src), "--out", str(out)])
        assert e.value.code == 2
        assert f"repeated doc_id 'doc_a' [{src}:4]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".jsonl", ".tsv"])
    def test_doc_id_with_a_tab_exits_2_and_writes_nothing(self, fixture_dir, tmp_path, capsys, suffix):
        """`link infer` keys each output line by the doc id, and `eval f1`
        would then read four fields; so the id is refused at load."""
        root, paths = fixture_dir
        model, out = tmp_path / "model.txt", tmp_path / "p.tsv"
        identity_model(SIZES.dim).save(model)
        first, *rest = load_linking_jsonl(paths["eval"])
        docs = tmp_path / f"docs{suffix}"
        if suffix == ".jsonl":
            save_linking_jsonl([LinkingDocument("dev\tx", first.mentions), *rest], docs)
            line = 1
        else:
            m = first.mentions[0]
            docs.write_text(f"-DOCSTART- (d)\nx\tB\tx\t{m.gold}\t{','.join(m.candidates)}\n"
                            f"-DOCSTART- (dev\tx)\nx\tB\tx\t{m.gold}\t{','.join(m.candidates)}\n", "utf-8")
            line = 3
        with pytest.raises(SystemExit) as e:
            main(["link", "infer", "--docs", str(docs), "--entities", str(paths["wikitext"]),
                  "--words", str(paths["words"]), "--model", str(model), "--out", str(out)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert f"doc_id 'dev\\tx' holds a tab or a line break [{docs}:{line}]" in captured.err
        assert captured.out == "" and not out.exists()

    def test_candidate_with_a_tab_exits_2_and_writes_nothing(self, fixture_dir, tmp_path, capsys):
        """`link infer` writes each pick as one TSV field, and `eval f1` would
        then read four fields; so the label is refused at load."""
        root, paths = fixture_dir
        model, out = tmp_path / "model.txt", tmp_path / "p.tsv"
        identity_model(SIZES.dim).save(model)
        docs = load_linking_jsonl(paths["eval"])
        docs[1].mentions[0].candidates = ["a\tb"]
        docs_path = tmp_path / "docs.jsonl"
        save_linking_jsonl(docs, docs_path)
        with pytest.raises(SystemExit) as e:
            main(["link", "infer", "--docs", str(docs_path), "--entities", str(paths["wikitext"]),
                  "--words", str(paths["words"]), "--model", str(model), "--out", str(out)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert f"candidate 'a\\tb' holds a tab or a line break [{docs_path}:2]" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("ids, expected", [
        (["(doc1)", ""], ["doc1", "doc2"]),
        (["", "(doc0)"], ["doc1", "doc0"]),
        (["(doc1)", "", ""], ["doc1", "doc2", "doc3"]),
    ], ids=["written-first", "generated-first", "generated-twice"])
    def test_generated_conll_doc_ids_never_collide(self, tmp_path, ids, expected):
        src, out = tmp_path / "corpus.tsv", tmp_path / "docs.jsonl"
        mention = "city\tB\tthe city\tCity_X\tCity_X,City_Y\n"
        src.write_text("".join(f"-DOCSTART- {i}\n{mention}" for i in ids), "utf-8")
        r = CliRunner().invoke(cli, ["link", "convert", "--in", str(src), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert [doc.doc_id for doc in load_linking_jsonl(out)] == expected

    def test_repeated_remap_source_exits_2_naming_file_and_line(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        remap = tmp_path / "remap.tsv"
        remap.write_text("conchologist\tzoologist\nconchologist\tbiologist\n", "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["dict", "build", "--seeds", str(paths["seeds"]), "--remap", str(remap),
                  "--out-words", str(tmp_path / "w.txt"), "--out-remap", str(tmp_path / "r.tsv")])
        assert e.value.code == 2
        assert f"repeated remap source 'conchologist' [{remap}:2]" in capsys.readouterr().err
        assert not (tmp_path / "w.txt").exists()

    def test_duplicate_entity_exits_2_naming_file_and_line(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        types = tmp_path / "types.tsv"
        types.write_text("e1\ta\ne1\tb\n", "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["embed", "reinforce", "--wikitext", str(paths["wikitext"]), "--words", str(paths["words"]),
                  "--types", str(types), "--out", str(tmp_path / "r.bin")])
        assert e.value.code == 2
        assert f"duplicate entity id 'e1' [{types}:2]" in capsys.readouterr().err

    @pytest.mark.parametrize("index, bad_line", [
        (lambda i: 3 * i, 2), (lambda i: i + 10, 1), (lambda i: min(i, 1), 3),
    ], ids=["spread", "shifted", "repeated"])
    @pytest.mark.parametrize("command", ["eval f1", "link score"])
    def test_prediction_indices_are_0_to_k_minus_1(self, fixture_dir, tmp_path, capsys, command, index, bad_line):
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model)
        docs = load_linking_jsonl(paths["eval"])
        pred = tmp_path / "pred.tsv"
        args = {
            "eval f1": ["eval", "f1", "--docs", str(paths["eval"]), "--pred", str(pred)],
            "link score": ["link", "score", "--docs", str(paths["eval"]), "--entities", str(paths["wikitext"]),
                           "--words", str(paths["words"]), "--model", str(model), "--assignments", str(pred)],
        }[command]

        def run(index):
            pred.write_text("".join(f"{d.doc_id}\t{index(i)}\t{m.gold}\n"
                                    for d in docs for i, m in enumerate(d.mentions)), "utf-8")
            main(args)

        run(lambda i: i)  # the gold labels in order pass
        if command == "eval f1":
            assert "F1=1.0000" in capsys.readouterr().out
        with pytest.raises(SystemExit) as e:
            run(index)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"of {docs[0].doc_id!r} where {bad_line - 1} belongs" in err
        assert f"[{pred}:{bad_line}]" in err

    @pytest.mark.parametrize("case, needle", [
        ("missing", "document sets differ: missing:{0}"),
        ("extra", "document sets differ: extra:ghost"),
        ("ragged", "mention counts differ: {0}"),
        ("null gold", "document has mentions without gold: {0}"),
    ], ids=["missing", "extra", "ragged", "null-gold"])
    def test_link_score_checks_alignment_before_printing(self, fixture_dir, tmp_path, capsys, case, needle):
        """As in eval f1, the assignments cover exactly the documents'
        mentions, and without them every mention needs a gold label."""
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model)
        docs = load_linking_jsonl(paths["eval"])
        labels = {d.doc_id: [m.gold for m in d.mentions] for d in docs}
        first = docs[0].doc_id
        docs_path, pred = tmp_path / "eval.jsonl", tmp_path / "pred.tsv"
        if case == "null gold":
            docs[0].mentions[-1].gold = None
        elif case == "missing":
            del labels[first]
        elif case == "extra":
            labels["ghost"] = labels[first]
        else:
            labels[first].pop()
        save_linking_jsonl(docs, docs_path)
        pred.write_text("".join(f"{d}\t{i}\t{label}\n" for d, ls in labels.items() for i, label in enumerate(ls)),
                        "utf-8")
        args = ["link", "score", "--docs", str(docs_path), "--entities", str(paths["wikitext"]),
                "--words", str(paths["words"]), "--model", str(model)]
        with pytest.raises(SystemExit) as e:
            main(args if case == "null gold" else [*args, "--assignments", str(pred)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert needle.format(first) in captured.err and captured.out == ""

    @pytest.mark.parametrize("index", ["0_0", "+1", "\u0662", "-0", " 1", "0" * 19],
                             ids=["underscore", "plus", "arabic-indic-two", "minus", "space", "19-digits"])
    @pytest.mark.parametrize("command", ["eval f1", "link score"])
    def test_prediction_index_is_ascii_digits(self, fixture_dir, tmp_path, capsys, command, index):
        # int() reads '0_0', '+1' and '\u0662' as 0, 1 and 2
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim).save(model)
        doc = load_linking_jsonl(paths["eval"])[0]
        pred = tmp_path / "pred.tsv"
        pred.write_text(f"{doc.doc_id}\t0\t{doc.mentions[0].gold}\n{doc.doc_id}\t{index}\tx\n", "utf-8")
        args = {
            "eval f1": ["eval", "f1", "--docs", str(paths["eval"]), "--pred", str(pred)],
            "link score": ["link", "score", "--docs", str(paths["eval"]), "--entities", str(paths["wikitext"]),
                           "--words", str(paths["words"]), "--model", str(model), "--assignments", str(pred)],
        }[command]
        with pytest.raises(SystemExit) as e:
            main(args)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"mention index {index!r}" in err and f"[{pred}:2]" in err

    def test_dict_expand_inline_seeds_match_seed_file(self, tmp_path):
        table = tmp_path / "words.txt"
        table.write_text("football 1 0\nrugby_league 0.9 0.1\nsoccer 0.8 0.3\ncricket 0 1\n", "utf-8")
        corpus = tmp_path / "articles.tsv"
        corpus.write_text("e1\tE1\tA football and soccer club.\ne2\tE2\tA rugby_league and cricket side.\n", "utf-8")
        seed_file = tmp_path / "seeds.txt"
        seed_file.write_text("Football\nrugby league\n", "utf-8")
        outs = []
        for n, seeds in enumerate([f"@{seed_file}", " Football, rugby  League "]):
            outs.append(tmp_path / f"expanded{n}.tsv")
            main(["dict", "expand", "--seeds", seeds, "--embeddings", str(table), "--corpus", str(corpus),
                  "-k", "3", "--out", str(outs[-1])])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[1].read_text("utf-8").splitlines()[1:] == [
            "football\trugby_league\t0.993884", "football\tsoccer\t0.936329", "football\tcricket\t0.000000",
            "rugby_league\tfootball\t0.993884", "rugby_league\tsoccer\t0.969377", "rugby_league\tcricket\t0.110432",
        ]

    def test_dict_build_nouns_advisory_reaches_stderr(self, fixture_dir, tmp_path):
        root, paths = fixture_dir
        nouns = tmp_path / "nouns.tsv"
        nouns.write_text("#total_sentences\t1\ntype00w0\t1\n", "utf-8")
        seeds = paths["seeds"].read_text("utf-8").split()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", "from semlink.cli import main; main()", "dict", "build",
             "--seeds", str(paths["seeds"]), "--nouns", str(nouns),
             "--out-words", str(tmp_path / "w.txt"), "--out-remap", str(tmp_path / "r.tsv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (f"{len(seeds) - 1} dictionary words not among mined nouns "
                               f"(first: {seeds[1:6]})\n")

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

    def test_eval_geometry_unknown_pair_kind_exits_2_and_writes_nothing(self, fixture_dir, tmp_path, capsys):
        root, paths = fixture_dir
        pairs, out = tmp_path / "pairs.tsv", tmp_path / "geometry.json"
        pairs.write_text("ent0000\tent0006\tsame\nent0000\tent0001\tsmae\n", "utf-8")
        with pytest.raises(SystemExit) as e:
            main(["eval", "geometry", "--baseline", str(paths["wikitext"]), "--reinforced", str(paths["wikitext"]),
                  "--pairs", str(pairs), "--out", str(out)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert f"pair kind 'smae' is not 'same' or 'different' [{pairs}:2]" in captured.err
        assert captured.out == "" and not out.exists()

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

    @pytest.mark.parametrize("theta", ["nan", "inf", "-0.1", "1.5"])
    def test_eval_converge_theta_outside_unit_interval_exits_2_before_any_load(
        self, fixture_dir, tmp_path, capsys, monkeypatch, theta
    ):
        root, paths = fixture_dir

        def no_load(path):
            pytest.fail(f"table {path} loaded before theta was checked")

        monkeypatch.setattr("semlink.cli.embed_io.load_table", no_load)
        with pytest.raises(SystemExit) as e:
            main([
                "eval", "converge", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
                "--words", str(paths["words"]), "--baseline", str(paths["wikitext"]),
                "--reinforced", str(paths["wikitext"]), "--epochs", "1", f"--theta={theta}",
                "--out", str(tmp_path / "study.json"), "--curves", str(tmp_path / "curves.tsv"),
            ])
        assert e.value.code == 2
        assert f"theta must be a finite number in [0, 1], got {float(theta)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("theta", ["0", "1"])
    def test_eval_converge_accepts_theta_at_the_ends_of_the_unit_interval(self, fixture_dir, tmp_path, theta):
        root, paths = fixture_dir
        out = tmp_path / "study.json"
        r = CliRunner().invoke(cli, [
            "eval", "converge", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
            "--words", str(paths["words"]), "--baseline", str(paths["wikitext"]),
            "--reinforced", str(paths["wikitext"]), "--seeds", "1", "--epochs", "2",
            "--theta", theta, "--out", str(out),
        ])
        assert r.exit_code == 0, r.output

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out.read_text("utf-8"), parse_constant=no_constant)
        assert report["theta"] == float(theta)

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

    @pytest.mark.parametrize("content", [b"1 0\n1\x0c2\n", b"1 0\n1\n2\x1cuniform\n"],
                             ids=["form-feed-in-diagonal", "separator-before-weighting"])
    def test_model_file_breaks_lines_only_at_newlines(self, fixture_dir, tmp_path, capsys, content):
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        model.write_bytes(content)
        with pytest.raises(SystemExit) as e:
            main(["link", "infer", "--docs", str(paths["eval"]), "--entities", str(paths["wikitext"]),
                  "--words", str(paths["words"]), "--model", str(model), "--out", str(tmp_path / "p.tsv")])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert str(model) in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["model.txt"]

    @pytest.mark.parametrize("command", ["infer", "score"])
    def test_model_with_relations_exits_2(self, fixture_dir, tmp_path, capsys, command):
        # neither command scores a relation diagonal: a K >= 1 model would score as if K were 0
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        identity_model(SIZES.dim, 1).save(model)
        extra = ["--out", str(tmp_path / "p.tsv")] if command == "infer" else []
        with pytest.raises(SystemExit) as e:
            main(["link", command, "--docs", str(paths["eval"]), "--entities", str(paths["wikitext"]),
                  "--words", str(paths["words"]), "--model", str(model), *extra])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert "model has K = 1 relation diagonals" in captured.err and str(model) in captured.err
        assert captured.out == "" and os.listdir(tmp_path) == ["model.txt"]

    @pytest.mark.parametrize("command", ["infer", "score"])
    def test_malformed_model_header_exits_2(self, fixture_dir, tmp_path, capsys, command):
        # "--2" used to pass the header check and then fail in int()
        root, paths = fixture_dir
        model = tmp_path / "model.txt"
        model.write_bytes(b"--2 0\n1 1\n1 1\n")
        extra = ["--out", str(tmp_path / "p.tsv")] if command == "infer" else []
        with pytest.raises(SystemExit) as e:
            main([
                "link", command, "--docs", str(paths["eval"]),
                "--entities", str(paths["wikitext"]), "--words", str(paths["words"]),
                "--model", str(model), *extra,
            ])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"malformed model header '--2 0' [{model}]" in err and "Traceback" not in err

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
        # an empty corpus is refused before any article is read: no {tmp}/fx output appears
        ("types extract --corpus {no_articles} --dictionary {seeds} --cap 0 --out {tmp}/fx", "cap must be >= 1, got 0"),
        ("types extract --corpus {no_articles} --dictionary {empty_seeds} --out {tmp}/fx", "dictionary is empty"),
        ("embed neighbors --table {wikitext} --query ent0000 -k 0", "k must be >= 1, got 0"),
        ("dict expand --seeds type00w0 --embeddings {words} --corpus {articles} -k 0 --out {tmp}/x.tsv",
         "k must be >= 1, got 0"),
        ("fixtures make --out {tmp}/fx --dim 0", "dim must be >= 1, got 0"),
        ("fixtures make --out {tmp}/fx --candidates 0", "candidates must be >= 1, got 0"),
        ("fixtures make --out {tmp}/fx --entities -1", "entities must be >= 0, got -1"),
        ("fixtures make --out {tmp}/fx --entities 5 --groups 0", "groups must be >= 1, got 0"),
        ("pipeline run --config {empty_seeds_config}", "stage 'types' failed: dictionary is empty"),
        ("link convert --in {articles} --out {tmp}/c.jsonl --window -1", "window must be >= 0, got -1"),
    ], ids=["reinforce-T", "reinforce-alpha", "extract-cap", "extract-cap-no-articles",
            "extract-empty-dictionary-no-articles", "neighbors-k", "expand-k", "fixtures-dim",
            "fixtures-candidates", "fixtures-entities", "fixtures-groups", "pipeline-empty-seeds",
            "convert-window"])
    def test_out_of_range_value_exits_2(self, fixture_dir, tmp_path, capsys, args, needle):
        root, paths = fixture_dir
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("", "utf-8")
        config = write_config(tmp_path / "p.cfg", paths, tmp_path / "out",
                              extra=f"stages = dict,types\nseeds = {seeds}\n")
        (tmp_path / "no_articles").mkdir()
        where = {**paths, "tmp": tmp_path, "empty_seeds_config": config, "empty_seeds": seeds,
                 "no_articles": tmp_path / "no_articles"}
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
    identity_model(SIZES.dim).save(model)
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
    identity_model(SIZES.dim).save(model)
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
    identity_model(SIZES.dim).save(model)
    pred = tmp_path / "pred.tsv"
    if existing is not None:
        pred.write_bytes(existing)
    with pytest.raises(SystemExit) as e:
        main(["link", "infer", "--docs", str(docs), "--entities", str(paths["wikitext"]),
              "--words", str(paths["words"]), "--model", str(model), "--strategy", "exhaustive",
              "--out", str(pred)])
    assert e.value.code == 3
    assert (pred.read_bytes() if pred.exists() else None) == existing


@pytest.mark.parametrize("existing", [None, b"old\t0\tent0000\n"], ids=["absent", "present"])
def test_link_infer_one_over_capacity_document_exits_3_and_writes_nothing(fixture_dir, tmp_path, existing):
    root, paths = fixture_dir
    labels = [f"ent{i:04d}" for i in range(SIZES.entities)]
    docs = tmp_path / "docs.jsonl"
    save_linking_jsonl([LinkingDocument("big", [Mention("m", context=[], candidates=labels) for _ in range(6)])], docs)
    model = tmp_path / "model.txt"
    identity_model(SIZES.dim).save(model)
    pred = tmp_path / "pred.tsv"
    if existing is not None:
        pred.write_bytes(existing)
    with pytest.raises(SystemExit) as e:
        main(["link", "infer", "--docs", str(docs), "--entities", str(paths["wikitext"]),
              "--words", str(paths["words"]), "--model", str(model), "--strategy", "exhaustive",
              "--out", str(pred)])
    assert e.value.code == 3
    assert (pred.read_bytes() if pred.exists() else None) == existing
    assert sorted(os.listdir(tmp_path)) == sorted(["docs.jsonl", "model.txt"] + ["pred.tsv"] * (existing is not None))


def test_pipeline_run_over_capacity_exits_3_as_link_infer_does(tmp_path, capsys):
    paths = make_fixtures(0, FixtureSizes(candidates=40, mentions_per_doc=4, train_docs=3, dev_docs=2, eval_docs=2),
                          tmp_path / "fx")
    config = write_config(tmp_path / "p.cfg", paths, tmp_path / "out")
    with pytest.raises(SystemExit) as e:
        main(["pipeline", "run", "--config", str(config), "--set", "strategy=exhaustive"])
    assert e.value.code == 3
    assert "error: stage 'eval' failed: candidate product exceeds 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("size, start", [
    (["--entities", "1000000000000"], "error: Unable to allocate"),
    (["--entities", "1000000000000000000"], "error: "),
    (["--dim", "100000000000000000000"], "error: "),
], ids=["past-memory", "past-address-space", "dim-past-address-space"])
def test_allocation_failure_exits_3_without_a_traceback(tmp_path, size, start):
    # past the address space, numpy refuses the shape with a ValueError, not a MemoryError
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", "from semlink.cli import main; main()",
         "fixtures", "make", "--out", str(tmp_path / "fx"), *size],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(start) and proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "fx").exists()


def test_stage_out_of_memory_names_the_stage_and_exits_3(fixture_dir, tmp_path, capsys, monkeypatch):
    root, paths = fixture_dir
    config = write_config(tmp_path / "p.cfg", paths, tmp_path / "out")

    def fail(*args):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setitem(pipeline._RUNNERS, "link", fail)
    with pytest.raises(StageError) as e:
        run_pipeline(PipelineConfig.from_file(config))
    assert e.value.stage == "link" and isinstance(e.value.cause, MemoryError)
    with pytest.raises(SystemExit) as e:
        main(["pipeline", "run", "--config", str(config)])
    assert e.value.code == 3
    assert capsys.readouterr().err == "error: stage 'link' failed: Unable to allocate 1.00 TiB\n"


@pytest.mark.parametrize("epochs", ["1000000000000", "100000000000000000000"], ids=["past-memory", "past-address-space"])
def test_link_train_epochs_whose_record_cannot_be_held_exits_3_before_a_step(
        fixture_dir, tmp_path, capsys, monkeypatch, epochs):
    root, paths = fixture_dir

    def no_step(*args):
        raise AssertionError("the SGD ran")

    monkeypatch.setattr(linking_core._LockstepSGD, "run", no_step)
    with pytest.raises(SystemExit) as e:
        main(["link", "train", "--train", str(paths["train"]), "--entities", str(paths["wikitext"]),
              "--words", str(paths["words"]), "--epochs", epochs, "--out-model", str(tmp_path / "m.txt")])
    assert e.value.code == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [["--query", "no-such-label"], ["--query", "ent0000", "-k", "0"]],
                         ids=["missing-query", "k-0"])
def test_embed_neighbors_prints_nothing_before_its_checks(fixture_dir, capsys, args):
    root, paths = fixture_dir
    with pytest.raises(SystemExit) as e:
        main(["embed", "neighbors", "--table", str(paths["wikitext"]), *args])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.fixture(scope="module")
def predictions_dir(tmp_path_factory):
    # module-scoped: every example of the property reuses one directory
    root = tmp_path_factory.mktemp("predictions")
    rng = np.random.default_rng(3)
    save_binary(EmbeddingTable(2, ["w0", "w1"], rng.standard_normal((2, 2)).astype(np.float32)), root / "words.bin")
    identity_model(2).save(root / "model.txt")
    return root


# doc ids and labels of ':' suffixes, spaces, non-ASCII, and characters that
# str.splitlines takes for line breaks but the TSV reader does not; a tab is refused
PREDICTION_TEXT = st.text(st.sampled_from(["a", "b", "0", "1", ":", " ", "\xe9", "\x0b", "\x0c", "\u2028", "\t"]),
                          min_size=1, max_size=4)


@st.composite
def prediction_worlds(draw):
    pool = draw(st.lists(PREDICTION_TEXT, min_size=1, max_size=6, unique=True))
    mentions = st.builds(Mention, st.just("m"), st.lists(st.sampled_from(["w0", "w1", "x"]), max_size=3),
                         st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    docs = [LinkingDocument(doc_id, draw(st.lists(mentions, min_size=1, max_size=3)))
            for doc_id in draw(st.lists(PREDICTION_TEXT, min_size=1, max_size=3))]
    # the entity table holds every label a binary table can carry, with one of them left out at times
    labels = [label for label in pool if " " not in label]
    labels = labels[: len(labels) - draw(st.integers(0, min(1, len(labels))))]
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                            min_size=len(labels), max_size=len(labels)))
    return docs, EmbeddingTable.from_pairs(list(zip(labels, vectors)), 2)


@given(prediction_worlds())
def test_link_infer_predictions_are_refused_or_read_back(predictions_dir, world):
    """`link infer` either writes a predictions TSV that reads back as the
    picks of each document, or refuses its input with exit 2 and writes
    nothing: a doc id or candidate holding a tab, a repeated doc id, or a
    candidate the entity table lacks."""
    docs, entities = world
    root = predictions_dir
    pred = root / "pred.tsv"
    pred.unlink(missing_ok=True)
    save_linking_jsonl(docs, root / "docs.jsonl")
    save_binary(entities, root / "entities.bin")
    ids = [doc.doc_id for doc in docs]
    candidates = [c for doc in docs for m in doc.mentions for c in m.candidates]
    readable = len(set(ids)) == len(ids) and not any("\t" in text for text in ids + candidates)
    try:
        main(["link", "infer", "--docs", str(root / "docs.jsonl"), "--entities", str(root / "entities.bin"),
              "--words", str(root / "words.bin"), "--model", str(root / "model.txt"), "--out", str(pred)])
    except SystemExit as e:
        assert e.code == 2
        assert not pred.exists()
        assert not readable or not all(c in entities for c in candidates)
        return
    words, model = load_binary(root / "words.bin"), linking_core.LinkingModel.load(root / "model.txt")
    assert readable
    assert cli_module._read_assignment_tsv(pred) == {doc.doc_id: infer(doc, model, entities, words) for doc in docs}


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


def test_eval_converge_trains_with_train_config_defaults():
    """The study trains with `TrainConfig`'s margin and step size unless told
    otherwise; only its epoch budget differs, on purpose."""
    defaults = {p.name: p.default for p in cli.commands["eval"].commands["converge"].params}
    assert (defaults["margin"], defaults["lr"]) == (TrainConfig.margin, TrainConfig.lr)
    assert defaults["epochs"] == 50 != TrainConfig.epochs


def test_eval_stage_and_link_infer_infer_one_document_per_call(fixture_dir, tmp_path, monkeypatch):
    """Both infer through `linking_core.infer`, one call per document, so a
    wrapper of that function (the bench tracer's) sees every document."""
    root, paths = fixture_dir
    calls = []
    monkeypatch.setattr(linking_core, "infer", lambda doc, *a, **kw: calls.append(doc.doc_id) or infer(doc, *a, **kw))
    want = [doc.doc_id for doc in load_linking_jsonl(paths["eval"])]
    cfg = write_config(tmp_path / "p.cfg", paths, tmp_path / "out")
    main(["pipeline", "run", "--config", str(cfg)])
    assert calls == want
    calls.clear()
    main(["link", "infer", "--docs", str(paths["eval"]), "--entities", str(paths["wikitext"]),
          "--words", str(paths["words"]), "--model", str(tmp_path / "out" / "model.txt"),
          "--out", str(tmp_path / "pred.tsv")])
    assert calls == want
