import argparse
import io
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from hanfix import data as bundled
from hanfix.cli import _load_train_config, main
from hanfix.corpus import load_parallel_tsv
from hanfix.desm import featurize_sentences
from hanfix.evaluation import score
from hanfix.lexicon import Lexicon, build_lexicon
from hanfix.model import _CKPT_MAGIC, correct_many, load_checkpoint, save_checkpoint
from hanfix.pinyin import FuzzyClassTable, PinyinTable

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {
    "d_c": 8, "d_w": 4, "layers": 1, "heads": 2, "ffn_dim": 16,
    "gate_dim": 4, "m_max": 3, "max_len": 32,
    "lr": 0.001, "batch_size": 8, "epochs": 2,
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared artifacts: lexicon file, corpora, config, tiny checkpoint."""
    d = tmp_path_factory.mktemp("cli")
    lex_path = d / "demo.lexicon"
    assert main(["build-lexicon", "--words", str(bundled.demo_words_path()),
                 "--out", str(lex_path)]) == 0
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    train_tsv = d / "train.tsv"
    test_tsv = d / "test.tsv"
    assert main(["gen-data", "--n", "30", "--seed", "0",
                 "--out", str(train_tsv)]) == 0
    assert main(["gen-data", "--n", "10", "--seed", "1",
                 "--out", str(test_tsv)]) == 0
    ckpt = d / "model.ckpt"
    assert main(["train", "--corpus", str(train_tsv), "--lexicon", str(lex_path),
                 "--config", str(cfg_path), "--out", str(ckpt)]) == 0
    return d, lex_path, cfg_path, train_tsv, test_tsv, ckpt


class TestParsing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["match", "--frobnicate", "x"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["gen-data", "--n", "5"]) == 1  # no --out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "build-lexicon" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["train", "--corpus", "c.tsv", "--out", "m.ckpt", "--lattice", "ttm"],
        ["correct", "参家", "--checkpoint", "m.ckpt", "--lattice", "ttm"],
        ["evaluate", "--checkpoint", "m.ckpt", "--test", "t.tsv", "--lattice", "ttm"],
        ["build-lexicon", "--words", "w.tsv", "--out", "x", "--fuzzy-table", "f"],
    ], ids=["train", "correct", "evaluate", "build-lexicon"])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        # the lattice mode comes from the config and then the checkpoint; a
        # lexicon file does not depend on the fuzzy table
        assert main(argv) == 1


class TestBuildLexicon:
    def test_reports_and_is_loadable(self, work, capsys):
        d, lex_path, *_ = work
        out2 = d / "again.lexicon"
        assert main(["build-lexicon", "--words", str(bundled.demo_words_path()),
                     "--out", str(out2)]) == 0
        msg = capsys.readouterr().out
        assert "words ->" in msg and "fingerprint" in msg
        assert len(Lexicon.load(out2)) > 0
        assert out2.read_bytes() == lex_path.read_bytes()  # deterministic
        # the bundled demo words, in lexicon format version 4 (the columns)
        assert "(fingerprint ece840d9)" in msg

    def test_missing_words_file(self, tmp_path, capsys):
        assert main(["build-lexicon", "--words", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "x")]) == 2


class TestMatch:
    def test_json_finds_phonetic_candidates(self, capsys):
        assert main(["match", "参家", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["sentence"] == "参家"
        words = {c["word"] for rec in records[0]["positions"]
                 for c in rec["candidates"]}
        assert {"参加", "禅家"} <= words

    def test_text_format_marks_suspects(self, capsys):
        assert main(["match", "参家", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "# 参家" in out
        assert "!" in out

    def test_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("参家\n"))
        assert main(["match", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["sentence"] == "参家"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_crlf_stdin_reads_as_lf(self, fmt, monkeypatch, capsys):
        # a CRLF line loses its "\r", as a line of a file input does
        outs = []
        for text in ("参家\n\n会义\n", "参家\r\n\r\n会义\r\n"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["match", "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert "\r" not in outs[1]

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_no_input_lines_give_no_output_lines(self, to_file, monkeypatch, tmp_path,
                                                 capsys):
        out = tmp_path / "match.txt"
        for fmt, want in (("text", ""), ("json", "[]\n")):
            monkeypatch.setattr("sys.stdin", io.StringIO(""))
            assert main(["match", "--format", fmt] + (["--out", str(out)] if to_file else [])) == 0
            assert (out.read_text(encoding="utf-8") if to_file else capsys.readouterr().out) \
                == want, fmt

    def test_ttm_only_drops_pinyin_candidates(self, capsys):
        assert main(["match", "参家", "--ttm-only", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        provs = {c["provenance"] for rec in records[0]["positions"]
                 for c in rec["candidates"]}
        assert "PINYIN_EXACT" not in provs and "PINYIN_FUZZY" not in provs

    def test_bad_m_max(self, capsys):
        assert main(["match", "参家", "--m-max", "0"]) == 2

    def test_lexicon_repeating_a_surface_exits_2(self, work, tmp_path, capsys):
        # loaded, it would list 参加 twice at each of its positions
        _, lex_path, *_ = work
        payload = json.loads(lex_path.read_text(encoding="utf-8"))
        first = payload["surfaces"].index("参加")
        for column in ("surfaces", "frequencies", "readings"):
            payload[column].append(payload[column][first])
        bad = tmp_path / "repeated.lexicon"
        bad.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        assert main(["match", "参加", "--lexicon", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "repeats the surface '参加'" in err

    def test_explicit_lexicon_file(self, work, capsys):
        _, lex_path, *_ = work
        assert main(["match", "参家", "--lexicon", str(lex_path)]) == 0

    def test_lexicon_file_follows_runtime_fuzzy_table(self, work, tmp_path, capsys):
        # the file was built under the default classes; with an empty table
        # it must answer exactly like a lexicon built in-process
        _, lex_path, *_ = work
        empty = tmp_path / "empty.fuzzy"
        empty.write_text("# no confusion classes\n", encoding="utf-8")
        args = ["match", "参家", "--fuzzy-table", str(empty), "--format", "json"]
        assert main(args + ["--lexicon", str(lex_path)]) == 0
        from_file = capsys.readouterr().out
        assert main(args) == 0
        in_process = capsys.readouterr().out
        assert from_file == in_process
        assert "禅家" not in from_file


class TestGenData:
    def test_deterministic_by_seed(self, tmp_path, capsys):
        a, b, c = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "c.tsv"
        assert main(["gen-data", "--n", "8", "--seed", "3", "--out", str(a)]) == 0
        assert "8 pairs" in capsys.readouterr().out
        assert main(["gen-data", "--n", "8", "--seed", "3", "--out", str(b)]) == 0
        assert main(["gen-data", "--n", "8", "--seed", "4", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_bad_error_rate(self, tmp_path, capsys):
        assert main(["gen-data", "--n", "5", "--error-rate", "1.5",
                     "--out", str(tmp_path / "x.tsv")]) == 2

    def test_negative_count_exits_2(self, tmp_path, capsys):
        assert main(["gen-data", "--n", "-2", "--out", str(tmp_path / "x.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.tsv").exists()


class TestTrain:
    def test_reports_epochs(self, work, capsys):
        # the fixture already trained; assert the checkpoint landed
        *_, ckpt = work
        assert ckpt.exists()

    def test_requires_lexicon(self, work, capsys):
        d, _, cfg_path, train_tsv, *_ = work
        assert main(["train", "--corpus", str(train_tsv), "--config",
                     str(cfg_path), "--out", str(d / "nope.ckpt")]) == 2
        assert "--lexicon" in capsys.readouterr().err

    def test_rejects_unknown_config_key(self, work, capsys):
        d, lex_path, _, train_tsv, *_ = work
        bad = d / "bad.json"
        bad.write_text(json.dumps(dict(CONFIG, warmup=5)), encoding="utf-8")
        assert main(["train", "--corpus", str(train_tsv), "--lexicon",
                     str(lex_path), "--config", str(bad),
                     "--out", str(d / "nope.ckpt")]) == 2
        assert "warmup" in capsys.readouterr().err

    def test_seed_is_a_training_key_only(self, work, tmp_path, capsys):
        # the config seed and --seed draw the same init, and the checkpoint
        # keeps neither; gate_activation is no longer a key
        d, lex_path, _, train_tsv, *_ = work
        blobs = []
        for extra, flags in (({"seed": 3}, []), ({}, ["--seed", "3"])):
            cfg = tmp_path / "seed.json"
            cfg.write_text(json.dumps(dict(CONFIG, **extra)), encoding="utf-8")
            ckpt = tmp_path / "seed.ckpt"
            assert main(["train", "--corpus", str(train_tsv), "--lexicon", str(lex_path),
                         "--config", str(cfg), "--out", str(ckpt), *flags]) == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]
        assert "seed" not in load_checkpoint(ckpt).config.to_dict()
        cfg.write_text(json.dumps(dict(CONFIG, gate_activation="gelu")), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--corpus", str(train_tsv), "--lexicon", str(lex_path),
                     "--config", str(cfg), "--out", str(d / "nope.ckpt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown config key 'gate_activation'" in err[0], err

    def test_too_long_corpus_exits_2(self, work, capsys):
        d, lex_path, _, train_tsv, *_ = work
        short = d / "short.json"
        short.write_text(json.dumps(dict(CONFIG, max_len=2)), encoding="utf-8")
        assert main(["train", "--corpus", str(train_tsv), "--lexicon",
                     str(lex_path), "--config", str(short),
                     "--out", str(d / "nope.ckpt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "exceeds max_len 2" in err[0], err

    def test_rejects_non_object_config(self, work, capsys):
        d, lex_path, _, train_tsv, *_ = work
        bad = d / "list.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        assert main(["train", "--corpus", str(train_tsv), "--lexicon",
                     str(lex_path), "--config", str(bad),
                     "--out", str(d / "nope.ckpt")]) == 2

    def test_rejects_malformed_json(self, work, capsys):
        d, lex_path, _, train_tsv, *_ = work
        bad = d / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["train", "--corpus", str(train_tsv), "--lexicon",
                     str(lex_path), "--config", str(bad),
                     "--out", str(d / "nope.ckpt")]) == 2

    def test_missing_corpus(self, work, capsys):
        d, lex_path, cfg_path, *_ = work
        assert main(["train", "--corpus", str(d / "missing.tsv"), "--lexicon",
                     str(lex_path), "--config", str(cfg_path),
                     "--out", str(d / "nope.ckpt")]) == 2

    # each asks init_params for a tensor of a PiB or more (P, of max_len x d_c
    # float64s, or E_c, of vocab x d_c), past any address space, so numpy
    # refuses it before touching memory
    @pytest.mark.parametrize("sizes", [{"max_len": 2 ** 50}, {"d_c": 2 ** 47, "heads": 1}],
                             ids=["max_len", "d_c"])
    def test_absurd_model_size_exits_2(self, sizes, work, tmp_path, capsys):
        _, lex_path, _, train_tsv, *_ = work
        cfg = tmp_path / "absurd.json"
        cfg.write_text(json.dumps(dict(CONFIG, epochs=1, **sizes)), encoding="utf-8")
        assert main(["train", "--corpus", str(train_tsv), "--lexicon", str(lex_path),
                     "--config", str(cfg), "--out", str(tmp_path / "nope.ckpt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "allocate" in err[0], err
        assert not (tmp_path / "nope.ckpt").exists()


class TestCorrect:
    def test_text_output_lines(self, work, capsys):
        d, lex_path, _, _, test_tsv, ckpt = work
        assert main(["correct", "参家", "会义", "--checkpoint", str(ckpt),
                     "--lexicon", str(lex_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(len(line) == 2 for line in lines)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("text,want", [("", ""), ("\n", "\n"), ("a\n\nb\n", "a\n\nb\n")],
                             ids=["none", "one-empty", "three"])
    def test_one_output_line_per_input_line(self, text, want, to_file, work, monkeypatch,
                                            tmp_path, capsys):
        # no input gives no output, and one empty line one empty line
        _, lex_path, _, _, _, ckpt = work
        out = tmp_path / "corrected.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["correct", "--checkpoint", str(ckpt), "--lexicon", str(lex_path)]
                    + (["--out", str(out)] if to_file else [])) == 0
        got = out.read_bytes() if to_file else capsys.readouterr().out.encode("utf-8")
        assert got == want.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_crlf_stdin_reads_as_lf(self, fmt, work, monkeypatch, capsys):
        # "\r" is not a character of the sentence: CRLF input corrects as LF
        _, lex_path, _, _, _, ckpt = work
        outs = []
        for text in ("参家\n\n会义\n", "参家\r\n\r\n会义\r\n"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["correct", "--checkpoint", str(ckpt), "--lexicon", str(lex_path),
                         "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert "\r" not in outs[1]

    def test_json_output(self, work, capsys):
        _, lex_path, _, _, _, ckpt = work
        assert main(["correct", "参家", "--checkpoint", str(ckpt),
                     "--lexicon", str(lex_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["input"] == "参家"
        assert len(payload[0]["output"]) == 2

    def test_deterministic(self, work):
        d, lex_path, _, _, _, ckpt = work
        o1, o2 = d / "c1.txt", d / "c2.txt"
        args = ["correct", "参家", "--checkpoint", str(ckpt),
                "--lexicon", str(lex_path)]
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_missing_checkpoint(self, work, capsys):
        d, lex_path, *_ = work
        assert main(["correct", "参家", "--checkpoint", str(d / "no.ckpt"),
                     "--lexicon", str(lex_path)]) == 2

    def test_trained_lattice_mode_drives_features(self, work, tmp_path, capsys):
        # a checkpoint trained on ttm lattices is corrected and scored with
        # ttm features, no flag needed; without the copy gate the two lattices
        # give different outputs and scores after a few epochs; the scores
        # must differ at known characters, as an unknown one is never edited
        _, lex_path, _, train_tsv, test_tsv, _ = work
        cfg = tmp_path / "ttm.json"
        cfg.write_text(json.dumps(dict(CONFIG, lattice_mode="ttm", use_copy=False,
                                       lr=0.01, epochs=4)), encoding="utf-8")
        ckpt = tmp_path / "ttm.ckpt"
        assert main(["train", "--corpus", str(train_tsv), "--lexicon", str(lex_path),
                     "--config", str(cfg), "--out", str(ckpt)]) == 0
        params = load_checkpoint(ckpt)
        assert params.config.lattice_mode == "ttm"
        pairs = load_parallel_tsv(test_tsv)
        sources = [p.source for p in pairs]
        lex = Lexicon.load(lex_path)
        ptable = PinyinTable.from_file(bundled.demo_pinyin_path())
        fuzzy = FuzzyClassTable.from_file(bundled.demo_fuzzy_path())

        def library(mode):
            feats = featurize_sentences(sources, lex, ptable, fuzzy,
                                        params.config.m_max, mode)
            preds = correct_many(params, sources, feats)
            report = score([(p.source, p.target, yh) for p, yh in zip(pairs, preds)],
                           tag=test_tsv.name)
            return preds, report.to_dict()

        ttm, desm = library("ttm"), library("desm")
        assert ttm[0] != desm[0] and ttm[1] != desm[1]
        capsys.readouterr()
        assert main(["correct", *sources, "--checkpoint", str(ckpt),
                     "--lexicon", str(lex_path)]) == 0
        assert capsys.readouterr().out.splitlines() == ttm[0]
        assert main(["evaluate", "--checkpoint", str(ckpt), "--lexicon", str(lex_path),
                     "--test", str(test_tsv), "--format", "json",
                     "--allow-zero-denominators"]) == 0
        assert json.loads(capsys.readouterr().out) == ttm[1]

    def test_unknown_characters_pass_through(self, work, tmp_path, capsys):
        # with the copy gate shut (gate.b2 -30) the generator writes every
        # known position, yet a character outside the vocabulary comes back
        # as it went in, and the line keeps its length
        _, lex_path, *_, ckpt = work
        params = load_checkpoint(ckpt)
        params.tensors["gate.b2"][...] = -30.0
        open_ckpt = tmp_path / "open.ckpt"
        save_checkpoint(params, open_ckpt)
        line = "ok参家2024\U0001F600\uFF0C会议A9"
        unknown = [i for i, c in enumerate(line) if c not in params.chars]
        assert "参" in params.chars and len(unknown) >= 9
        assert main(["correct", line, "--checkpoint", str(open_ckpt),
                     "--lexicon", str(lex_path)]) == 0
        [out] = capsys.readouterr().out.splitlines()
        assert len(out) == len(line)
        assert [out[i] for i in unknown] == [line[i] for i in unknown]


class TestEvaluate:
    def test_degenerate_exit_without_waiver(self, work, capsys):
        # a clean test set has no error positions, so recall denominators
        # are zero; the command must refuse unless explicitly allowed
        d, lex_path, _, _, _, ckpt = work
        clean = d / "clean.tsv"
        assert main(["gen-data", "--n", "6", "--error-rate", "0",
                     "--out", str(clean)]) == 0
        assert main(["evaluate", "--checkpoint", str(ckpt), "--lexicon",
                     str(lex_path), "--test", str(clean)]) == 3
        err = capsys.readouterr().err
        assert "degenerate" in err

    def test_waiver_allows_exit_zero(self, work, capsys):
        d, lex_path, _, _, _, ckpt = work
        clean = d / "clean2.tsv"
        assert main(["gen-data", "--n", "6", "--error-rate", "0",
                     "--out", str(clean)]) == 0
        assert main(["evaluate", "--checkpoint", str(ckpt), "--lexicon",
                     str(lex_path), "--test", str(clean),
                     "--allow-zero-denominators"]) == 0

    def test_json_report(self, work, capsys):
        _, lex_path, _, _, test_tsv, ckpt = work
        code = main(["evaluate", "--checkpoint", str(ckpt), "--lexicon",
                     str(lex_path), "--test", str(test_tsv),
                     "--format", "json", "--allow-zero-denominators"])
        assert code in (0, 3)
        report = json.loads(capsys.readouterr().out)
        assert code == 0  # waiver given, so any flags may not fail the run
        assert "detection" in report and "correction" in report
        assert report["tag"] == test_tsv.name

    def test_malformed_tsv(self, work, capsys):
        d, lex_path, _, _, _, ckpt = work
        bad = d / "bad.tsv"
        bad.write_text("onlyonecolumn\n", encoding="utf-8")
        assert main(["evaluate", "--checkpoint", str(ckpt), "--lexicon",
                     str(lex_path), "--test", str(bad)]) == 2


class TestAblate:
    def test_two_variant_table(self, work, capsys):
        d, lex_path, _, train_tsv, test_tsv, _ = work
        fast = d / "fast.json"
        fast.write_text(json.dumps(dict(CONFIG, epochs=1)), encoding="utf-8")
        code = main(["ablate", "--train-corpus", str(train_tsv),
                     "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                     "--config", str(fast), "--seeds", "0",
                     "--variants", "plain,desm+copy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plain" in out and "desm+copy" in out

    @pytest.mark.parametrize("key,value", [("use_copy", False), ("lattice_mode", "none"),
                                           ("seed", 7)])
    def test_variant_keys_in_config_are_rejected(self, key, value, work, capsys):
        # run_ablation sets these per variant and per --seeds entry, so a
        # config value would be ignored
        d, lex_path, _, train_tsv, test_tsv, _ = work
        cfg = d / f"ablate-{key}.json"
        cfg.write_text(json.dumps(dict(CONFIG, epochs=1, **{key: value})), encoding="utf-8")
        assert main(["ablate", "--train-corpus", str(train_tsv),
                     "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                     "--config", str(cfg), "--seeds", "0", "--variants", "plain"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        setter = "--seeds" if key == "seed" else "each variant"
        assert repr(key) in err[0] and f"{setter} sets it" in err[0]

    @pytest.mark.parametrize("bad,message", [
        ({"d_c": 7, "heads": 2}, "d_c=7 not divisible by heads=2"),
        ({"layers": 0}, "ModelConfig.layers must be at least 1, got 0"),
    ], ids=["d_c-heads", "layers"])
    def test_bad_model_key_is_one_error(self, bad, message, work, capsys):
        # every variant shares the model config: one error line, no FAILED rows
        d, lex_path, _, train_tsv, test_tsv, _ = work
        cfg = d / "ablate-bad-model.json"
        cfg.write_text(json.dumps(dict(CONFIG, epochs=1, **bad)), encoding="utf-8")
        assert main(["ablate", "--train-corpus", str(train_tsv),
                     "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                     "--config", str(cfg), "--seeds", "0", "--variants", "plain,copy"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_unknown_variant(self, work, capsys):
        d, lex_path, _, train_tsv, test_tsv, _ = work
        assert main(["ablate", "--train-corpus", str(train_tsv),
                     "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                     "--variants", "desm"]) == 2
        assert "unknown variants" in capsys.readouterr().err

    @pytest.mark.parametrize("names", ["", " ", "plain,", "plain, "])
    def test_empty_or_blank_variant(self, names, work, capsys):
        # an empty name is an unknown variant, not a request for every variant
        d, lex_path, _, train_tsv, test_tsv, _ = work
        assert main(["ablate", "--train-corpus", str(train_tsv),
                     "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                     "--variants", names]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown variants"), err

    def test_bad_seeds(self, work, capsys):
        d, lex_path, _, train_tsv, test_tsv, _ = work
        for seeds in ("0,x", "", "1.5", "0,,1"):
            assert main(["ablate", "--train-corpus", str(train_tsv),
                         "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                         "--seeds", seeds]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: --seeds takes comma-separated integers, got {seeds!r}"]


def rewrite_header(ckpt, out, edit):
    """Write `ckpt` to `out` with its header JSON changed in place by
    edit(header), which returns the format version to write, or None to keep
    the file's; the header checksum is recomputed."""
    blob = ckpt.read_bytes()
    off = len(_CKPT_MAGIC)
    hlen = int.from_bytes(blob[off + 4 : off + 8], "little")
    header = json.loads(blob[off + 12 : off + 12 + hlen])
    version = edit(header)
    version = blob[off : off + 4] if version is None else version.to_bytes(4, "little")
    hb = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    out.write_bytes(blob[:off] + version + len(hb).to_bytes(4, "little")
                    + zlib.crc32(hb).to_bytes(4, "little") + hb + blob[off + 12 + hlen :])
    return out


class TestMalformedInputs:
    @pytest.mark.parametrize("what", ["lexicon-no-entries", "entry-no-readings",
                                      "entry-empty-reading", "checkpoint-no-chars",
                                      "checkpoint-v1", "checkpoint-v2",
                                      "checkpoint-char-str", "checkpoint-char-int"])
    def test_exit_2_with_one_line_error(self, what, work, tmp_path, capsys):
        _, lex_path, _, _, _, ckpt = work
        if what.startswith("checkpoint"):
            def edit(header):  # returns the version to write, if not the file's
                if what == "checkpoint-no-chars":
                    del header["chars"]
                elif what == "checkpoint-v1":  # its config has no lattice mode
                    del header["config"]["lattice_mode"]
                    return 1
                elif what == "checkpoint-v2":  # its config also holds these two
                    header["config"].update(gate_activation="gelu", seed=0)
                    return 2
                else:  # a vocabulary entry that is not one character
                    header["chars"][4] = "XYZ" if what.endswith("str") else 4
            ckpt = rewrite_header(ckpt, tmp_path / "bad.ckpt", edit)
        else:
            payload = json.loads(lex_path.read_text(encoding="utf-8"))
            if what == "lexicon-no-entries":
                del payload["surfaces"], payload["frequencies"], payload["readings"]
            elif what == "entry-no-readings":  # the readings column is one short
                del payload["readings"][0]
            else:  # 参加 would silently leave the window hits of 参家
                payload["readings"][payload["surfaces"].index("参加")][0] = []
            lex_path = tmp_path / "bad.lexicon"
            lex_path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        assert main(["correct", "我们参加会议", "--checkpoint", str(ckpt),
                     "--lexicon", str(lex_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        if what.startswith("checkpoint-v"):
            assert f"version {what[-1]}" in err[0] and "retrain" in err[0], err

    @pytest.mark.parametrize("field,value", [
        ("surfaces", ""), ("surfaces", 7), ("frequencies", "10"), ("frequencies", True),
        ("frequencies", -1),
        ("readings", [["can"], 5]), ("readings", [["can"], [5]]), ("readings", []),
        ("readings", lambda surface: [["cxn"]] * len(surface)),
        ("pinyin", lambda surface: ["can1"] * len(surface)),
    ], ids=["surface-empty", "surface-int", "frequency-str", "frequency-bool",
            "frequency-negative", "readings-int", "readings-item-int", "readings-short",
            "readings-bad-syllable", "unknown-field"])
    def test_mistyped_lexicon_field_exits_2(self, field, value, work, tmp_path, capsys):
        # every word's item of one column; "pinyin" is an unknown top-level
        # column, the tonal readings version 2 stored per word
        payload = json.loads(work[1].read_text(encoding="utf-8"))
        payload[field] = [value(s) if callable(value) else value for s in payload["surfaces"]]
        lex_path = tmp_path / "bad.lexicon"
        lex_path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        assert main(["match", "参家", "--lexicon", str(lex_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestHugeMMax:
    """An m_max above M_MAX_LIMIT would pad every lattice row to it, and
    fail on memory: each way it can arrive is refused as a bad argument."""

    HUGE = 10 ** 12

    @pytest.mark.parametrize("command", ["match", "train", "ablate", "correct", "evaluate"])
    def test_every_subcommand_exits_2_with_one_line_error(self, command, work, tmp_path,
                                                          capsys):
        _, lex_path, _, train_tsv, test_tsv, ckpt = work
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(dict(CONFIG, epochs=1, m_max=self.HUGE)), encoding="utf-8")

        def huge(header):
            header["config"]["m_max"] = self.HUGE

        bad_ckpt = str(rewrite_header(ckpt, tmp_path / "huge.ckpt", huge))
        argv = {
            "match": ["match", "参家", "--m-max", str(self.HUGE)],
            "train": ["train", "--corpus", str(train_tsv), "--lexicon", str(lex_path),
                      "--config", str(cfg), "--out", str(tmp_path / "nope.ckpt")],
            "ablate": ["ablate", "--train-corpus", str(train_tsv), "--test-corpus",
                       str(test_tsv), "--lexicon", str(lex_path), "--config", str(cfg),
                       "--seeds", "0", "--variants", "plain"],
            "correct": ["correct", "参家", "--checkpoint", bad_ckpt,
                        "--lexicon", str(lex_path)],
            "evaluate": ["evaluate", "--checkpoint", bad_ckpt, "--lexicon", str(lex_path),
                         "--test", str(test_tsv)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "at most 4096" in err[0], err

    def test_the_limit_itself_is_taken(self, capsys):
        assert main(["match", "参家", "--m-max", "4096", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["sentence"] == "参家"


@pytest.mark.parametrize("reading", ["zhong\u00b2", "zhong\uff13", "zhong\u0663"],
                         ids=["superscript", "fullwidth", "arabic-indic"])
def test_pinyin_table_with_a_non_ascii_tone_digit_exits_2(reading, tmp_path, capsys):
    table = tmp_path / "pinyin.tsv"
    table.write_text(f"\u4e2d\tzhong1\n# a comment\n\u4e2d\t{reading}\n", encoding="utf-8")
    assert main(["match", "\u4e2d", "--pinyin-table", str(table)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {table}:3"), err
    assert "tone digit must be 0-4" in err[0], err


def test_hanfix_log_enables_info_logging():
    env = dict(os.environ, HANFIX_LOG="info", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "hanfix.cli", "match", "参家"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "INFO hanfix.cli: no --lexicon given" in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["match", "参家会议", "--format", "json"], ["--help"]],
                         ids=["match", "help"])
def test_a_reader_that_left_is_not_bad_input(argv, unbuffered):
    # `hanfix match ... | head -1`: the write fails at once when stdout is
    # unbuffered, and at the final flush when it is buffered; argparse
    # ignores a failed write of its help, so unbuffered help exits 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has left before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "hanfix", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    code = 0 if argv == ["--help"] and unbuffered else 141
    assert (proc.returncode, proc.stderr) == (code, "")


def test_python_m_hanfix_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "hanfix", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "build-lexicon" in proc.stdout


def _pinyin_table(path):
    table = PinyinTable.from_file(path)
    return {c: table.get(c) for c in table.characters()}


def _word_list(path):
    return build_lexicon(path, PinyinTable.from_file(bundled.demo_pinyin_path()),
                         FuzzyClassTable.default()).to_json()


def _fuzzy_table(path):
    table = FuzzyClassTable.from_file(path)
    return table.initial_classes, table.final_classes


def _train_config(path):
    return _load_train_config(argparse.Namespace(config=str(path), command="train"))


@pytest.mark.parametrize("text, read", [
    ("参\tcan1\n加\tjia1\n", _pinyin_table),
    ("参加\t80\n家\n", _word_list),
    ("z zh\nan ang\n", _fuzzy_table),
    ("参家\t参加\n", load_parallel_tsv),
    (json.dumps(CONFIG), _train_config),
], ids=["pinyin-table", "word-list", "fuzzy-table", "parallel-tsv", "config"])
def test_text_inputs_accept_a_byte_order_mark(text, read, tmp_path):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert read(marked) == read(plain)
