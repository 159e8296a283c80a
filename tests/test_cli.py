import io
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from hanfix import data as bundled
from hanfix.cli import main
from hanfix.lexicon import Lexicon
from hanfix.model import _CKPT_MAGIC

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

    def test_ttm_only_drops_pinyin_candidates(self, capsys):
        assert main(["match", "参家", "--ttm-only", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        provs = {c["provenance"] for rec in records[0]["positions"]
                 for c in rec["candidates"]}
        assert "PINYIN_EXACT" not in provs and "PINYIN_FUZZY" not in provs

    def test_bad_m_max(self, capsys):
        assert main(["match", "参家", "--m-max", "0"]) == 2

    def test_explicit_lexicon_file(self, work, capsys):
        _, lex_path, *_ = work
        assert main(["match", "参家", "--lexicon", str(lex_path)]) == 0


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


class TestCorrect:
    def test_text_output_lines(self, work, capsys):
        d, lex_path, _, _, test_tsv, ckpt = work
        assert main(["correct", "参家", "会义", "--checkpoint", str(ckpt),
                     "--lexicon", str(lex_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(len(line) == 2 for line in lines)

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

    def test_ttm_lattice_flag(self, work, capsys):
        _, lex_path, _, _, _, ckpt = work
        assert main(["correct", "参家", "--checkpoint", str(ckpt),
                     "--lexicon", str(lex_path), "--lattice", "ttm"]) == 0


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

    def test_unknown_variant(self, work, capsys):
        d, lex_path, _, train_tsv, test_tsv, _ = work
        assert main(["ablate", "--train-corpus", str(train_tsv),
                     "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                     "--variants", "desm"]) == 2
        assert "unknown variants" in capsys.readouterr().err

    def test_bad_seeds(self, work, capsys):
        d, lex_path, _, train_tsv, test_tsv, _ = work
        assert main(["ablate", "--train-corpus", str(train_tsv),
                     "--test-corpus", str(test_tsv), "--lexicon", str(lex_path),
                     "--seeds", "0,x"]) == 2


class TestMalformedInputs:
    @pytest.mark.parametrize("what", ["lexicon-no-entries", "entry-no-pinyin",
                                      "checkpoint-no-chars"])
    def test_exit_2_with_one_line_error(self, what, work, tmp_path, capsys):
        _, lex_path, _, _, _, ckpt = work
        if what == "checkpoint-no-chars":
            blob = ckpt.read_bytes()
            off = len(_CKPT_MAGIC)
            hlen = int.from_bytes(blob[off + 4 : off + 8], "little")
            header = json.loads(blob[off + 12 : off + 12 + hlen])
            del header["chars"]
            hb = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
            ckpt = tmp_path / "bad.ckpt"
            ckpt.write_bytes(blob[: off + 4] + len(hb).to_bytes(4, "little")
                             + zlib.crc32(hb).to_bytes(4, "little") + hb
                             + blob[off + 12 + hlen :])
        else:
            payload = json.loads(lex_path.read_text(encoding="utf-8"))
            if what == "lexicon-no-entries":
                del payload["entries"]
            else:
                del payload["entries"][0]["pinyin"]
            lex_path = tmp_path / "bad.lexicon"
            lex_path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        assert main(["correct", "参家", "--checkpoint", str(ckpt),
                     "--lexicon", str(lex_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


def test_hanfix_log_enables_info_logging():
    env = dict(os.environ, HANFIX_LOG="info", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "hanfix.cli", "match", "参家"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "INFO hanfix.cli: no --lexicon given" in proc.stderr
