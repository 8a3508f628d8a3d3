"""End-to-end command-line runs against the bundled synthetic corpus."""

from __future__ import annotations

import inspect
import io
import re
from dataclasses import fields
from pathlib import Path

import pytest

from mwetag import ga
from mwetag.cli import RunConfig, dispatch, load_run_config
from mwetag.corpus import load_model, read_column_file
from mwetag.crf import CrfModel, TrainConfig
from mwetag.errors import ConfigError
from mwetag.features import TokenRecord
from mwetag.ga import GaConfig, crossover
from tests import make_fixtures
from tests.conftest import NOT_LINE_ENDS

DATA = Path(__file__).parent / "data"
RAW = str(DATA / "synthetic_raw.txt")
PREFIXES = str(DATA / "synthetic_prefixes.txt")
SUFFIXES = str(DATA / "synthetic_suffixes.txt")

AFFIX_FLAGS = ["--prefixes", PREFIXES, "--suffixes", SUFFIXES]


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "mwetag" in capsys.readouterr().out


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_subcommand_help_exits_zero(capsys):
    for command in ("stem", "encode", "train", "tag", "eval", "ga-search", "report"):
        assert dispatch([command, "--help"]) == 0
        capsys.readouterr()


def test_stem_command_output(capsys):
    code = dispatch(["stem", *AFFIX_FLAGS, "vdalzb", "plain"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "vdalzb\tvdal\t-\tzb"
    assert lines[1] == "plain\tplain\t-\t-"


def test_stem_command_default_lexicon(capsys):
    # packaged lists load when no flags are given
    assert dispatch(["stem", "পুশিন"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("পুশিন\tপু\t-\tশিন")


def test_encode_requires_out(capsys):
    assert dispatch(["encode", *AFFIX_FLAGS, RAW]) == 1
    assert "--out" in capsys.readouterr().err


def test_missing_input_file_is_reported(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    assert dispatch(["encode", *AFFIX_FLAGS, "--out", out, "no_such_file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def encoded_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "encoded.txt"
    code = dispatch(["encode", *AFFIX_FLAGS, "--out", str(path), RAW])
    assert code == 0
    return path


def test_encode_produces_column_file(encoded_corpus):
    corpus = read_column_file(encoded_corpus)
    assert len(corpus) == 50
    assert corpus.token_count == 525
    words_with_suffix = [
        s for s in corpus for r in s if r.columns[0].endswith("zb")
    ]
    assert words_with_suffix


TEMPLATE_TEXT = "U10:%x[0,2]\nU24:%x[0,16]\nU35:%x[0,21]\nB\n"


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, encoded_corpus):
    base = tmp_path_factory.mktemp("cli-train")
    template = base / "template.txt"
    template.write_text(TEMPLATE_TEXT, encoding="utf-8")
    model = base / "model.txt"
    code = dispatch(
        [
            "train",
            str(encoded_corpus),
            "--template",
            str(template),
            "--model",
            str(model),
            "--max-iterations",
            "60",
        ]
    )
    assert code == 0
    return model


@pytest.mark.parametrize(
    "flags, stop",
    [
        (["--max-iterations", "3"], "max_iterations after 3"),
        (["--tolerance", "1e9"], "tolerance after 0"),
    ],
    ids=["max_iterations", "tolerance"],
)
def test_train_says_why_it_stopped_on_stderr(tmp_path, encoded_corpus, capsys, flags, stop):
    template = tmp_path / "template.txt"
    template.write_text(TEMPLATE_TEXT, encoding="utf-8")
    model = tmp_path / "model.txt"
    argv = ["train", str(encoded_corpus), "--template", str(template), "--model", str(model)]
    assert dispatch([*argv, *flags]) == 0
    out, err = capsys.readouterr()
    assert out == f"trained on 50 sentences, {len(load_model(model).weights)} weights -> {model}\n"
    number = r"-?\d[\d.e+-]*"
    assert re.fullmatch(
        rf"training stopped: {stop} iterations, objective {number}, "
        rf"gradient inf-norm {number}, \d+ objective evaluations\n",
        err,
    )


def test_train_tag_eval_pipeline(tmp_path, trained_model, encoded_corpus, capsys):
    tagged = tmp_path / "tagged.txt"
    assert (
        dispatch(
            ["tag", str(encoded_corpus), "--model", str(trained_model), "--out", str(tagged)]
        )
        == 0
    )
    capsys.readouterr()
    csv_out = tmp_path / "report.csv"
    code = dispatch(
        ["eval", str(encoded_corpus), str(tagged), "--mode", "span", "--out", str(csv_out)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "f-measure" in out
    header, row = csv_out.read_text(encoding="utf-8").splitlines()
    assert header == "mode,correct,gold,predicted,P,R,F"
    f_value = float(row.split(",")[-1])
    assert f_value > 80.0  # three informative features fit the training data


def test_encode_tag_eval_run_no_full_row_check(tmp_path, trained_model, monkeypatch, capsys):
    """Each string from outside is checked once before its row is built:
    encode checks the word and pos, and the readers split fields, so no row
    on the encode, tag and eval path runs TokenRecord's full column check.
    A public TokenRecord(...) runs it once."""
    checks = []
    full_check = TokenRecord.__post_init__

    def counted(record):
        checks.append(record)
        full_check(record)

    monkeypatch.setattr(TokenRecord, "__post_init__", counted)
    encoded, tagged = tmp_path / "encoded.col", tmp_path / "tagged.col"
    assert dispatch(["encode", *AFFIX_FLAGS, "--out", str(encoded), RAW]) == 0
    assert dispatch(["tag", str(encoded), "--model", str(trained_model), "--out", str(tagged)]) == 0
    assert dispatch(["eval", str(encoded), str(tagged)]) == 0
    assert "f-measure" in capsys.readouterr().out
    assert checks == []
    TokenRecord(read_column_file(tagged)[0][0].columns)
    assert len(checks) == 1


def test_tag_accepts_unlabeled_input(tmp_path, trained_model, encoded_corpus):
    unlabeled = tmp_path / "unlabeled.txt"
    stripped_rows = []
    for line in Path(encoded_corpus).read_text(encoding="utf-8").splitlines():
        stripped_rows.append(" ".join(line.split(" ")[:-1]) if line else "")
    unlabeled.write_text("\n".join(stripped_rows) + "\n", encoding="utf-8")
    out = tmp_path / "tagged.txt"
    assert dispatch(["tag", str(unlabeled), "--model", str(trained_model), "--out", str(out)]) == 0
    assert read_column_file(out).token_count == 525


def test_tag_of_an_empty_column_file_writes_an_empty_file(tmp_path, trained_model):
    empty, out = tmp_path / "empty.txt", tmp_path / "tagged.txt"
    empty.write_text("", encoding="utf-8")
    assert dispatch(["tag", str(empty), "--model", str(trained_model), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_eval_token_mode(tmp_path, trained_model, encoded_corpus, capsys):
    tagged = tmp_path / "tagged.txt"
    dispatch(["tag", str(encoded_corpus), "--model", str(trained_model), "--out", str(tagged)])
    capsys.readouterr()
    assert dispatch(["eval", str(encoded_corpus), str(tagged), "--mode", "token"]) == 0
    assert "token" in capsys.readouterr().out


GA_FLAGS = [
    "--population", "4",
    "--generations", "2",
    "--folds", "2",
    "--max-iterations", "8",
    "--seed", "5",
]


@pytest.mark.parametrize("text", ["B\n", "# no unigram lines\n"], ids=["B-only", "comments-only"])
def test_train_and_tag_a_template_without_unigram_lines(tmp_path, encoded_corpus, text):
    template, model, tagged = tmp_path / "t.txt", tmp_path / "m.txt", tmp_path / "o.txt"
    template.write_text(text, encoding="utf-8")
    train = ["train", str(encoded_corpus), "--template", str(template), "--model", str(model)]
    assert dispatch([*train, "--max-iterations", "5"]) == 0
    assert dispatch(["tag", str(encoded_corpus), "--model", str(model), "--out", str(tagged)]) == 0
    assert read_column_file(tagged).token_count == 525


def test_ga_search_and_report(tmp_path, encoded_corpus, capsys):
    template_out = tmp_path / "best.txt"
    history_out = tmp_path / "history.csv"
    code = dispatch(
        [
            "ga-search",
            str(encoded_corpus),
            "--out",
            str(template_out),
            "--history",
            str(history_out),
            *GA_FLAGS,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "best fitness" in stdout
    assert template_out.exists() and history_out.exists()
    history_text = history_out.read_text(encoding="utf-8")
    assert history_text.startswith("generation,best_fitness,mean_fitness,best_bits")

    assert dispatch(["report", str(history_out)]) == 0
    report_out = capsys.readouterr().out
    assert "generations: 2" in report_out


def test_ga_search_reruns_byte_identical(tmp_path, encoded_corpus, capsys, monkeypatch):
    """The second run may fit its folds on two worker processes (never more
    than this process's CPUs), the first fits them here; the bytes match."""
    outputs = []
    for name, cpus in (("a", 1), ("b", min(2, ga._usable_cpus()))):
        monkeypatch.setattr(ga, "_usable_cpus", lambda cpus=cpus: cpus)
        template_out = tmp_path / f"best-{name}.txt"
        history_out = tmp_path / f"history-{name}.csv"
        code = dispatch(
            [
                "ga-search",
                str(encoded_corpus),
                "--out",
                str(template_out),
                "--history",
                str(history_out),
                *GA_FLAGS,
            ]
        )
        assert code == 0
        outputs.append(
            (
                template_out.read_bytes(),
                history_out.read_bytes(),
            )
        )
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_config_file_settings(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# search settings\nseed = 9\nmax_generations = 7\ncrossover_rate = 0.5\n"
        "mode = token\nmodel = m.txt\n",
        encoding="utf-8",
    )
    config = load_run_config(cfg)
    assert config.seed == 9
    assert config.max_generations == 7
    assert config.crossover_rate == 0.5
    assert config.mode == "token"
    assert config.model == "m.txt"
    assert config.rho == 10.0  # untouched default


def test_config_file_with_a_byte_order_mark_loads(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 5\n", encoding="utf-8-sig")
    assert load_run_config(cfg).rho == 5.0


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("velocity = 11\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_run_config(cfg)
    assert "line 1" in str(exc.value)


def test_config_file_repeated_key_names_both_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 5\n# a later change\nrho = 6\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="^line 3: setting 'rho' repeats line 1$") as exc:
        load_run_config(cfg)
    assert exc.value.line == 3


@pytest.mark.parametrize("end", NOT_LINE_ENDS.values(), ids=list(NOT_LINE_ENDS))
def test_config_file_breaks_lines_only_at_newlines(tmp_path, end):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"rho = 5{end}\nseed = 3\n", encoding="utf-8")
    assert load_run_config(cfg).rho == 5.0
    cfg.write_text(f"rho = 5{end}\nvelocity = 11\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="^line 2: unknown setting 'velocity'") as exc:
        load_run_config(cfg)
    assert exc.value.line == 2


def test_config_file_bad_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = fast\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(cfg)


def test_config_file_bad_mode(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = char\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(cfg)


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"prefixes = no_such_prefix_file.txt\nsuffixes = {SUFFIXES}\n", encoding="utf-8")
    # config alone points at a missing file; the flag must win
    code = dispatch(
        ["stem", "--config", str(cfg), "--prefixes", PREFIXES, "vdalzb"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("vdalzb\tvdal")


def test_stem_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("vdalzb\n\nplain\n"))
    assert dispatch(["stem", *AFFIX_FLAGS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2


def test_stem_refuses_a_word_that_holds_whitespace(monkeypatch, capsys):
    """A tab inside a word would split its row into five fields, so every word
    is checked before any row is printed; a stdin word names its line."""
    monkeypatch.setattr("sys.stdin", io.StringIO("plain\n\nxa\tzb\n"))
    assert dispatch(["stem", *AFFIX_FLAGS]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 3: word entry 'xa\\tzb' is empty or holds whitespace\n"
    assert dispatch(["stem", *AFFIX_FLAGS, "plain", "a b"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: word entry 'a b' is empty or holds whitespace\n"


def test_non_utf8_input_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_bytes(b"word\tNN\nwor\xe9\tNN\n")
    assert dispatch(["encode", str(raw), "--out", str(tmp_path / "enc.col")]) == 1
    assert capsys.readouterr().err.startswith("error: line 2:")
    # a stream is decoded in chunks, so it has no line to name
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"plain\nwor\xe9\n"), "utf-8"))
    assert dispatch(["stem", *AFFIX_FLAGS]) == 1
    assert capsys.readouterr().err.startswith("error: not UTF-8")


def test_defaults_are_the_library_defaults():
    run = RunConfig()
    for cls in (TrainConfig, GaConfig):
        for f in fields(cls):
            assert getattr(run, f.name) == f.default, f"{cls.__name__}.{f.name}"
    assert CrfModel.rho == TrainConfig.rho
    assert inspect.signature(crossover).parameters["rate"].default == GaConfig.crossover_rate


@pytest.mark.parametrize(
    "argv",
    [
        ["stem", "word"],
        ["encode", "raw.txt"],
        ["train", "data.col", "--template", "t.txt", "--model", "m.txt"],
        ["tag", "data.col", "--model", "m.txt", "--out", "o.col"],
        ["eval", "gold.col", "predicted.col"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_a_ga_search_flag_only(argv, capsys):
    assert dispatch([*argv, "--seed", "7"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_config_file_keys_a_command_does_not_read_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\nrho = 2.0\npopulation_size = 4\n", encoding="utf-8")
    assert dispatch(["stem", "--config", str(cfg), *AFFIX_FLAGS, "vdalzb"]) == 0
    assert capsys.readouterr().out.startswith("vdalzb\tvdal")


@pytest.mark.parametrize(
    "setting, key",
    [("rho = nan", "rho"), ("min_stem = 0", "min_stem"), ("mode = bogus", "mode")],
    ids=["rho", "min_stem", "mode"],
)
def test_config_file_values_are_checked_at_their_line(tmp_path, capsys, setting, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\nseed = 3\n{setting}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"line 3: {key}"):
        load_run_config(cfg)
    assert dispatch(["stem", "--config", str(cfg), *AFFIX_FLAGS, "vdalzb"]) == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "population_size = 2\nelitism_count = 0\n",
        "elitism_count = 0\npopulation_size = 2\n",
        "elitism_count = 25\npopulation_size = 30\n",
        "population_size = 30\nelitism_count = 25\n",
    ],
    ids=["small-first", "small-last", "large-first", "large-last"],
)
def test_config_file_pairing_valid_as_a_whole_loads(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    config = load_run_config(cfg)
    assert (config.population_size, config.elitism_count) in {(2, 0), (30, 25)}
    assert dispatch(["stem", "--config", str(cfg), *AFFIX_FLAGS, "vdalzb"]) == 0
    assert capsys.readouterr().out.startswith("vdalzb\tvdal")


def test_config_file_two_bad_values_name_the_failing_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_stem = 0\nrho = nan\n", encoding="utf-8")
    # rho is checked first; the bad min_stem must not hide its line
    with pytest.raises(ConfigError, match="line 2: rho"):
        load_run_config(cfg)


def test_config_file_pairing_a_flag_resolves(tmp_path, encoded_corpus, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("population_size = 2\n", encoding="utf-8")
    # the default elitism_count (2) needs a larger population
    with pytest.raises(ConfigError, match="line 1: elitism_count"):
        load_run_config(cfg)
    assert load_run_config(cfg, {"elitism_count": 0}).population_size == 2
    code = dispatch(
        [
            "ga-search", str(encoded_corpus), "--config", str(cfg), "--elitism", "0",
            "--generations", "1", "--folds", "2", "--max-iterations", "3",
            "--out", str(tmp_path / "best.txt"), "--history", str(tmp_path / "h.csv"),
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_ga_search_needs_two_folds(tmp_path, encoded_corpus, capsys):
    code = dispatch(
        [
            "ga-search", str(encoded_corpus), "--folds", "1",
            "--out", str(tmp_path / "best.txt"), "--history", str(tmp_path / "h.csv"),
        ]
    )
    assert code == 1
    assert "folds" in capsys.readouterr().err


def test_fixtures_regenerate_byte_identical(tmp_path, capsys):
    make_fixtures.main(tmp_path)

    def files(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    assert files(tmp_path) == files(DATA)
