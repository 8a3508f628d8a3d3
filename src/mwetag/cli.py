"""Command-line interface.

Exit codes: 0 on success, 1 on data/configuration errors, 2 on usage errors.
Settings resolve once per run, in three layers: the library's defaults,
then a --config file, then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import dataclass, fields, replace
from importlib.resources import files as resource_files
from pathlib import Path
from typing import IO, Sequence, get_args, get_type_hints

from .corpus import (
    Corpus,
    atomic_write_text,
    load_model,
    read_column_file,
    read_raw,
    save_model,
    write_column_file,
)
# viterbi_decode stays bound here although no command calls it: the
# benchmark's tracer (perfbench/tracing.py) wraps mwetag.cli.viterbi_decode.
from .crf import TrainConfig, decode_sentences, train, training_reports, viterbi_decode
from .errors import ConfigError, InputError, MweTagError
from .evaluation import DEFAULT_MODE, MODES, render_csv, render_text, score
from .features import TokenRecord, encode_corpus, load_gazetteer
from .ga import GaConfig, history_from_csv, history_to_csv, run_ga
from .stemmer import (
    MIN_STEM, check_entry, check_min_stem, content_lines, load_affix_lexicon, read_text,
    split_lines, stem,
)
from .templates import (
    chromosome_to_template,
    default_catalogue,
    parse_template,
    serialize_template,
)


@dataclass(frozen=True)
class RunConfig:
    prefixes: str | None = None
    suffixes: str | None = None
    gazetteer_salutations: str | None = None
    gazetteer_followups: str | None = None
    template: str | None = None
    model: str | None = None
    out: str | None = None
    history: str | None = None
    mode: str = DEFAULT_MODE
    seed: int = GaConfig.seed
    min_stem: int = MIN_STEM
    folds: int = GaConfig.folds
    max_generations: int = GaConfig.max_generations
    population_size: int = GaConfig.population_size
    crossover_rate: float = GaConfig.crossover_rate
    mutation_rate: float | None = GaConfig.mutation_rate
    elitism_count: int = GaConfig.elitism_count
    stagnation_generations: int = GaConfig.stagnation_generations
    rho: float = TrainConfig.rho
    max_iterations: int = TrainConfig.max_iterations
    gradient_tolerance: float = TrainConfig.gradient_tolerance


def _setting_type(hint: object) -> type:
    """The value type of a RunConfig field: T for both ``T`` and ``T | None``."""
    return next((t for t in get_args(hint) if t is not type(None)), hint)


_SETTING_TYPES = {
    name: _setting_type(hint) for name, hint in get_type_hints(RunConfig).items()
}


def _settings_for(cls, config: RunConfig):
    """Build a TrainConfig or GaConfig from the RunConfig fields it shares."""
    return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})


def _check_settings(config: RunConfig) -> InputError | None:
    """The library's own checks on every setting; the first failure, if any."""
    try:
        _settings_for(TrainConfig, config)
        _settings_for(GaConfig, config)
        check_min_stem(config.min_stem)
        if config.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {config.mode!r}")
    except InputError as exc:
        return exc
    return None


def load_run_config(
    source: str | Path | IO[str] | None, flags: dict[str, object] | None = None
) -> RunConfig:
    """The defaults, then a flat ``key = value`` file, then flags (setting
    name to value), checked once as a whole by the library's own checks.
    Unknown keys and bad values name their line, and so does a failed check:
    the line of the first file key, in file order, whose reset to its
    default removes the failure."""
    flags = flags or {}
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in content_lines(read_text(source) if source else ""):
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTING_TYPES:
            raise ConfigError(f"unknown setting {key!r}", line=lineno)
        if key in lines:
            raise ConfigError(f"setting {key!r} repeats line {lines[key]}", line=lineno)
        try:
            values[key] = _SETTING_TYPES[key](value)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key!r}", line=lineno) from None
        lines[key] = lineno
    defaults = RunConfig()
    config = replace(defaults, **{**values, **flags})
    error = _check_settings(config)
    if error is None:
        return config
    for key in sorted(values.keys() - flags.keys(), key=lines.__getitem__):
        reset = _check_settings(replace(config, **{key: getattr(defaults, key)}))
        if reset is None or str(reset) != str(error):
            raise ConfigError(str(error), line=lines[key])
    raise error


def _merge_config(args: argparse.Namespace) -> RunConfig:
    flags = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return load_run_config(getattr(args, "config", None), flags)


def _packaged(name: str) -> io.StringIO:
    return io.StringIO((resource_files("mwetag") / "data" / name).read_text("utf-8"))


def _load_lexicon(config: RunConfig):
    prefixes = config.prefixes or _packaged("prefixes_list.txt")
    suffixes = config.suffixes or _packaged("suffixes_list.txt")
    return load_affix_lexicon(prefixes, suffixes)


def _load_gazetteer(config: RunConfig):
    salutations = config.gazetteer_salutations or _packaged("salutations.txt")
    followups = config.gazetteer_followups or _packaged("followups.txt")
    return load_gazetteer(salutations, followups)


def _require(config: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(config, n) is None]
    if missing:
        raise ConfigError(
            "missing required settings: " + ", ".join(f"--{n.replace('_', '-')}" for n in missing)
        )


def _cmd_stem(args: argparse.Namespace, config: RunConfig) -> int:
    lexicon = _load_lexicon(config)
    # a word that is empty or holds whitespace would break the tab-separated rows
    lines = [(w, None) for w in args.words] or [
        (w.strip(), n) for n, w in enumerate(split_lines(read_text(sys.stdin)), 1) if w.strip()
    ]
    words = [check_entry(w, "word", line) for w, line in lines]
    for word in words:
        result = stem(word, lexicon, config.min_stem)
        print(
            "\t".join(
                [
                    result.original,
                    result.stem,
                    "+".join(result.stripped_prefixes) or "-",
                    "+".join(result.stripped_suffixes) or "-",
                ]
            )
        )
    return 0


def _cmd_encode(args: argparse.Namespace, config: RunConfig) -> int:
    _require(config, "out")
    raw = read_raw(args.input)
    encoded = encode_corpus(
        raw, _load_lexicon(config), _load_gazetteer(config), min_stem=config.min_stem
    )
    corpus = Corpus(sentences=tuple(encoded))
    write_column_file(corpus, config.out)
    print(f"encoded {len(corpus)} sentences / {corpus.token_count} tokens -> {config.out}")
    return 0


def _cmd_train(args: argparse.Namespace, config: RunConfig) -> int:
    _require(config, "template", "model")
    corpus = read_column_file(args.data, expect_labels=True)
    template = parse_template(read_text(config.template))
    with training_reports() as reports:
        model = train(list(corpus), template, _settings_for(TrainConfig, config))
    (report,) = reports
    print(
        f"training stopped: {report.stop_reason} after {report.iterations} iterations, "
        f"objective {report.objective!r}, gradient inf-norm {report.gradient_norm:.3g}, "
        f"{report.evaluations} objective evaluations",
        file=sys.stderr,
    )
    save_model(model, config.model)
    print(f"trained on {len(corpus)} sentences, {len(model.weights)} weights -> {config.model}")
    return 0


def _cmd_tag(args: argparse.Namespace, config: RunConfig) -> int:
    _require(config, "model", "out")
    model = load_model(config.model)
    corpus = read_column_file(args.data, expect_labels=False)
    tagged = [  # the read rows' columns, relabelled from LABELS
        tuple(
            TokenRecord._of_clean(record.columns, label)
            for record, label in zip(sentence, labels)
        )
        for sentence, labels in zip(corpus, decode_sentences(model, corpus.sentences))
    ]
    write_column_file(Corpus(sentences=tuple(tagged)), config.out)
    print(f"tagged {len(corpus)} sentences -> {config.out}")
    return 0


def _cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    gold = read_column_file(args.gold, expect_labels=True)
    predicted = read_column_file(args.predicted, expect_labels=True)
    report = score(
        [[r.label for r in s] for s in gold],
        [[r.label for r in s] for s in predicted],
        mode=config.mode,
    )
    print(render_text(report))
    if config.out:
        atomic_write_text(config.out, render_csv(report))
    return 0


def _cmd_ga_search(args: argparse.Namespace, config: RunConfig) -> int:
    _require(config, "out", "history")
    corpus = read_column_file(args.data, expect_labels=True)
    catalogue = default_catalogue()
    result = run_ga(
        list(corpus),
        catalogue,
        _settings_for(GaConfig, config),
        _settings_for(TrainConfig, config),
    )
    best = result.best
    atomic_write_text(
        config.out, serialize_template(chromosome_to_template(best.bits, catalogue))
    )
    atomic_write_text(config.history, history_to_csv(result.history))
    chosen = [g.name for g, bit in zip(catalogue.genes, best.bits) if bit]
    print(f"best fitness {best.fitness:.4f} after {len(result.history)} generations")
    print(f"selected {len(chosen)} genes: {', '.join(chosen)}")
    print(f"template -> {config.out}")
    print(f"history -> {config.history}")
    return 0


def _cmd_report(args: argparse.Namespace, config: RunConfig) -> int:
    history = history_from_csv(read_text(args.history))
    if not history:
        raise ConfigError(f"history file {args.history} has no generations")
    best_values = [record.best_fitness for record in history]
    top = max(best_values)
    first_at = next(r.generation for r in history if r.best_fitness == top)
    print(f"generations: {len(history)}")
    print(f"best fitness:  min {min(best_values):.4f}  max {top:.4f}  final {best_values[-1]:.4f}")
    print(f"max first attained at generation {first_at}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwetag",
        description="Multiword-expression tagging with a CRF and GA-selected features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, *, affixes=False, gazetteers=False, training=False
    ) -> None:
        p.add_argument("--config", help="key = value settings file")
        if affixes:
            p.add_argument("--prefixes", help="prefix list file (default: packaged)")
            p.add_argument("--suffixes", help="suffix list file (default: packaged)")
            p.add_argument("--min-stem", dest="min_stem", type=int)
        if gazetteers:
            p.add_argument("--gazetteer-salutations", dest="gazetteer_salutations")
            p.add_argument("--gazetteer-followups", dest="gazetteer_followups")
        if training:
            p.add_argument("--rho", type=float)
            p.add_argument("--max-iterations", dest="max_iterations", type=int)
            p.add_argument("--tolerance", dest="gradient_tolerance", type=float)

    p = sub.add_parser("stem", help="stem words with the affix lexicon")
    common(p, affixes=True)
    p.add_argument("words", nargs="*", help="words to stem (default: stdin lines)")
    p.set_defaults(func=_cmd_stem)

    p = sub.add_parser("encode", help="expand raw word/pos/label triples into feature columns")
    common(p, affixes=True, gazetteers=True)
    p.add_argument("input", help="raw triples file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train a CRF from a labeled column file")
    common(p, training=True)
    p.add_argument("data", help="labeled column file")
    p.add_argument("--template")
    p.add_argument("--model")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tag", help="label a column file with a trained model")
    common(p)
    p.add_argument("data", help="column file (labels optional, ignored)")
    p.add_argument("--model")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("eval", help="score predicted labels against gold labels")
    common(p)
    p.add_argument("gold", help="gold column file")
    p.add_argument("predicted", help="predicted column file")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", help="also write the report as CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ga-search", help="search feature subsets with the genetic algorithm")
    common(p, training=True)
    p.add_argument("data", help="labeled column file")
    p.add_argument("--out", help="where to write the best template")
    p.add_argument("--history", help="where to write the per-generation history CSV")
    p.add_argument("--folds", type=int)
    p.add_argument("--generations", dest="max_generations", type=int)
    p.add_argument("--population", dest="population_size", type=int)
    p.add_argument("--crossover-rate", dest="crossover_rate", type=float)
    p.add_argument("--mutation-rate", dest="mutation_rate", type=float)
    p.add_argument("--elitism", dest="elitism_count", type=int)
    p.add_argument("--stagnation", dest="stagnation_generations", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_ga_search)

    p = sub.add_parser("report", help="summarize a ga-search history CSV")
    p.add_argument("history", help="history CSV from ga-search")
    p.set_defaults(func=_cmd_report)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args, _merge_config(args))
    except (MweTagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
