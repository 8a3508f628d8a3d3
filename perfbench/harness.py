"""Workloads, output checks and metrics of the mwetag benchmark.

Each workload runs its operation through ``mwetag.cli.dispatch`` in this
process, in a closed loop with one client: the next operation starts only
after the previous one returned, and only while it is expected to end within
the time budget.  Workloads with short operations run one untimed warm-up
operation first.  End-to-end metrics come from untraced operations; a traced
run adds a second phase whose operations run with every layer's public
functions wrapped (see ``tracing.py``) and reports per-layer figures per
operation.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mwetag
from mwetag import cli, ga
from mwetag.corpus import load_model, read_column_file
from mwetag.crf import TrainConfig
from mwetag.ga import evaluate_fitness, split_folds
from mwetag.templates import default_catalogue

from . import generators, reference
from .tracing import Tracer, counting, installed, span_totals

PACKAGED_DATA = Path(mwetag.__file__).parent / "data"

# Seven unigram macros plus label bigrams: word, stem, outermost suffix,
# suffix count, POS at 0 and -1, and the salutation flag.
TEMPLATE = (
    "U00:%x[0,0]\nU01:%x[0,1]\nU02:%x[0,2]\nU03:%x[0,13]\n"
    "U04:%x[0,21]\nU05:%x[-1,21]\nU06:%x[0,17]\nB\n"
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and run settings; ``FULL`` is the benchmark, ``TINY``
    exists for the benchmark's own smoke tests."""

    ga_sentences: int = 200
    ga_population: int = 12
    ga_generations: int = 1
    ga_folds: int = 3
    ga_iterations: int = 40
    tag_train_sentences: int = 300
    tag_heldout_sentences: int = 1000
    tag_iterations: int = 30
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(
    ga_sentences=30,
    ga_population=4,
    ga_generations=2,
    ga_iterations=15,
    tag_train_sentences=40,
    tag_heldout_sentences=20,
    tag_iterations=10,
    setup_repeats=1,
)


class OpFailed(Exception):
    pass


@dataclass
class Outcome:
    """One operation: wall seconds, work units done, digests of every output
    file, seconds per command when it runs several, and other counts."""

    seconds: float
    work: float
    digests: dict[str, str]
    stages: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(tracer: Tracer | None, *argv: str) -> float:
    """One in-process CLI call with its stdout captured; returns seconds."""
    name = f"cli.{argv[0]}"
    captured = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(captured), tracer.span(name) if tracer else nullcontext():
        code = cli.dispatch(list(argv))
    elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"mwetag {argv[0]} exited with {code}")
    return elapsed


# --- workloads ---------------------------------------------------------------


class GaRecovery:
    """``ga-search`` on the criterion-6 recovery corpus."""

    name = "ga-recovery"
    why = (
        "the paper's GA search: 36 small cross-validated CRF fits per run of ga-search; "
        "compile, interning, gradient ascent and CV decoding dominate, stemming and tagging idle"
    )
    rate = "fitness_evals_per_s"
    warmup = 0  # one operation is 20-25 s; a warm-up would halve the timed ones

    def setup(self, work: Path, seed: int, sizes: Sizes) -> dict:
        raw = generators.recovery_raw(sizes.ga_sentences, seed)
        generators.write_raw(raw, work / "raw.txt")
        generators.write_lines(generators.RECOVERY_PREFIXES, work / "prefixes.txt")
        generators.write_lines(tuple(generators.RECOVERY_SUFFIXES.values()), work / "suffixes.txt")
        generators.write_lines((), work / "empty.txt")
        run_cli(
            None, "encode", str(work / "raw.txt"),
            "--prefixes", str(work / "prefixes.txt"),
            "--suffixes", str(work / "suffixes.txt"),
            "--gazetteer-salutations", str(work / "empty.txt"),
            "--gazetteer-followups", str(work / "empty.txt"),
            "--out", str(work / "corpus.col"),
        )
        return {"work": work, "sizes": sizes}

    def op(self, state: dict, tracer: Tracer | None) -> Outcome:
        work, sizes = state["work"], state["sizes"]
        with counting(ga, "evaluate_fitness") as evals:
            seconds = run_cli(
                tracer, "ga-search", str(work / "corpus.col"),
                "--out", str(work / "best.tpl"),
                "--history", str(work / "history.csv"),
                "--population", str(sizes.ga_population),
                "--generations", str(sizes.ga_generations),
                "--folds", str(sizes.ga_folds),
                "--max-iterations", str(sizes.ga_iterations),
                "--seed", "0",
            )
        history = (work / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
        slots = len(history) * sizes.ga_population
        return Outcome(
            seconds=seconds,
            work=evals[0],
            digests={f: digest(work / f) for f in ("best.tpl", "history.csv")},
            counts={"slots": slots},
        )

    def check(self, state: dict) -> tuple[list[str], dict[str, float]]:
        """The history is well formed, the template is the best row's genes,
        and the reported best fitness is what evaluating those genes gives."""
        work, sizes = state["work"], state["sizes"]
        errors = []
        lines = (work / "history.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "generation,best_fitness,mean_fitness,best_bits":
            return ["history header is wrong"], {}
        rows = [line.split(",") for line in lines[1:]]
        if not 1 <= len(rows) <= sizes.ga_generations:
            errors.append(f"history has {len(rows)} generations")
        best = [float(r[1]) for r in rows]
        if best != sorted(best):
            errors.append("best fitness decreased between generations")
        top = max(best)
        bits = tuple(int(b) for b in next(r[3] for r in rows if float(r[1]) == top))
        catalogue = default_catalogue()
        expected = "".join(
            f"{g.macro.id}:%x[{g.macro.refs[0][0]},{g.macro.refs[0][1]}]\n"
            for g, bit in zip(catalogue.genes, bits)
            if bit
        ) + "B\n"
        if (work / "best.tpl").read_text(encoding="utf-8") != expected:
            errors.append("best template does not match the best history row")
        corpus = list(read_column_file(work / "corpus.col"))
        folds = split_folds(corpus, sizes.ga_folds, 0)
        again = evaluate_fitness(
            bits, corpus, catalogue, folds, TrainConfig(max_iterations=sizes.ga_iterations)
        )
        if again != top:
            errors.append(f"best fitness {top!r} but re-evaluation gives {again!r}")
        if not top > 0.0:
            errors.append("best fitness is zero")
        return errors, {"span_f": top}


class EncodeTag:
    """``encode`` raw text, ``tag`` it with a model trained in set-up, then
    ``eval`` against the gold labels."""

    name = "encode-tag"
    why = (
        "inference side: stemmer, 22-column encoder, dict-based lattice and Viterbi, "
        "corpus I/O and model loading; no training in the timed region"
    )
    rate = "tokens_per_s"
    warmup = 1  # the first operation pays for first-touch allocation

    def setup(self, work: Path, seed: int, sizes: Sizes) -> dict:
        words = generators.BengaliWords(PACKAGED_DATA)
        train_lengths = generators.short_lengths(sizes.tag_train_sentences, seed + 1_000_003)
        raw = generators.bengali_raw(words, train_lengths, seed + 1_000_003)
        generators.write_raw(raw, work / "train_raw.txt")
        held_lengths = generators.short_lengths(sizes.tag_heldout_sentences, seed)
        held_raw = generators.bengali_raw(words, held_lengths, seed)
        generators.write_raw(held_raw, work / "raw.txt")
        (work / "template.txt").write_text(TEMPLATE, encoding="utf-8")
        run_cli(None, "encode", str(work / "train_raw.txt"), "--out", str(work / "train.col"))
        run_cli(
            None, "train", str(work / "train.col"),
            "--template", str(work / "template.txt"),
            "--model", str(work / "model.txt"),
            "--max-iterations", str(sizes.tag_iterations),
        )
        return {
            "work": work,
            "sizes": sizes,
            "tokens": sum(held_lengths),
            "model_bytes": (work / "model.txt").stat().st_size,
            "raw": held_raw,
        }

    def op(self, state: dict, tracer: Tracer | None) -> Outcome:
        work = state["work"]
        encode = run_cli(tracer, "encode", str(work / "raw.txt"), "--out", str(work / "held.col"))
        tag = run_cli(
            tracer, "tag", str(work / "held.col"),
            "--model", str(work / "model.txt"), "--out", str(work / "tagged.col"),
        )
        evaluate = run_cli(
            tracer, "eval", str(work / "held.col"), str(work / "tagged.col"),
            "--out", str(work / "eval.csv"),
        )
        return Outcome(
            seconds=encode + tag + evaluate,
            stages={"encode": encode, "tag": tag, "eval": evaluate},
            work=state["tokens"],
            digests={f: digest(work / f) for f in ("held.col", "tagged.col", "eval.csv")},
            counts={"encoded_tokens": state["tokens"], "model_bytes": state["model_bytes"]},
        )

    def check(self, state: dict) -> tuple[list[str], dict[str, float]]:
        """Encoded rows agree with the raw text and the packaged lists, every
        tagged sentence is a best path under the model, and the eval report's
        F is the reference scorer's."""
        work = state["work"]
        errors = []
        encoded = reference.read_columns(work / "held.col")
        tagged = reference.read_columns(work / "tagged.col")
        errors += check_encoding(state["raw"], encoded)
        model = load_model(work / "model.txt")
        if len(tagged) != len(encoded):
            return errors + ["tagged file has a different sentence count"], {}
        for n, (gold_rows, tagged_rows) in enumerate(zip(encoded, tagged)):
            if [r[:-1] for r in gold_rows] != [r[:-1] for r in tagged_rows]:
                errors.append(f"sentence {n}: tagged feature columns differ")
            elif not reference.is_best_path(model, gold_rows, [r[-1] for r in tagged_rows]):
                errors.append(f"sentence {n}: tagged labels are not a best path")
            if len(errors) > 5:
                break
        f = reference.span_f(
            [[r[-1] for r in s] for s in encoded], [[r[-1] for r in s] for s in tagged]
        )
        report = (work / "eval.csv").read_text(encoding="utf-8").splitlines()
        if report[1].split(",")[-1] != f"{f:.2f}":
            errors.append(f"eval reports F {report[1].split(',')[-1]}, reference gives {f:.2f}")
        if not f > 0.0:
            errors.append("tagger finds no gold span")
        return errors, {"span_f": f}


def check_encoding(raw: generators.Raw, encoded: list[reference.Rows]) -> list[str]:
    """Word, POS and label pass through; the word starts with its first
    stripped prefix and ends with stem + suffixes; the digit and gazetteer
    flags follow the raw words."""
    salutations = set(generators.read_affix_list(PACKAGED_DATA / "salutations.txt"))
    followups = set(generators.read_affix_list(PACKAGED_DATA / "followups.txt"))
    if len(raw) != len(encoded) or any(len(a) != len(b) for a, b in zip(raw, encoded)):
        return ["encoded file does not match the raw sentence lengths"]
    errors = []
    for n, (sentence, rows) in enumerate(zip(raw, encoded)):
        words = [w for w, _, _ in sentence]
        for t, ((word, pos, label), row) in enumerate(zip(sentence, rows)):
            count = int(row[13])
            suffixes = row[2 : 2 + count]
            prefix = row[14] if row[15] == "1" else ""
            expected_flags = [
                str(int(any(ch.isdecimal() for ch in word))),
                str(int(t > 0 and words[t - 1] in salutations)),
                str(int(t + 1 < len(words) and words[t + 1] in followups)),
            ]
            if (
                len(row) != 23
                or (row[0], row[21], row[22]) != (word, pos, label)
                or not word.startswith(prefix)
                or (count < 10 and not word.endswith(row[1] + "".join(reversed(suffixes))))
                or [row[16], row[17], row[18]] != expected_flags
            ):
                errors.append(f"sentence {n}, token {t}: encoded row {row} disagrees with {word!r}")
                if len(errors) > 5:
                    return errors
    return errors


WORKLOADS = {w.name: w for w in (GaRecovery(), EncodeTag())}

# --- metrics -----------------------------------------------------------------

# (name, unit, better, bound): bound is the share of the parent's median
# by which a change may worsen the metric
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("span_f", "F%", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
)

PER_LAYER_SPANS = (
    ("templates.expand_macros", ("calls", "s")),
    ("crf.train_and_decode", ("calls", "s", "self_s")),
    ("crf.build_lattice", ("calls", "s", "self_s")),
    ("crf.viterbi_decode", ("calls", "s", "self_s")),
    ("crf.decode_lattice", ("calls", "s")),
    ("stemmer.stem", ("calls", "s")),
    ("features.encode_corpus", ("calls", "s")),
    ("ga.evaluate_fitness", ("calls", "s")),
    ("evaluation.score", ("calls", "s")),
    ("corpus.read_raw", ("s",)),
    ("corpus.read_column_file", ("s",)),
    ("corpus.write_column_file", ("s",)),
    ("corpus.load_model", ("s",)),
    ("cli.encode", ("self_s",)),
    ("cli.tag", ("self_s",)),
    ("cli.eval", ("self_s",)),
    ("cli.ga-search", ("self_s",)),
)
PER_LAYER_COUNTS = (
    ("features.encode_corpus.tokens", "count", "higher"),
    ("ga.slots_scored", "count", "higher"),
    ("ga.memo_hit_ratio", "ratio", "higher"),
    ("corpus.model_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    out = []
    for name, stats in PER_LAYER_SPANS:
        for stat in stats:
            out.append((f"{name}.{stat}", "count" if stat == "calls" else "s", "lower"))
    return out + list(PER_LAYER_COUNTS)


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 55,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_names()
        ],
    }


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value).  None below twenty samples, where that percentile
    would fall under the median."""
    n = len(values)
    if n < 20:
        return None
    k = n - 10  # k samples at or below, ten above
    return 100.0 * k / n, sorted(values)[k - 1]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --- the run -----------------------------------------------------------------


def run_phase(
    workload, state: dict, budget: float, tracer: Tracer | None, warmup: int = 0
) -> tuple[list, list]:
    """Closed loop: ``warmup`` untimed operations, then timed ones.  Another
    timed operation starts only while the time spent so far plus the median
    operation time stays within ``budget`` seconds, so the run ends within
    its budget; at least one timed operation always runs.  Returns the
    warm-up and the timed results."""

    def one() -> Outcome | str:
        if tracer is not None:
            tracer.run_id += 1
        try:
            return workload.op(state, tracer)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return "error"

    warm = [one() for _ in range(warmup)]
    timed: list[Outcome | str] = []
    durations: list[float] = []
    started = time.perf_counter()
    while not timed or time.perf_counter() - started + statistics.median(durations) <= budget:
        op_start = time.perf_counter()
        timed.append(one())
        durations.append(time.perf_counter() - op_start)
    return warm, timed


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    sizes: Sizes = FULL,
    report=print,
) -> dict:
    """Set up, run the closed loop, check outputs, and return the result
    object: ``correct``, ``attempted``, ``failed`` and ``metrics``."""
    workload = WORKLOADS[workload_name]
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    setup_times = []
    for _ in range(sizes.setup_repeats):
        start = time.perf_counter()
        state = workload.setup(inputs, seed, sizes)
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer() if trace else None
    warm, plain = run_phase(workload, state, seconds / 2 if trace else seconds, None, workload.warmup)
    traced = []
    if trace:
        with installed(tracer):
            traced = run_phase(workload, state, seconds / 2, tracer)[1]

    done = [o for o in warm + plain + traced if isinstance(o, Outcome)]
    errors, quality = ["no operation completed"], {}
    if done:
        try:
            errors, quality = workload.check(state)
        except Exception as exc:  # malformed output fails the check, not the run
            errors = [f"checking the outputs raised {exc!r}"]
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    expected = done[0].digests if done else None
    failed = sum(
        1 for o in warm + plain + traced
        if not isinstance(o, Outcome) or errors or o.digests != expected
    )
    attempted = len(warm) + len(plain) + len(traced)

    ok = [o for o in plain if isinstance(o, Outcome)]
    times = [o.seconds for o in ok]
    metrics = {}
    if not trace:
        values = {
            "run_s": statistics.median(times) if times else math.nan,
            "work_per_s": statistics.median(o.work / o.seconds for o in ok) if ok else math.nan,
            "peak_rss_mb": peak_rss_mb(),
            "span_f": quality.get("span_f", math.nan),
            "setup_s": statistics.median(setup_times),
        }
        for name, unit, _, _ in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        traced_ok = [o for o in traced if isinstance(o, Outcome)]
        metrics = layer_metrics(tracer, traced_ok, times)
        tracer.write(
            work / "trace.jsonl",
            {"workload": workload_name, "seed": seed, "env": environment()},
        )

    describe(report, workload, seed, setup_times, ok, quality, attempted, failed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(tracer: Tracer, traced: list[Outcome], plain_times: list[float]) -> dict:
    """Per-layer figures per traced operation."""
    n_ops = max(len(traced), 1)
    totals = span_totals(tracer.spans())
    values: dict[str, float] = {}
    for name, stats in PER_LAYER_SPANS:
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in stats:
            values[f"{name}.{stat}"] = entry[stat] / n_ops
    evals = totals.get("ga.evaluate_fitness", {"calls": 0})["calls"]
    slots = sum(o.counts.get("slots", 0) for o in traced)
    traced_s = statistics.median(o.seconds for o in traced) if traced else math.nan
    values.update(
        {
            "features.encode_corpus.tokens": sum(o.counts.get("encoded_tokens", 0) for o in traced) / n_ops,
            "ga.slots_scored": slots / n_ops,
            "ga.memo_hit_ratio": 1.0 - evals / slots if slots else 0.0,
            "corpus.model_bytes": statistics.median(o.counts.get("model_bytes", 0) for o in traced) if traced else 0,
            "trace.spans": len(tracer) / n_ops,
            "trace.run_s": traced_s,
            "trace.overhead_s": traced_s - statistics.median(plain_times) if plain_times else math.nan,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_names()}


def describe(report, workload, seed, setup_times, ok, quality, attempted, failed) -> None:
    """Human-readable lines: every metric by name and unit, the tail of each
    timing, and the environment."""
    report(f"workload {workload.name}  seed {seed}  env {environment()}")
    report(
        f"  setup_s           median {statistics.median(setup_times):.4f} s  "
        f"(n={len(setup_times)}: {', '.join(f'{t:.4f}' for t in setup_times)})"
    )
    series = {"run_s": [o.seconds for o in ok]}
    for stage in ok[0].stages if ok else ():
        series[f"{stage}_s"] = [o.stages[stage] for o in ok]
    for name, values in series.items():
        t = tail(values)
        tail_text = f"p{t[0]:.0f} {t[1]:.4f} s" if t else "tail n/a (<20 samples)"
        report(f"  {name:<17} median {statistics.median(values):.4f} s  {tail_text}  (n={len(values)})")
    if ok:
        rate = statistics.median(o.work / o.seconds for o in ok)
        report(f"  work_per_s        {rate:.4f} 1/s  (= {workload.rate}, {ok[0].work:g} per op)")
    if workload.name == "encode-tag" and ok:
        for stage in ("encode", "tag"):
            r = statistics.median(o.work / o.stages[stage] for o in ok)
            report(f"  {stage}_tokens_per_s {r:.1f} 1/s")
    for name, value in quality.items():
        report(f"  {name:<17} {value!r}")
    report(f"  peak_rss_mb       {peak_rss_mb():.1f} MB")
    report(f"  fail_ratio        {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
