"""Genetic search over feature-gene subsets.

Chromosomes are bit vectors over the gene catalogue.  Fitness is the mean
span F-measure of k-fold cross-validated CRF training runs, so it is fully
deterministic; all randomness flows from the master seed through per-purpose
generators, one per (generation, offspring slot), which keeps runs
reproducible bit for bit no matter how fitness evaluations are scheduled.
A search fits each fitness evaluation's folds on a pool of worker processes,
one per fold up to the CPUs it may use, and queues the next chromosome's
folds while it collects the current one's, so a worker that finishes early
starts on them; its outputs are byte-identical at any number of workers.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence

import numpy as np

from .crf import TrainConfig, _start_train_and_decode, train_and_decode
from .errors import InputError, ParseError, check_int
from .evaluation import score
from .features import Sentence
from .stemmer import content_lines
from .templates import GeneCatalogue, chromosome_to_template

if TYPE_CHECKING:
    from concurrent.futures import Executor

_INIT_STREAM = 0
_OFFSPRING_STREAM = 1
_SPLIT_STREAM = 2


def _derived_rng(seed: int, *path: int) -> np.random.Generator:
    entropy = seed & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=tuple(path)))


@dataclass(frozen=True)
class Chromosome:
    bits: tuple[int, ...]
    fitness: float | None = None

    def __post_init__(self) -> None:
        if not self.bits:
            raise InputError("chromosome must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise InputError("chromosome bits must be 0 or 1")


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 20
    crossover_rate: float = 0.8
    mutation_rate: float | None = None  # None: 1/length per bit
    elitism_count: int = 2
    max_generations: int = 50
    stagnation_generations: int = 5
    folds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "population_size", "elitism_count", "max_generations",
            "stagnation_generations", "folds", "seed",
        ):
            check_int(getattr(self, name), name)
        if self.population_size < 2:
            raise InputError("population_size must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise InputError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise InputError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elitism_count < self.population_size:
            raise InputError("elitism_count must be in [0, population_size)")
        if self.max_generations < 1:
            raise InputError("max_generations must be >= 1")
        if self.stagnation_generations < 1:
            raise InputError("stagnation_generations must be >= 1")
        if self.folds < 2:  # one fold would leave nothing to train on
            raise InputError(f"folds must be >= 2, got {self.folds}")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int  # 1-based
    best_fitness: float
    mean_fitness: float
    best_bits: tuple[int, ...]


@dataclass(frozen=True)
class GaResult:
    best: Chromosome
    history: tuple[GenerationRecord, ...]


def split_folds(
    corpus: Sequence[Sentence], k: int, seed: int
) -> list[list[Sentence]]:
    """Deterministic k-way split balanced by token count: seeded shuffle,
    then longest sentence first into the currently lightest fold."""
    sentences = list(corpus)
    check_int(k, "fold count")
    check_int(seed, "seed")
    if k < 1:
        raise InputError(f"fold count must be >= 1, got {k}")
    if len(sentences) < k:
        raise InputError(f"cannot split {len(sentences)} sentences into {k} folds")
    order = np.arange(len(sentences))
    _derived_rng(seed, _SPLIT_STREAM).shuffle(order)
    by_size = sorted(order.tolist(), key=lambda i: -len(sentences[i]))
    assigned: list[list[int]] = [[] for _ in range(k)]
    loads = [0] * k
    for i in by_size:
        j = loads.index(min(loads))  # ties go to the lowest fold index
        assigned[j].append(i)
        loads[j] += len(sentences[i])
    return [[sentences[i] for i in sorted(fold)] for fold in assigned]


def _partitions(folds: Sequence[Sequence[Sentence]], corpus: Sequence[Sentence]) -> bool:
    """Whether the folds hold each sentence of the corpus as often as it does.
    Folds that split_folds cut hold the corpus's own objects, which settles
    it without hashing a token."""
    pooled = [s for fold in folds for s in fold]
    if Counter(map(id, pooled)) == Counter(map(id, corpus)):
        return True
    return Counter(map(tuple, pooled)) == Counter(map(tuple, corpus))


def evaluate_fitness(
    bits: Sequence[int],
    corpus: Sequence[Sentence],
    catalogue: GeneCatalogue,
    folds: Sequence[Sequence[Sentence]],
    train_config: TrainConfig,
    *,
    started: Callable[[], list[list[list[str]]]] | None = None,
) -> float:
    """Mean span F over k held-out folds; the all-zero chromosome is 0.0
    without any training.  started, when given, is the collector that
    crf._start_train_and_decode returned for these bits' template, folds
    and config, and its labels are scored in place of a new
    cross-validation: run_ga starts the next chromosome's fits before it
    collects this one's."""
    template = chromosome_to_template(bits, catalogue)  # checks the length
    if not any(bits):
        return 0.0
    if not _partitions(folds, corpus):
        raise InputError("folds must partition the corpus")
    decoded = started() if started else train_and_decode(folds, template, train_config)
    fold_scores = [
        score([[record.label for record in s] for s in fold], predicted, mode="span").f_measure
        for fold, predicted in zip(folds, decoded)
    ]
    return float(sum(fold_scores) / len(fold_scores))


def initialize_population(length: int, config: GaConfig) -> list[Chromosome]:
    """Uniform random bit vectors; all-zero draws are redrawn."""
    if length < 1:
        raise InputError("chromosome length must be >= 1")
    rng = _derived_rng(config.seed, _INIT_STREAM)
    population = []
    while len(population) < config.population_size:
        bits = tuple(int(b) for b in rng.integers(0, 2, size=length))
        if not any(bits):
            continue
        population.append(Chromosome(bits=bits))
    return population


def select_parent(pool: Sequence[Chromosome], rng: np.random.Generator) -> Chromosome:
    """Tournament of two uniform draws (with replacement); ties keep the
    first draw."""
    if not pool:
        raise InputError("selection pool is empty")
    if any(c.fitness is None for c in pool):
        raise InputError("selection requires every fitness to be set")
    first, second = (int(i) for i in rng.integers(0, len(pool), size=2))
    return pool[first] if pool[first].fitness >= pool[second].fitness else pool[second]


def crossover(
    a: Chromosome, b: Chromosome, rng: np.random.Generator, rate: float = GaConfig.crossover_rate
) -> tuple[Chromosome, Chromosome]:
    """Single-point tail swap with probability rate, else copies. Fitness is
    cleared on the offspring."""
    if len(a.bits) != len(b.bits):
        raise InputError("parents must have equal length")
    length = len(a.bits)
    crossed = rng.random() < rate
    if crossed and length > 1:
        point = int(rng.integers(1, length))
        first = a.bits[:point] + b.bits[point:]
        second = b.bits[:point] + a.bits[point:]
    else:
        first, second = a.bits, b.bits
    return Chromosome(bits=first), Chromosome(bits=second)


def mutate(
    c: Chromosome, rng: np.random.Generator, rate: float | None = None
) -> Chromosome:
    """Independent per-bit flips; an all-zero result gets one random bit set
    so no chromosome degenerates to the empty feature set."""
    length = len(c.bits)
    p = 1.0 / length if rate is None else rate
    flips = rng.random(length) < p
    bits = tuple(int(b) ^ int(f) for b, f in zip(c.bits, flips))
    if not any(bits):
        lit = int(rng.integers(0, length))
        bits = tuple(1 if i == lit else 0 for i in range(length))
    return Chromosome(bits=bits)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _fold_pool(workers: int) -> Iterator[Executor | None]:
    """A pool of worker processes, forked from this one at its first task and
    shut down and joined on exit, with the tasks not yet started cancelled;
    None, so that the folds are fitted here, for one worker or where fork
    is missing.  The pool modules are imported here, so that no other
    command loads them."""
    import multiprocessing

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:  # a search that raises may leave the chromosome ahead's folds queued
        pool.shutdown(cancel_futures=True)


def _raise(error: Exception) -> NoReturn:
    raise error


def run_ga(
    corpus: Sequence[Sentence],
    catalogue: GeneCatalogue,
    config: GaConfig,
    train_config: TrainConfig,
) -> GaResult:
    """Generational loop with elitism, fitness memoization by bit pattern,
    and early stop once the best fitness has stayed the same in each of the
    last stagnation_generations generations.

    Each generation's distinct chromosomes that the memo lacks go through
    evaluate_fitness once each, in population order.  Their folds are
    fitted on min(folds, usable CPUs) worker processes, none of which
    outlives the search, one chromosome ahead: the next chromosome is
    compiled and its folds queued before this one's are collected, so a
    worker that finishes early does not idle.  What starting a chromosome
    raises is raised by its own evaluation, so the first to fail in
    population order raises.  Without a pool the same loop fits each
    chromosome as it is collected; the outputs are byte-identical at any
    number of workers."""
    folds = split_folds(corpus, config.folds, config.seed)
    memo: dict[tuple[int, ...], float] = {}
    population = initialize_population(len(catalogue), config)
    history: list[GenerationRecord] = []

    with _fold_pool(min(config.folds, _usable_cpus())) as fold_pool:

        def start(bits: tuple[int, ...]) -> Callable[[], list[list[list[str]]]]:
            try:
                template = chromosome_to_template(bits, catalogue)
                return _start_train_and_decode(folds, template, train_config, pool=fold_pool)
            except Exception as error:  # raised in population order, by its own evaluation
                return functools.partial(_raise, error)

        for generation in range(config.max_generations):
            todo = list(dict.fromkeys(c.bits for c in population if c.bits not in memo))
            started = start(todo[0]) if todo else None
            for i, bits in enumerate(todo):
                ahead = start(todo[i + 1]) if i + 1 < len(todo) else None
                memo[bits] = evaluate_fitness(
                    bits, corpus, catalogue, folds, train_config, started=started
                )
                started = ahead
            pool = [replace(c, fitness=memo[c.bits]) for c in population]
            best = max(pool, key=lambda c: c.fitness)  # the first of equal fitness
            mean = float(sum(c.fitness for c in pool) / len(pool))
            history.append(
                GenerationRecord(
                    generation=generation + 1,
                    best_fitness=best.fitness,
                    mean_fitness=mean,
                    best_bits=best.bits,
                )
            )

            window = config.stagnation_generations
            # every best in the window, not just its ends: without elitism the
            # best can drop and come back
            if len(history) > window and len({r.best_fitness for r in history[-1 - window:]}) == 1:
                break
            if generation + 1 == config.max_generations:
                break

            ranked = sorted(pool, key=lambda c: -c.fitness)  # stable: ties keep pool order
            next_population: list[Chromosome] = list(ranked[: config.elitism_count])
            slot = 0
            while len(next_population) < config.population_size:
                rng = _derived_rng(config.seed, _OFFSPRING_STREAM, generation, slot)
                slot += 1
                parent_a = select_parent(pool, rng)
                parent_b = select_parent(pool, rng)
                first, second = crossover(parent_a, parent_b, rng, config.crossover_rate)
                next_population.append(mutate(first, rng, config.mutation_rate))
                if len(next_population) < config.population_size:
                    next_population.append(mutate(second, rng, config.mutation_rate))
            population = next_population

    top = max(history, key=lambda r: r.best_fitness)  # the first generation to reach it
    return GaResult(
        best=Chromosome(bits=top.best_bits, fitness=top.best_fitness), history=tuple(history)
    )


def history_to_csv(history: Sequence[GenerationRecord]) -> str:
    lines = ["generation,best_fitness,mean_fitness,best_bits"]
    for record in history:
        bits = "".join(str(b) for b in record.best_bits)
        lines.append(
            f"{record.generation},{record.best_fitness!r},{record.mean_fitness!r},{bits}"
        )
    return "\n".join(lines) + "\n"


def history_from_csv(text: str) -> list[GenerationRecord]:
    rows = content_lines(text)
    if next(rows, None) != (1, "generation,best_fitness,mean_fitness,best_bits"):
        raise ParseError("missing history header", line=1)
    records = []
    for lineno, row in rows:
        parts = row.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
        try:
            generation = int(parts[0])
            best = float(parts[1])
            mean = float(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad history row: {exc}", line=lineno) from exc
        if not (math.isfinite(best) and math.isfinite(mean)):
            raise ParseError("fitness values must be finite", line=lineno)
        if not parts[3] or set(parts[3]) - {"0", "1"}:
            raise ParseError(
                f"best_bits {parts[3]!r} is not a string of 0s and 1s", line=lineno
            )
        if generation != len(records) + 1:
            raise ParseError(
                f"expected generation {len(records) + 1}, got {generation}", line=lineno
            )
        bits = tuple(int(ch) for ch in parts[3])
        records.append(
            GenerationRecord(
                generation=generation, best_fitness=best, mean_fitness=mean, best_bits=bits
            )
        )
    return records
