"""Genetic search operators and the full loop on fast synthetic corpora."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwetag import crf
from mwetag.crf import TrainConfig, train, viterbi_decode
from mwetag.errors import InputError, ParseError
from mwetag.evaluation import score
from mwetag.features import TokenRecord
from mwetag.ga import (
    Chromosome,
    GaConfig,
    GenerationRecord,
    crossover,
    evaluate_fitness,
    history_from_csv,
    history_to_csv,
    initialize_population,
    mutate,
    run_ga,
    select_parent,
    split_folds,
)
from mwetag.templates import GeneCatalogue, chromosome_to_template, default_catalogue
from tests.conftest import make_record, make_separable_sentences

FAST = TrainConfig(max_iterations=6)


def dummy_sentences(lengths):
    return [tuple(make_record(word=f"s{i}t{t}") for t in range(n))
            for i, n in enumerate(lengths)]


def test_split_folds_equal_sentences():
    data = dummy_sentences([5] * 9)
    folds = split_folds(data, 3, seed=0)
    assert [len(f) for f in folds] == [3, 3, 3]


def test_split_folds_partition():
    data = dummy_sentences([3, 8, 1, 5, 5, 2, 9, 4])
    folds = split_folds(data, 3, seed=4)
    seen = [s for fold in folds for s in fold]
    assert len(seen) == len(data)
    assert {id(s) for s in seen} == {id(s) for s in data}


def test_split_folds_balances_tokens():
    rng = np.random.default_rng(1)
    data = dummy_sentences(rng.integers(1, 40, size=120).tolist())
    folds = split_folds(data, 3, seed=7)
    total = sum(len(s) for s in data)
    for fold in folds:
        weight = sum(len(s) for s in fold)
        assert abs(weight - total / 3) <= 0.02 * total


def test_split_folds_keeps_corpus_order_within_fold():
    data = dummy_sentences([4, 4, 4, 4, 4, 4])
    folds = split_folds(data, 2, seed=3)
    order = {id(s): i for i, s in enumerate(data)}
    for fold in folds:
        indices = [order[id(s)] for s in fold]
        assert indices == sorted(indices)


def test_split_folds_deterministic_per_seed():
    data = dummy_sentences([3, 8, 1, 5, 5, 2, 9, 4, 7, 6])
    one = split_folds(data, 3, seed=11)
    two = split_folds(data, 3, seed=11)
    assert one == two
    other = split_folds(data, 3, seed=12)
    assert other != one or True  # different seed may legitimately coincide


def test_split_folds_single_fold_is_identity():
    data = dummy_sentences([2, 9, 4])
    assert split_folds(data, 1, seed=0) == [list(data)]


def test_split_folds_rejects_bad_k():
    data = dummy_sentences([2, 2])
    with pytest.raises(InputError):
        split_folds(data, 0, seed=0)
    with pytest.raises(InputError):
        split_folds(data, 3, seed=0)


@pytest.mark.parametrize(
    "k, seed, message",
    [
        (2.0, 0, "fold count must be an integer, got 2.0"),
        (True, 0, "fold count must be an integer, got True"),
        (2, 1.5, "seed must be an integer, got 1.5"),
    ],
)
def test_split_folds_refuses_a_count_or_seed_that_is_not_an_integer(k, seed, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        split_folds(dummy_sentences([2, 2, 3]), k, seed)


CATALOGUE = default_catalogue()
POS_ONLY_BITS = tuple(int(i == 35) for i in range(38))


def test_evaluate_fitness_all_zero_chromosome():
    data = make_separable_sentences(6, seed=1)
    folds = split_folds(data, 2, seed=0)
    assert evaluate_fitness((0,) * 38, data, CATALOGUE, folds, FAST) == 0.0


def test_evaluate_fitness_matches_manual_cross_validation():
    data = make_separable_sentences(9, seed=2)
    parts = split_folds(data, 3, seed=5)
    got = evaluate_fitness(POS_ONLY_BITS, data, CATALOGUE, parts, FAST)
    template = chromosome_to_template(POS_ONLY_BITS, CATALOGUE)
    values = []
    for held in range(3):
        train_data = [s for i, part in enumerate(parts) if i != held for s in part]
        model = train(train_data, template, config=FAST)
        gold = [[tok.label for tok in s] for s in parts[held]]
        predicted = [viterbi_decode(model, s) for s in parts[held]]
        values.append(score(gold, predicted, mode="span").f_measure)
    assert got == pytest.approx(sum(values) / 3, abs=1e-12)


def test_evaluate_fitness_compiles_the_corpus_once(monkeypatch):
    """Every fold of a fitness evaluation is a view of one compile."""
    compiles = []

    def counted(template, data):
        compiles.append(len(data))
        return compile_columns(template, data)

    compile_columns = crf._compile_columns
    monkeypatch.setattr(crf, "_compile_columns", counted)
    data = make_separable_sentences(9, seed=2)
    evaluate_fitness(POS_ONLY_BITS, data, CATALOGUE, split_folds(data, 3, seed=5), FAST)
    assert compiles == [9]


def test_evaluate_fitness_separable_data_reaches_100():
    data = make_separable_sentences(24, seed=3)
    folds = split_folds(data, 2, seed=0)
    value = evaluate_fitness(
        POS_ONLY_BITS, data, CATALOGUE, folds, TrainConfig(max_iterations=60)
    )
    assert value == pytest.approx(100.0)


def test_evaluate_fitness_checks_length():
    data = make_separable_sentences(4, seed=4)
    folds = split_folds(data, 2, seed=0)
    for bits in ((1, 0), (0, 0)):  # all-zero bits are checked before the shortcut
        with pytest.raises(InputError):
            evaluate_fitness(bits, data, CATALOGUE, folds, FAST)


def test_evaluate_fitness_checks_fold_partition():
    data = make_separable_sentences(4, seed=4)
    folds = split_folds(data, 2, seed=0)
    with pytest.raises(InputError):
        evaluate_fitness(POS_ONLY_BITS, data, CATALOGUE, folds[:1], FAST)


def test_evaluate_fitness_refuses_folds_that_repeat_sentences():
    """As many sentences as the corpus, but s0 and s1 three times each and
    the other four never: scored, this would read 100.0."""
    data = make_separable_sentences(6, seed=2)
    folds = [[data[0]] * 3, [data[1]] * 3]
    with pytest.raises(InputError, match="^folds must partition the corpus$"):
        evaluate_fitness(POS_ONLY_BITS, data, CATALOGUE, folds, FAST)


def test_evaluate_fitness_takes_folds_of_equal_copies():
    data = make_separable_sentences(6, seed=2)
    copies = [tuple(TokenRecord(r.columns, r.label) for r in s) for s in data]
    folds = [list(copies[:3]), list(copies[3:])]
    assert evaluate_fitness(POS_ONLY_BITS, data, CATALOGUE, folds, FAST) == evaluate_fitness(
        POS_ONLY_BITS, data, CATALOGUE, [data[:3], data[3:]], FAST
    )


def test_initialize_population_properties():
    config = GaConfig(population_size=30, seed=9)
    pop = initialize_population(10, config)
    assert len(pop) == 30
    assert all(len(c.bits) == 10 for c in pop)
    assert all(any(c.bits) for c in pop)
    again = initialize_population(10, config)
    assert [c.bits for c in pop] == [c.bits for c in again]
    other = initialize_population(10, GaConfig(population_size=30, seed=10))
    assert [c.bits for c in pop] != [c.bits for c in other]


def test_chromosome_validation():
    with pytest.raises(InputError):
        Chromosome(bits=())
    with pytest.raises(InputError):
        Chromosome(bits=(0, 2))


def test_select_parent_mirrors_tournament_draws():
    pool = [
        Chromosome(bits=(1, 0, 0), fitness=10.0),
        Chromosome(bits=(0, 1, 0), fitness=30.0),
        Chromosome(bits=(0, 0, 1), fitness=20.0),
        Chromosome(bits=(1, 1, 0), fitness=5.0),
    ]
    for seed in range(25):
        rng = np.random.default_rng(seed)
        winner = select_parent(pool, rng)
        mirror = np.random.default_rng(seed)
        i = int(mirror.integers(0, len(pool)))
        j = int(mirror.integers(0, len(pool)))
        first, second = pool[i], pool[j]
        want = first if first.fitness >= second.fitness else second
        assert winner is want


def test_select_parent_prefers_fitter_distributionally():
    pool = [
        Chromosome(bits=(1, 0), fitness=1.0),
        Chromosome(bits=(0, 1), fitness=99.0),
    ]
    rng = np.random.default_rng(0)
    wins = sum(select_parent(pool, rng).fitness == 99.0 for _ in range(400))
    # the weaker one wins only when drawn twice: expect about 3/4 for the strong
    assert 250 <= wins <= 350


def test_select_parent_requires_fitness():
    with pytest.raises(InputError):
        select_parent([Chromosome(bits=(1,))], np.random.default_rng(0))


def test_crossover_rate_zero_copies_parents():
    a = Chromosome(bits=(1, 1, 1, 1), fitness=1.0)
    b = Chromosome(bits=(0, 0, 0, 0), fitness=2.0)
    c1, c2 = crossover(a, b, np.random.default_rng(0), rate=0.0)
    assert c1.bits == a.bits and c2.bits == b.bits
    assert c1.fitness is None and c2.fitness is None


def test_crossover_rate_one_swaps_a_prefix():
    a = Chromosome(bits=(1,) * 8)
    b = Chromosome(bits=(0,) * 8)
    c1, c2 = crossover(a, b, np.random.default_rng(3), rate=1.0)
    point = c1.bits.index(0)
    assert 1 <= point <= 7
    assert c1.bits == (1,) * point + (0,) * (8 - point)
    assert c2.bits == (0,) * point + (1,) * (8 - point)


def test_crossover_single_bit_pair_never_crosses():
    a = Chromosome(bits=(1,))
    b = Chromosome(bits=(0,))
    c1, c2 = crossover(a, b, np.random.default_rng(0), rate=1.0)
    assert c1.bits == (1,) and c2.bits == (0,)


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=50))
def test_crossover_conserves_bits_per_locus(length, seed):
    rng = np.random.default_rng(seed)
    a = Chromosome(bits=tuple(int(v) for v in rng.integers(0, 2, size=length)))
    b = Chromosome(bits=tuple(int(v) for v in rng.integers(0, 2, size=length)))
    c1, c2 = crossover(a, b, np.random.default_rng(seed + 1), rate=1.0)
    for x, y, u, v in zip(a.bits, b.bits, c1.bits, c2.bits):
        assert sorted((x, y)) == sorted((u, v))


def test_crossover_length_mismatch():
    with pytest.raises(InputError):
        crossover(
            Chromosome(bits=(1, 0)),
            Chromosome(bits=(1, 0, 1)),
            np.random.default_rng(0),
        )


def test_mutate_rate_zero_is_identity():
    c = Chromosome(bits=(0, 1, 0, 1), fitness=3.0)
    out = mutate(c, np.random.default_rng(0), rate=0.0)
    assert out.bits == c.bits
    assert out.fitness is None


def test_mutate_rate_one_complements():
    c = Chromosome(bits=(0, 1, 0, 1))
    out = mutate(c, np.random.default_rng(0), rate=1.0)
    assert out.bits == (1, 0, 1, 0)


def test_mutate_never_returns_all_zero():
    c = Chromosome(bits=(1, 1, 1))
    for seed in range(20):
        out = mutate(c, np.random.default_rng(seed), rate=1.0)
        assert sum(out.bits) == 1  # complement is all-zero, guard flips one bit


def test_mutate_flip_count_tracks_rate():
    rng = np.random.default_rng(42)
    c = Chromosome(bits=(0,) * 200)
    flips = [sum(mutate(c, rng, rate=0.1).bits) for _ in range(50)]
    mean = sum(flips) / len(flips)
    assert 12 <= mean <= 28  # Binomial(200, 0.1) mean 20


def test_mutate_default_rate_is_one_over_length():
    rng = np.random.default_rng(0)
    c = Chromosome(bits=(0,) * 100)
    flips = [sum(mutate(c, rng).bits) for _ in range(300)]
    mean = sum(flips) / len(flips)
    assert 0.6 <= mean <= 1.5


def test_ga_config_validation():
    with pytest.raises(InputError):
        GaConfig(population_size=0)
    with pytest.raises(InputError):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(InputError):
        GaConfig(elitism_count=20, population_size=20)
    with pytest.raises(InputError):
        GaConfig(folds=0)
    with pytest.raises(InputError, match="folds"):
        GaConfig(folds=1)  # every training partition would be empty


@pytest.mark.parametrize(
    "field",
    [
        "population_size", "elitism_count", "max_generations",
        "stagnation_generations", "folds", "seed",
    ],
)
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_ga_config_refuses_a_count_that_is_not_an_integer(field, value):
    """2.5 would run as a population of 3 or fail inside the seed's RNG;
    3.0 and True are refused alike, as the CLI only ever passes ints."""
    with pytest.raises(InputError, match=f"^{field} must be an integer, got {value!r}$"):
        GaConfig(**{field: value})


def small_catalogue():
    return GeneCatalogue(genes=default_catalogue().genes[33:38])  # the five POS windows


def test_run_ga_stops_on_stagnation():
    # no MWE spans at all: every chromosome scores 0, so the best never moves
    data = [
        tuple(make_record(word=f"w{i}{t}") for t in range(4)) for i in range(6)
    ]
    config = GaConfig(
        population_size=4,
        max_generations=50,
        stagnation_generations=3,
        folds=2,
        seed=1,
    )
    result = run_ga(data, small_catalogue(), config=config, train_config=FAST)
    assert len(result.history) == 4  # initial + 3 stagnant generations
    assert all(rec.best_fitness == 0.0 for rec in result.history)


@pytest.mark.parametrize("seed", range(8))
def test_run_ga_stops_only_when_the_whole_window_is_flat(monkeypatch, seed):
    # without elitism the best can drop and come back: [3, 3, 2, 3] has equal
    # ends, but its window of 2 generations did not stand still
    monkeypatch.setattr("mwetag.ga.evaluate_fitness", lambda bits, *_: float(sum(bits) % 4))
    config = GaConfig(
        population_size=3,
        elitism_count=0,
        stagnation_generations=2,
        max_generations=40,
        folds=2,
        seed=seed,
    )
    data = make_separable_sentences(4, seed=4)
    bests = [r.best_fitness for r in run_ga(data, CATALOGUE, config, FAST).history]
    flat = [len(set(bests[i - 2 : i + 1])) == 1 for i in range(2, len(bests))]
    assert not any(flat[:-1])  # no earlier flat window was passed over
    assert flat[-1] or len(bests) == config.max_generations


def test_run_ga_respects_max_generations():
    data = make_separable_sentences(8, seed=6)
    config = GaConfig(
        population_size=4,
        max_generations=3,
        stagnation_generations=50,
        folds=2,
        seed=2,
    )
    result = run_ga(data, small_catalogue(), config=config, train_config=FAST)
    assert len(result.history) == 3
    assert [rec.generation for rec in result.history] == [1, 2, 3]


def test_run_ga_history_best_is_monotone():
    data = make_separable_sentences(10, seed=8)
    config = GaConfig(population_size=6, max_generations=5, folds=2, seed=3)
    result = run_ga(data, small_catalogue(), config=config, train_config=FAST)
    best = [rec.best_fitness for rec in result.history]
    assert best == sorted(best)
    assert result.best.fitness == best[-1]


def test_run_ga_is_deterministic():
    data = make_separable_sentences(8, seed=10)
    config = GaConfig(population_size=4, max_generations=3, folds=2, seed=4)
    first = run_ga(data, small_catalogue(), config=config, train_config=FAST)
    second = run_ga(data, small_catalogue(), config=config, train_config=FAST)
    assert first.best.bits == second.best.bits
    assert first.history == second.history


def test_run_ga_reported_fitness_is_reproducible():
    data = make_separable_sentences(8, seed=12)
    config = GaConfig(population_size=4, max_generations=3, folds=2, seed=5)
    result = run_ga(data, small_catalogue(), config=config, train_config=FAST)
    folds = split_folds(data, config.folds, config.seed)
    fresh = evaluate_fitness(result.best.bits, data, small_catalogue(), folds, FAST)
    assert fresh == pytest.approx(result.best.fitness, abs=1e-12)


def test_run_ga_finds_the_pos_gene_on_separable_data():
    data = make_separable_sentences(16, seed=14)
    config = GaConfig(population_size=6, max_generations=6, folds=2, seed=6)
    result = run_ga(data, small_catalogue(), config=config, train_config=FAST)
    assert result.best.bits[2] == 1  # pos[0] is gene 2 of the small catalogue
    assert result.best.fitness > 80.0


def test_history_csv_round_trip():
    records = [
        GenerationRecord(1, 10.0, 4.25, (0, 1, 1)),
        GenerationRecord(2, 12.5, 7.75, (1, 1, 0)),
    ]
    text = history_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == "generation,best_fitness,mean_fitness,best_bits"
    assert history_from_csv(text) == records


def test_history_csv_survives_full_float_precision():
    records = [GenerationRecord(1, 33.333333333333336, 1e-17, (1,))]
    assert history_from_csv(history_to_csv(records)) == records


def test_history_from_csv_rejects_bad_header():
    with pytest.raises(ParseError):
        history_from_csv("gen,best\n1,2\n")


def test_history_from_csv_reports_line_numbers():
    header = "generation,best_fitness,mean_fitness,best_bits\n1,2.0,1.0,01\n"
    bad_rows = ("1,2.0,1.0,01x", "1,2.0,1.0,0292", "1,2.0,1.0,", "1,nan,1.0,01", "1,2.0,inf,01")
    # generations must count 1, 2, 3, ... in row order
    bad_rows += ("1,2.0,1.0,01", "0,2.0,1.0,01", "-1,2.0,1.0,01", "3,2.0,1.0,01")
    for bad_row in bad_rows:
        with pytest.raises(ParseError) as exc:
            history_from_csv(header + bad_row + "\n")
        assert "line 3" in str(exc.value), bad_row
    with pytest.raises(ParseError) as exc:
        history_from_csv("generation,best_fitness,mean_fitness,best_bits\n2,2.0,1.0,01\n")
    assert "line 2" in str(exc.value)
