"""Multiword-expression tagging: affix stemming, CRF sequence labeling, and
genetic-algorithm feature selection."""

from .corpus import (
    Corpus,
    load_model,
    read_column_file,
    read_raw,
    save_model,
    write_column_file,
)
from .crf import (
    CrfModel,
    LabelSet,
    Lattice,
    TrainConfig,
    TrainReport,
    build_lattice,
    gradient,
    log_partition,
    regularized_objective,
    sequence_log_prob,
    train,
    train_and_decode,
    training_reports,
    viterbi_decode,
)
from .errors import ConfigError, InputError, MweTagError, ParseError
from .evaluation import EvalReport, Span, extract_spans, f_measure, score
from .features import (
    Gazetteer,
    TokenRecord,
    build_frequency_table,
    build_token_record,
    digit_flag,
    encode_corpus,
    frequency_bin,
    length_flag,
    load_gazetteer,
)
from .ga import (
    Chromosome,
    GaConfig,
    GaResult,
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
from .stemmer import AffixLexicon, StemResult, load_affix_lexicon, stem
from .templates import (
    FeatureMacro,
    GeneCatalogue,
    Template,
    chromosome_to_template,
    default_catalogue,
    expand_macros,
    parse_template,
    serialize_template,
)

__version__ = "0.1.0"
