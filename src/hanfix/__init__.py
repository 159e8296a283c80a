"""hanfix: phonetic error correction for Chinese ASR transcripts.

Pipeline pieces, roughly in dependency order: pinyin parsing and fuzzy
equivalence -> word lexicon (trie + fuzzy 2-gram index) -> candidate
lattice -> numpy corrector model with char-word attention and a copy gate
-> corpus tools, metrics, and the CLI.
"""

from .corpus import (
    NoiseSpec,
    ParallelPair,
    corpus_stats,
    generate_synthetic,
    homophone_pools,
    load_parallel_tsv,
    make_toy_inventory,
    make_toy_words,
    save_parallel_tsv,
)
from .data import demo_fuzzy_path, demo_pinyin_path, demo_words_path
from .desm import (
    LATTICE_MODES,
    CharWordLattice,
    Direction,
    MatchCandidate,
    Provenance,
    build_lattice,
    featurize_sentences,
    lattice_records,
    lattice_to_feature_ids,
    sentence_features,
)
from .errors import (
    CheckpointError,
    HanfixError,
    InvalidSyllable,
    LengthMismatch,
    LexiconFormatError,
    MalformedLine,
    MissingPinyin,
    SequenceTooLong,
    WordTooLong,
)
from .evaluation import (
    DEFAULT_VARIANTS,
    AblationRow,
    AblationVariant,
    EvalReport,
    f1,
    format_ablation,
    format_report,
    run_ablation,
    score,
)
from .lexicon import (
    MAX_WORD_LEN,
    Lexicon,
    WordEntry,
    build_lexicon,
    lexicon_fingerprint,
    lexicon_from_words,
)
from .model import (
    CHAR_ID_OFFSET,
    CHAR_PAD_ID,
    CHAR_UNK_ID,
    Batch,
    ModelConfig,
    ModelParams,
    assemble_batch,
    correct_many,
    forward_batch,
    init_params,
    load_checkpoint,
    loss_and_grads,
    nll_loss,
    save_checkpoint,
)
from .pinyin import (
    FINALS,
    INITIALS,
    FuzzyClassTable,
    PinyinSyllable,
    PinyinTable,
    fuzzy_key,
    parse_syllable,
    syllables_equivalent,
)
from .training import Adam, TrainConfig, build_char_vocab, split_config, train

__version__ = "0.1.0"
