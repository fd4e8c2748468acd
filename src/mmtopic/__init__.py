"""Multimodal neural topic modeling over precomputed text and image
embeddings: four VAE-style model kinds, descriptor-based quality metrics
(including image coherence and image pairwise similarity), cross-model topic
overlap via Hungarian matching, planted-topic synthetic corpora, and a
resumable experiment harness."""

from .corpus import (
    Corpus,
    DatasetFormatError,
    MultimodalDocument,
    PlantedTopic,
    SyntheticSpec,
    Vocabulary,
    build_vocabulary,
    generate_synthetic,
    load_corpus,
    load_stopwords,
    preprocess_tokens,
    save_corpus,
)
from .descriptors import (
    describe_topics,
    top_keywords,
    topic_documents,
    topic_keywords,
)
from .harness import (
    CheckpointError,
    ExperimentPlan,
    RunManifest,
    emit_report,
    load_model,
    run_plan,
    save_model,
)
from .metrics import (
    MetricReport,
    compute_metric_report,
    iec,
    ieps,
    irbo,
    load_word_vectors,
    npmi,
    rbo,
    topic_diversity,
    we_coherence,
)
from .models import (
    KINDS,
    ModelConfig,
    TrainedTopicModel,
    infer_topic_distribution,
    infonce,
    reconstruct_image_features,
    train,
)
from .nncore import (
    AdamState,
    adam_step,
    gradcheck,
    softmax,
)
from .overlap import OverlapReport, hungarian, overlap_report, topic_similarity_matrix

__version__ = "0.1.0"
