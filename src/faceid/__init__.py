"""Face identification in transform domains.

Feature extraction by 2-D DCT / DFT / log-DFT zonal masking or an eigenface
basis, identification by nearest neighbor, MLP, PNN, or incremental RBF,
and mean-rule opinion fusion of classifier scores. The evaluation layer and
the ``faceid`` CLI reproduce the reference identification-rate experiments.
"""

from . import classifiers, dataset, eigenfaces, evaluation, fusion, stats, transforms
from .dataset import (
    Corpus, Image, InventoryError, PgmError, Split,
    corpus_checksum, load_manifest, load_orl, load_pgm, split_first_k,
    synth_corpus, write_pgm,
)
from .transforms import (
    CoeffMatrix, FeatureVector, ZonalMask,
    dct2, dft2, extract_features, idct2, log_dft2,
)
from .eigenfaces import EigenBasis, RankError, attainable_rank, project, train_eigenbasis
from .stats import ClassFeatureStats, class_stats, discriminability, rank_features
from .classifiers import (
    DivergenceError, Gallery, MLPConfig, MLPModel, PNNModel, RBFModel,
    load_model, mad, mlp_scores, mlp_train, mse_dist, nn_scores,
    pnn_classify, pnn_train, rbf_scores, rbf_train, save_model,
)
from .fusion import fuse_mean, normalize_scores
from .evaluation import (
    EvalConfig, ExperimentResult, HistogramPair,
    distance_histograms, identification_rate, identify, run_experiment,
    sweep_dimension, sweep_spread, table1_report,
)

__version__ = "0.1.0"
