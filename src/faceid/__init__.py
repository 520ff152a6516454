"""Face identification in transform domains.

Feature extraction by 2-D DCT / DFT / log-DFT zonal masking or an eigenface
basis, identification by nearest neighbor, MLP, PNN, or incremental RBF,
and mean-rule opinion fusion of classifier scores. The evaluation layer and
the ``faceid`` CLI reproduce the reference identification-rate experiments.
"""

from . import classifiers, dataset, eigenfaces, evaluation, fusion, transforms
from .dataset import (
    Corpus, CorpusError, Image, InventoryError, PgmError, Split,
    corpus_checksum, load_manifest, load_orl, synth_corpus,
    write_pgm,
)
from .transforms import ZonalMask, mask_features, transform_corpus
from .eigenfaces import EigenBasis, RankError, project, train_eigenbasis
from .classifiers import (
    DivergenceError, Features, MLPModel, PNNModel, RBFModel,
    mlp_scores, mlp_train, nn_scores,
    pnn_classify, pnn_train, rbf_scores, rbf_train,
)
from .fusion import fuse_mean, normalize_scores
from .evaluation import (
    EvalConfig, ExperimentResult, Outcome,
    extract_split_features, run_experiment, save_model,
    sweep_dimension, sweep_spread, table1_report,
)

__version__ = "0.1.0"
