"""weightsteg: LSB steganography attacks on model weights and their detection.

The pipeline mirrors the workflow end to end: parse weights bit-exactly,
embed payloads in the low bits, render weight bits as grayscale images,
train a small triplet-loss embedding network on a handful of samples, and
classify unseen models by centroid or KNN distance.
"""

from .dataset import (
    DatasetManifest,
    LabeledSample,
    ModelCollection,
    ModelZoo,
    build_dataset,
    load_collection,
    load_dataset,
    split_by_zoo,
    synth_collection,
)
from .detect import (
    TrainedDetector,
    accuracy,
    bootstrap_ci,
    build_detector,
    centroids_as_1nn_equivalence_check,
    classify_samples,
    eval_al,
    eval_oml,
    label_embeddings,
    load_detector,
    save_detector,
    weighted_metric,
)
from .errors import CapacityError, FormatError
from .imagerep import grayscale_fourpart, normalize, read_pgm, render, resize, write_pgm
from .net import (
    AdamState,
    ConvBlock,
    ConvNetConfig,
    NetParams,
    TrainConfig,
    TrainResult,
    adam_step,
    backward,
    forward,
    init_params,
    make_triplets,
    preset,
    train,
)
from .pipeline import train_detector
from .steg import (
    AttackSpec,
    LsbWords,
    Payload,
    extract_lsb,
    lsb_attack,
)
from .weights_io import (
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    load_model,
    open_words,
    read_container,
    read_raw,
    save_model,
    write_container,
)

__version__ = "0.1.0"
