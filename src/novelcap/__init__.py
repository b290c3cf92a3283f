"""novelcap: caption images containing objects the language model never saw.

The decoder emits a trainable placeholder token wherever an object word
belongs; a per-image key-value memory built from detector outputs maps
appearance features to class labels, and placeholder positions are filled
by querying it with the decoder's hidden state. Training and evaluation
run end-to-end on a synthetic corpus with a deterministic mock detector.
"""

from .config import RunConfig, load_config
from .data import (DatasetRecord, HeldOutSplit, SyntheticWorld, build_heldout_split,
                   generate_synthetic, load_dataset, make_world, save_dataset)
from .decoder import (CaptionModel, DecodeSnapshot, DecodeTrace, decode_greedy, forward_teacher_forced,
                      init_state, pad_sequences)
from .evaluation import F1Report, ObjectScore, evaluate_split, f1_for_object
from .memory import Detection, ObjectMemory, QueryResult, make_query, memory_read, select_top_detections
from .numerics import AdamState, adam_step, cross_entropy, finite_diff_check, softmax
from .pipeline import Caption, TrainExample, TrainingPairs, make_captioner, train_model, train_step
from .vocabulary import DetectableSet, Vocabulary, build_vocabulary, intersect_detectable, mask_weights, rewrite_targets

__version__ = "0.1.0"
