"""Interpretable feature-based scoring of time-aligned spoken responses.

The pipeline: load (or synthesize) aligned responses, extract five feature
families (content, fluency, suprasegmental pronunciation, grammar and
vocabulary, acoustic), train classical models on a stratified split, score
them with agreement metrics, and explain them via gain importance, partial
dependence and exact SHAP values.
"""

from .corpus import (RESOURCE_FILES, RESOURCES_DIR, AlignedResponse, Corpus,
                     FeatureMatrix, Grade, LexicalResources, Phones,
                     SplitAssignment, Standardizer, Tokens, Words,
                     default_resources, fit_standardizer, load_corpus,
                     parse_response, response_to_json, stratified_split)
from .explain import gain_importance, pdp, shap_summary, tree_shap
from .features import ExtractorConfig, extract_matrix
from .harness import (PromptDataset, ablation_additive, ablation_leave_one_out,
                      evaluation_entries, prepare_prompt, run_benchmark)
from .learners import (DEFAULT_PARAMS, LinearModel, LogisticModel,
                       TreeEnsembleModel, class_weights, fit_forest, fit_gbt,
                       fit_linear, fit_logistic, fit_model, fit_single_tree,
                       grid_search, load_model, save_model, task_weights)
from .metrics import (confusion_matrix, mse, pearson, qwk, round_to_grade,
                      to_grades)
from .synth import SynthSpec, synth_corpus, write_corpus
from .trees import Tree, TreeParams, fit_tree

__version__ = "0.1.0"
