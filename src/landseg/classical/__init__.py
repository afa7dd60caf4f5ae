"""From-scratch pixel classifiers: CART, random forest, RBF-SVM."""

import inspect

from .tree import DecisionTree, cart_train, gini
from .forest import RandomForest, permutation_importance, rf_train
from .svm import SvmClassifier, svm_train

# Each pixel trainer by its algorithm name. Names, not functions, so that
# a function patched after import is still the one that runs.
TRAINERS = {"cart": "cart_train", "rf": "rf_train", "svm": "svm_train"}


def trainer(algo: str):
    """The function that TRAINERS names for algo."""
    return globals()[TRAINERS[algo]]


def fit(algo: str, x, y, **settings):
    """Train algo on the table (x, y), passing it those of the settings
    that its trainer takes."""
    train = trainer(algo)
    taken = inspect.signature(train).parameters
    return train(x, y, **{k: v for k, v in settings.items() if k in taken})
