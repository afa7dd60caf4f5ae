"""From-scratch pixel classifiers: CART, random forest, RBF-SVM."""

from .tree import DecisionTree, cart_train, gini
from .forest import RandomForest, permutation_importance, rf_train
from .svm import SvmClassifier, svm_train

__all__ = [
    "DecisionTree",
    "RandomForest",
    "SvmClassifier",
    "cart_train",
    "gini",
    "permutation_importance",
    "rf_train",
    "svm_train",
]
