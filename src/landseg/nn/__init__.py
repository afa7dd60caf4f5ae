"""Minimal reverse-mode tensor ops and the three miniature segmentation nets."""

from .optim import Adam, SgdMomentum, adam_step, sgd_momentum_step
from .networks import build_network, check_patch, load_network, save_network
from .train import TrainConfig, default_config, predict_tiles, save_history_csv, train
