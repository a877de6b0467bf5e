"""Trainable networks: layers, losses, optimizer, encoders, training."""

from .adam import Adam
from .layers import (LEAKY_SLOPE, Conv3d, LeakyReLU, Linear, MaxPoolAxis,
                     Param, ResBlockFC, Sequential, Sigmoid, sigmoid)
from .losses import BCE_EPS, bce_loss, mse_loss
from .network import GRID_VARIANTS, GridNetwork, make_network
from .pointnet import K_NEIGHBORS, CloudNeighbors, PointNetwork, cloud_neighbors, knn_indices
from .train import TrainConfig, train_network, train_step

__all__ = [
    "Adam", "BCE_EPS", "CloudNeighbors", "Conv3d", "GRID_VARIANTS", "GridNetwork",
    "K_NEIGHBORS", "LEAKY_SLOPE", "LeakyReLU", "Linear", "MaxPoolAxis",
    "Param", "PointNetwork", "ResBlockFC", "Sequential", "Sigmoid",
    "TrainConfig", "bce_loss", "cloud_neighbors", "knn_indices", "make_network",
    "mse_loss", "sigmoid", "train_network", "train_step",
]
