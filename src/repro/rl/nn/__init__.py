"""Minimal neural-network building blocks with manual backpropagation."""

from repro.rl.nn.init import orthogonal_
from repro.rl.nn.layers import Identity, Linear, MLP, Module, Parameter, ReLU, Sequential, Tanh
from repro.rl.nn.optim import Adam, Optimizer, clip_grad_norm_

__all__ = [
    "Adam",
    "Identity",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "Parameter",
    "ReLU",
    "Sequential",
    "Tanh",
    "clip_grad_norm_",
    "orthogonal_",
]
