"""Solvers and experiment harness for embedding path- and cycle-shaped
virtual network requests onto capacitated substrate networks."""

# The benchmark (perfbench/run.py) reads these off the package; every other
# name is imported from its own module.
from . import baseline, cycle_embedding, model, path_embedding
from .generators import RequestSpec, SubstrateSpec, gen_requests, gen_substrate
from .model import ModelError

__version__ = "0.1.0"
