"""Evolutionary training of variational quantum circuit policies.

Layers, bottom up:

- mps: trainable matrix-product-state feature extractor, contracted by rows
- envs: cart-pole and empty-gridworld environments, played in lockstep
- agents: the two circuit policies, batched over a population of genomes
- evo: truncation-selection evolution strategy with deterministic seeding
- cli: train / eval / resume front end with CSV stats and JSON checkpoints
"""

__version__ = "0.1.0"
