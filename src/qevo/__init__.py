"""Evolutionary training of variational quantum circuit policies.

Layers, bottom up:

- mps: trainable matrix-product-state feature extractor, read through
  per-genome cell tables
- agents: the two circuit policies, batched over a population of genomes
- envs: cart-pole and empty-gridworld environments, each the whole task:
  its genome length, its policy and lockstep episodes; depends only on agents
- evo: truncation-selection evolution strategy with deterministic seeding
- cli: train / eval / resume front end with CSV stats and JSON checkpoints
"""

__version__ = "0.1.0"
