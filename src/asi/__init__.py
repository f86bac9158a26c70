"""Dual-track cross-attention with mask-guided adaptive content-style blending.

The package splits single-track cross-attention into independent style and
content branches over shared queries, decides where style may be written via
head-level covariance statistics and spatial activation peaks, blends with
adaptive instance normalization, and exercises the whole mechanism inside a
deterministic toy diffusion loop.
"""

__version__ = "0.1.0"
