"""Secure UAV directional-modulation link: leakage beamforming, artificial
noise, closed-form Max-SR power allocation, and the alternating loop that
couples them along a sampled flight trajectory."""

from .harness import parse_config

__version__ = "0.1.0"
