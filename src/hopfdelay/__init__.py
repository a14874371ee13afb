"""Stability of delayed-feedback systems near a Hopf bifurcation."""

__version__ = "0.1.0"
