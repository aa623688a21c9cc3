"""Spectral-Galerkin laboratory for reflection couplings of monotone SPDEs."""
