"""Exact-rational search for perfect-cuboid parameter pairs.

Everything computes over arbitrary-precision rationals; no floating point
is used anywhere.  See the README for the CLI and the module docstrings
for the pipeline structure.
"""
