"""Exact classification of Whitehead-link surgeries and the boundary
combinatorics of k-holed torus bundles: slopes, L-space intervals, boundary
labels, coherent orientations, branched-surface weight systems and train
tracks, all over exact integer arithmetic."""

__version__ = "0.1.0"
