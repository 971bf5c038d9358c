"""Lattice sums of harmonic polynomials over spheres.

Exact shell coefficients and ball sums, oscillatory exponential sums with a
symbolic radial Fourier term algebra, theta-series modularity checks, and an
exact rational exponent-pair/balancing calculus.
"""
