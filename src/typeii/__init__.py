"""Exact verification toolkit for extremal Type II binary codes.

Submodules:
  exact          rationals, polynomials in s, rational functions, determinants
  gf2            codes over GF(2) on int words: duals, shells, cosets
  harmonic       discrete zonal harmonics: one numerator over s(s-1)...(s-d+1)
  designs        t-design / t-half-design certification on Hamming spheres
  gleason        extremality bounds and extremal weight enumerators
  catalog        the concrete codes used for verification, as shipped matrix files
  configuration  intersection-count systems, their determinants, and verdicts
  cli            command-line front end
"""

__version__ = "0.1.0"
