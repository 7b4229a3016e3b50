"""Exact calculators for topological modular forms with level structure.

Modules:
    levels       level/curve arithmetic (degrees, cusps, genus, tameness)
    cohomology   h0/h1 rank tables and Hilbert series of modular-form rings
    charts       descent spectral sequence charts, duality symmetry
    splitting    suspension-shift multisets for module decompositions
    duality      Anderson self-duality classification and shift arithmetic
    hfpss        regular RO(C2)-graded homotopy fixed point spectral sequences
    hfpss_api    per-class HFPSS library API (E2 classes, differentials,
                 transfer and v-chain checks), used by no command
    equivariant  finite-abelian fixed point components
    cli          command line interface
"""

__version__ = "0.1.0"
