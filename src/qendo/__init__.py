"""qendo: exact computation with monotone self-maps of the rational line.

Modules
-------
ratcore    global enumeration of Q, dense two-colouring, exact intervals
partialmap finite partial order-isomorphisms and their algebra
lazyiso    lazily extended back-and-forth isomorphisms between countable orders
endo       piecewise-affine weakly monotone endomorphisms: compose, classify,
           one-sided inverses, idempotents, epi-mono factorisation
generic    certified generic self-embeddings and the compatibility calculus on
           pairs of endomorphisms sharing an image structure
actions    labelled-forest actions of the endomorphism monoid
clone      finitary operations that are essentially unary, and their
           reconstruction and convergence properties
topology   pointwise ultrametric on endomorphisms and clones
suites     acceptance suites shared by the CLI and the test harness
cli        command-line front end (classify / factorize / suite / generic /
           act)
"""

__version__ = "0.1.0"
