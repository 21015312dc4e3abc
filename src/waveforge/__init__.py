"""waveforge: closed-form evaluation of wave and heat type equations.

The package evaluates exact solution formulas for higher-order wave and
heat operators on the whole space (odd dimensions via spherical means)
and on boxes (sine eigenfunction expansions), with every solver checked
against independent oracles.
"""

__version__ = "0.1.0"
