"""Entanglement sharing diagnostics for continuous-variable and qudit families.

Layers, bottom to top:

* gaussian: covariance matrices, symplectic transforms, spectral
  entanglement measures (qqpp ordering, vacuum variance 1).
* contangle: closed-form squared-log-negativity measures of the
  two-parameter four-mode squeezed family, with monogamy bookkeeping;
  pure `math`, no numpy.
* four_mode: state builder, the bounding three-mode state and
  dual-route entanglement reports.
* qudit: GHZ/W qudit families, tangle identities and
  squashed-entanglement bounds from exact per-copy values; pure `math`
  and `fractions`, no numpy.
* qubits: the brute-force three-qubit density-matrix route that verify
  checks the per-copy values against.
* verification / cli: property suites and the command-line front end.
"""

__version__ = "0.1.0"
