"""hardylab: exact verification lab for a teleportation-based Hardy-style
nonlocality argument on two maximally entangled qubits.

The package rebuilds the four-qubit state (singlet plus two local
ancillas), mechanically re-derives its two Bell-basis expansions, audits
the four advertised Hardy conditions under explicit interpretations,
decides local-hidden-variable feasibility of probability tables with
exact rational certificates, and simulates finite-shot measurement runs.

Its modules are imported directly: ``core`` (exact states and projectors),
``protocol`` (the state and its expansions), ``observables`` (the audit),
``lhv`` (deduction replay and feasibility), ``sampler`` (the finite-shot
runs, the one module that needs numpy) and ``cli``.  Everything but the
sampler is exact integer and Fraction arithmetic.  The CLI loads layers
per command: each subcommand imports only the modules it calls.
"""

__version__ = "0.1.0"
