"""Exact-arithmetic toolkit for circle subgroups on coadjoint orbits:
root-system combinatorics, virtual and Riemannian indices, Hofer lengths,
loop-group Morse series, SU(2) Hessian numerics, and the CP^1 quantum
leading term.

The package re-exports nothing: import the submodule that holds a name.
``root_system``, ``circle_index``, ``hofer``, ``loop_morse`` and
``quantum_cp1`` need only the standard library; ``su2_loops`` uses numpy,
``verify`` imports numpy only inside the norm sweep's seeded draw and
``su2_loops`` only inside ``check_hessian``, and ``cli`` imports
``su2_loops`` only inside ``hessian-su2``, so neither ``import
liehofer.verify`` nor ``import liehofer.cli`` loads numpy."""

__version__ = "0.1.0"
