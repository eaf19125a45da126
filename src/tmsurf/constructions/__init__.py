"""Explicit analytic objects of the invariant exponential-inequality toolkit.

Radial cap profiles, invariant Green functions with their regular constants,
and the glued near-extremal test family. Every singular construction has a
semi-analytic radial evaluation path next to its mesh-sampled one.  Each
name is imported from the module that defines it: ``radial``, ``moser``,
``green`` or ``family``.
"""
