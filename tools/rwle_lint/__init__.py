"""rwle_lint: libclang-based invariant checker for the RW-LE codebase.

Enforces four project invariants the compiler cannot see (DESIGN.md §11):
fabric-access discipline, memory-order comment discipline, sched-point
coverage of spin loops, and analyzer/scheduler hook hygiene. Entry point:
tools/rwle_lint.py.
"""

__all__ = ["cli"]
