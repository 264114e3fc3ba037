"""Check registry: name -> module implementing NAME, DESCRIPTION, run(src)."""

from __future__ import annotations

from typing import Dict, List

from rwle_lint.checks import (
    fabric_access,
    hook_hygiene,
    memory_order,
    sched_points,
)

_MODULES = (fabric_access, memory_order, sched_points, hook_hygiene)

ALL_CHECKS: Dict[str, object] = {m.NAME: m for m in _MODULES}

# 'waiver' is not runnable -- it is produced by the waiver engine itself --
# but it is a known name so `--checks` and disable() lists can refer to it
# in error messages.
KNOWN_CHECK_NAMES = set(ALL_CHECKS) | {"waiver"}


def check_names() -> List[str]:
    return sorted(ALL_CHECKS)
