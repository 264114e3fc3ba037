#!/usr/bin/env python3
"""Golden tests for rwle_lint (DESIGN.md §11).

Each fixture under fixtures/ seeds violations of one check (or exercises the
waiver machinery); the expected diagnostics live in expected/<fixture>.txt.
Fixtures use the .cc.in suffix so the repo-wide lint walk never picks them
up -- they are linted only here, explicitly, with --as-path mapping them
into the directory whose rules they target.

Runs the lexer backend for hermeticity (libclang is not installed on every
dev box; CI additionally runs the libclang backend over the real tree via
tools/lint.sh). Also asserts the merged tree itself lints clean -- the
checks are only trustworthy if the codebase actually satisfies them.

Regenerate goldens after an intentional diagnostic change with:
  RWLE_REGEN_GOLDEN=1 python3 tests/lint/run_lint_tests.py
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(ROOT, "tools", "rwle_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
EXPECTED = os.path.join(HERE, "expected")
REGEN = os.environ.get("RWLE_REGEN_GOLDEN") == "1"

# (fixture stem, --as-path prefix, expected exit code, expected waived count)
CASES = [
    ("fabric_access_violation", "src/workloads/fix", 1, 0),
    ("memory_order_violation", "src/fix", 1, 0),
    ("sched_point_violation", "src/locks", 1, 0),
    ("hook_hygiene_violation", "src/htm", 1, 0),
    ("waiver_suppress", "src/fix", 0, 3),
    ("waiver_wrong_check", "src/fix", 1, 0),
    ("waiver_unknown", "src/fix", 1, 0),
    ("clean", "src/rwle", 0, 0),
]

failures = []


def fail(name, message):
    failures.append(name)
    print(f"FAIL {name}: {message}")


def run_lint(args):
    return subprocess.run(
        [sys.executable, LINT, "--backend=lexer", *args],
        capture_output=True, text=True, cwd=ROOT)


def check_fixture(stem, prefix, want_exit, want_waived):
    fixture = os.path.join(FIXTURES, f"{stem}.cc.in")
    golden = os.path.join(EXPECTED, f"{stem}.txt")
    proc = run_lint([fixture, "--as-path", prefix, "-v"])
    got = proc.stdout
    if REGEN:
        with open(golden, "w", encoding="utf-8") as f:
            f.write(got)
        print(f"regen {stem}: {len(got.splitlines())} line(s)")
        return
    if proc.returncode != want_exit:
        fail(stem, f"exit {proc.returncode}, want {want_exit}\n"
                   f"stdout:\n{got}stderr:\n{proc.stderr}")
        return
    with open(golden, "r", encoding="utf-8") as f:
        want = f.read()
    if got != want:
        fail(stem, f"diagnostics differ from {os.path.relpath(golden, ROOT)}\n"
                   f"--- want ---\n{want}--- got ---\n{got}")
        return
    want_summary = f"{len(want.splitlines())} finding(s)"
    if want_summary not in proc.stderr:
        fail(stem, f"summary missing '{want_summary}': {proc.stderr}")
        return
    if want_waived:
        if f"{want_waived} finding(s) waived" not in proc.stderr:
            fail(stem, f"expected {want_waived} waived finding(s): {proc.stderr}")
            return
    print(f"ok   {stem}")


def check_cli():
    # --list-checks names all four checks and exits 0.
    proc = run_lint(["--list-checks"])
    names = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
    want = {"fabric-access", "memory-order", "sched-point", "hook-hygiene"}
    if proc.returncode != 0 or not want <= names:
        fail("cli_list_checks", f"exit {proc.returncode}, names {sorted(names)}")
    else:
        print("ok   cli_list_checks")

    # Unknown check names are usage errors (exit 2), not silent no-ops.
    proc = run_lint(["--checks", "not-a-check"])
    if proc.returncode != 2:
        fail("cli_unknown_check", f"exit {proc.returncode}, want 2")
    else:
        print("ok   cli_unknown_check")

    # --require-libclang contradicts --backend=lexer: usage error.
    proc = run_lint(["--require-libclang"])
    if proc.returncode != 2:
        fail("cli_require_libclang_conflict", f"exit {proc.returncode}, want 2")
    else:
        print("ok   cli_require_libclang_conflict")

    # --checks restricts the run: the memory-order fixture is clean under
    # the sched-point check alone.
    fixture = os.path.join(FIXTURES, "memory_order_violation.cc.in")
    proc = run_lint([fixture, "--as-path", "src/fix", "--checks", "sched-point"])
    if proc.returncode != 0 or proc.stdout.strip():
        fail("cli_checks_filter", f"exit {proc.returncode}: {proc.stdout}")
    else:
        print("ok   cli_checks_filter")


def check_clean_tree():
    proc = run_lint(["--root", ROOT])
    if proc.returncode != 0:
        fail("clean_tree", f"the merged tree must lint clean; exit "
                           f"{proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    else:
        print("ok   clean_tree")


def main():
    for stem, prefix, want_exit, want_waived in CASES:
        check_fixture(stem, prefix, want_exit, want_waived)
    if not REGEN:
        check_cli()
        check_clean_tree()
    if failures:
        print(f"{len(failures)} case(s) failed: {', '.join(failures)}")
        return 1
    print("all lint golden tests passed" if not REGEN else "goldens regenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
