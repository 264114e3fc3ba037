"""rwle_lint command line driver.

Exit codes (wired into tools/lint.sh and the CI static-analysis job):
  0 -- no findings
  1 -- findings (including waiver errors)
  2 -- environment or usage error (bad check name, unreadable file,
       --require-libclang without libclang, parse failure)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from rwle_lint import clang_backend, compiledb
from rwle_lint.checks import ALL_CHECKS, KNOWN_CHECK_NAMES, check_names
from rwle_lint.diagnostics import apply_waivers
from rwle_lint.lexer import LexError
from rwle_lint.source import SourceFile

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rwle_lint",
        description="Static checker for the project's concurrency invariants: "
                    "fabric-access discipline, memory-order comments, "
                    "sched-point coverage, and hook hygiene. "
                    "See DESIGN.md §11.")
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: src bench "
                        "tests examples under --root)")
    p.add_argument("--root", default=_REPO_ROOT,
                   help="repository root used for scoping paths "
                        "(default: the tree containing this tool)")
    p.add_argument("--build-dir", default=None,
                   help="build directory with compile_commands.json "
                        "(default: <root>/build); used by the libclang "
                        "backend for per-TU parse arguments")
    p.add_argument("--backend", choices=("auto", "libclang", "lexer"),
                   default="auto",
                   help="token source: clang's tokenizer via libclang, the "
                        "built-in fallback lexer, or auto (libclang when "
                        "available)")
    p.add_argument("--require-libclang", action="store_true",
                   help="fail (exit 2) instead of falling back to the lexer "
                        "when libclang is unavailable; set in CI so the "
                        "authoritative backend can never be silently skipped")
    p.add_argument("--checks", default=None,
                   help="comma-separated check names to run "
                        "(default: all; see --list-checks)")
    p.add_argument("--list-checks", action="store_true",
                   help="list check names with one-line descriptions and exit")
    p.add_argument("--as-path", default=None, metavar="PREFIX",
                   help="scope (and report) each given file as "
                        "PREFIX/<basename>; used by the fixture tests to run "
                        "checks on files outside their normal directories")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also report per-file waived-finding counts")
    return p


def _resolve_checks(arg: Optional[str]):
    if arg is None:
        return list(ALL_CHECKS.values()), None
    mods = []
    for name in (n.strip() for n in arg.split(",") if n.strip()):
        if name not in ALL_CHECKS:
            return None, name
        mods.append(ALL_CHECKS[name])
    return mods, None


def _load_file(path: str, rel: str, backend: str, root: str,
               compile_args) -> SourceFile:
    if backend == "libclang":
        return clang_backend.parse(path, rel, root, compile_args.get(path))
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return SourceFile(path, rel, text)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_checks:
        for name in check_names():
            print(f"{name:15s} {ALL_CHECKS[name].DESCRIPTION}")
        return 0

    checks, bad = _resolve_checks(args.checks)
    if checks is None:
        print(f"rwle_lint: unknown check '{bad}' "
              f"(known: {', '.join(check_names())})", file=sys.stderr)
        return 2

    root = os.path.realpath(args.root)
    build_dir = args.build_dir or os.path.join(root, "build")

    backend = args.backend
    if args.require_libclang and backend == "lexer":
        print("rwle_lint: --require-libclang conflicts with --backend=lexer",
              file=sys.stderr)
        return 2
    if backend in ("auto", "libclang") or args.require_libclang:
        if clang_backend.available():
            backend = "libclang"
        elif backend == "libclang" or args.require_libclang:
            print(f"rwle_lint: libclang required but unavailable: "
                  f"{clang_backend.load_error()}", file=sys.stderr)
            return 2
        else:
            backend = "lexer"
            print("rwle_lint: libclang not available "
                  f"({clang_backend.load_error()}); using the built-in lexer "
                  "backend", file=sys.stderr)

    compile_args = {}
    if backend == "libclang":
        compile_args = compiledb.compile_args_by_file(build_dir, root)
        if not compile_args:
            print(f"rwle_lint: note: no compile_commands.json under "
                  f"{build_dir}; parsing with default flags", file=sys.stderr)

    try:
        files = compiledb.default_file_set(root, args.paths or None)
    except OSError as e:
        print(f"rwle_lint: {e}", file=sys.stderr)
        return 2
    if not files:
        print("rwle_lint: no source files to lint", file=sys.stderr)
        return 2

    total = 0
    waived_total = 0
    failed = False
    for path in files:
        if args.as_path is not None:
            rel = args.as_path.rstrip("/") + "/" + os.path.basename(path)
        else:
            rel = os.path.relpath(path, root)
            if rel.startswith(".."):
                rel = os.path.basename(path)
        try:
            src = _load_file(path, rel, backend, root, compile_args)
        except (OSError, LexError, clang_backend.ParseError) as e:
            print(f"rwle_lint: failed to read {path}: {e}", file=sys.stderr)
            failed = True
            continue
        diags = []
        for mod in checks:
            diags.extend(mod.run(src))
        kept, waived = apply_waivers(src, diags, KNOWN_CHECK_NAMES)
        for d in kept:
            print(d.render())
        total += len(kept)
        waived_total += len(waived)
        if args.verbose and waived:
            print(f"rwle_lint: {rel}: {len(waived)} finding(s) waived",
                  file=sys.stderr)

    if failed:
        return 2
    summary = (f"rwle_lint: {total} finding(s) in {len(files)} file(s)"
               f" [{backend} backend"
               + (f", {waived_total} waived]" if waived_total else "]"))
    print(summary, file=sys.stderr)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
