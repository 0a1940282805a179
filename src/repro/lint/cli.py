"""Command line for the invariant linter.

Examples
--------
::

    python -m repro.lint                      # lint src/repro (the CI gate)
    python -m repro.lint src/repro/sim        # one subtree
    python -m repro.lint --rules D001,D002    # one rule family
    python -m repro.lint --list-rules         # the catalogue
    python -m repro.lint --print-fingerprints # bless parity pairs after edits
    repro-fabric lint                         # same checker via the main CLI

Exit status: 0 clean, 1 findings, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.framework import (
    LintError,
    collect_files,
    find_repo_root,
    resolve_rules,
    rule_catalog,
    run_rules,
)

#: Default lint surface: the package itself.
DEFAULT_PATHS = ("src/repro",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static determinism/parity/units checks for the repro tree",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--rules", metavar="CODES",
        help="comma-separated rule codes to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--print-fingerprints", action="store_true",
        help="print the live fingerprints of every declared parity pair "
             "(paste into src/repro/lint/parity_pairs.py after re-running "
             "the parity suites)",
    )
    return parser


def _list_rules() -> int:
    for rule in rule_catalog():
        scope = ", ".join(rule.paths) if rule.paths else "all files"
        kind = "repo-wide" if rule.repo_wide else scope
        print(f"{rule.code}  {rule.name}  [{kind}]")
        print(f"      {rule.rationale}")
    return 0


def _print_fingerprints(repo_root: Path) -> int:
    from repro.lint.parity import fingerprint_reference
    from repro.lint.parity_pairs import PARITY_PAIRS

    status = 0
    for pair in PARITY_PAIRS:
        print(f"{pair.name}:")
        for role, reference, blessed in pair.sides():
            live = fingerprint_reference(reference, repo_root)
            if live is None:
                print(f"  {role}_fingerprint: <function not found: {reference}>")
                status = 1
                continue
            marker = "" if live == blessed else "   # was " + blessed
            print(f'  {role}_fingerprint="{live}",{marker}')
    return status


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``python -m repro.lint`` and the main CLI."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly,
        # giving Python a writable fd so the interpreter's stdout-flush at
        # exit does not complain either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    repo_root = find_repo_root(paths[0]) or Path.cwd()

    if args.print_fingerprints:
        return _print_fingerprints(repo_root)

    try:
        rules = resolve_rules(
            [code.strip() for code in args.rules.split(",") if code.strip()]
            if args.rules
            else None
        )
    except LintError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    files = collect_files(paths, repo_root)
    run = run_rules(files, rules, repo_root=repo_root)

    for finding in run.findings:
        print(finding.render())
    if run.findings:
        print(
            f"repro.lint: {len(run.findings)} finding(s) across {len(files)} "
            "file(s); see docs/lint.md for suppressions",
            file=sys.stderr,
        )
        return 1
    print(f"repro.lint OK: {len(files)} file(s), "
          f"{len(rules)} rule(s), no findings")
    return 0
