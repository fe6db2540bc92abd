"""fresque-lint command line.

Usage::

    python -m repro.devtools.lint [paths...]          # default: src
    python -m repro.devtools.lint --list-codes
    python -m repro.devtools.lint --select FRQ-C101 src
    python -m repro.devtools.lint --update-baseline src
    python -m repro.devtools.lint --format sarif src
    python -m repro.devtools.lint --changed-only src

Exit status: 0 when every finding is inline-suppressed or baselined,
1 when new findings exist, 2 on usage errors.

Two checker passes run per invocation: every per-module
:class:`~repro.devtools.registry.Checker` over each file, then every
:class:`~repro.devtools.registry.ProjectChecker` over the whole parsed
project (call graph, dataflow).  ``--changed-only`` still parses every
file — whole-program checkers need the complete call graph — and only
*reports* findings landing in files with uncommitted changes.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator

from repro.devtools.baseline import Baseline, render_baseline
from repro.devtools.callgraph import build_project
from repro.devtools.diagnostics import Diagnostic, is_suppressed
from repro.devtools.output import render_json, render_sarif
from repro.devtools.registry import (
    ModuleInfo,
    all_checkers,
    all_codes,
    all_project_checkers,
    iter_diagnostics,
)

DEFAULT_BASELINE = ".fresque-lint-baseline"


def _repo_root(start: Path) -> Path:
    """Closest ancestor containing ``pyproject.toml`` (or ``start``)."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def discover_files(paths: Iterable[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def load_module(path: Path, root: Path) -> ModuleInfo | Diagnostic:
    """Parse one file; a syntax error becomes a diagnostic, not a crash."""
    try:
        display = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        display = path.as_posix()
    source = path.read_bytes().decode("utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return Diagnostic(
            path=display,
            line=error.lineno or 1,
            col=(error.offset or 1),
            code="FRQ-E000",
            message=f"syntax error: {error.msg}",
        )
    return ModuleInfo(
        path=path,
        display_path=display,
        tree=tree,
        source_lines=source.splitlines(),
    )


def changed_files(root: Path) -> set[str] | None:
    """Repo-relative paths with uncommitted changes (None when unknown).

    Covers modified/staged files (``git diff HEAD``) and untracked files;
    a missing ``git`` or a non-repo directory yields ``None`` so the
    caller can fall back to reporting everything.
    """
    changed: set[str] = set()
    for args in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                args, cwd=root, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        changed.update(
            line.strip() for line in result.stdout.splitlines() if line.strip()
        )
    return changed


def run_lint(
    paths: list[Path],
    root: Path,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Diagnostic]:
    """All unsuppressed diagnostics for ``paths`` (baseline not applied)."""

    def wanted(diagnostic: Diagnostic) -> bool:
        if select and diagnostic.code not in select:
            return False
        if ignore and diagnostic.code in ignore:
            return False
        return True

    checkers = all_checkers()
    diagnostics: list[Diagnostic] = []
    modules: list[ModuleInfo] = []
    for path in discover_files(paths):
        module = load_module(path, root)
        if isinstance(module, Diagnostic):
            diagnostics.append(module)
            continue
        modules.append(module)
        for diagnostic in iter_diagnostics(checkers, module):
            if wanted(diagnostic) and not is_suppressed(
                diagnostic, module.source_lines
            ):
                diagnostics.append(diagnostic)

    # Whole-program pass: one project over every parsed module.
    project_checkers = all_project_checkers()
    if project_checkers and modules:
        project = build_project(modules)
        lines_by_path = {m.display_path: m.source_lines for m in modules}
        for checker in project_checkers:
            for diagnostic in checker.check_project(project):
                if not wanted(diagnostic):
                    continue
                lines = lines_by_path.get(diagnostic.path, [])
                if is_suppressed(diagnostic, lines):
                    continue
                diagnostics.append(diagnostic)
    return sorted(set(diagnostics))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain-aware static analysis for the FRESQUE repro.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} at the repo root)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to absorb all current findings",
    )
    parser.add_argument(
        "--list-codes", action="store_true", help="list diagnostic codes"
    )
    parser.add_argument(
        "--select", action="append", default=[], help="only these codes"
    )
    parser.add_argument(
        "--ignore", action="append", default=[], help="skip these codes"
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "only report findings in files with uncommitted changes "
            "(the whole project is still parsed for call-graph checkers)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_codes:
        for code, (family, description) in sorted(all_codes().items()):
            print(f"{code}  [{family}] {description}")
        return 0

    known_codes = set(all_codes()) | {"FRQ-E000"}
    unknown = (set(args.select) | set(args.ignore)) - known_codes
    if unknown:
        print(
            f"error: unknown code(s): {', '.join(sorted(unknown))} "
            f"(see --list-codes)",
            file=sys.stderr,
        )
        return 2

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    root = _repo_root(Path.cwd())
    baseline_path = (
        Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
    )

    diagnostics = run_lint(
        paths,
        root,
        select=set(args.select) or None,
        ignore=set(args.ignore) or None,
    )

    if args.update_baseline:
        baseline_path.write_text(render_baseline(diagnostics))
        print(
            f"wrote {baseline_path} with {len(diagnostics)} "
            f"grandfathered finding(s)"
        )
        return 0

    try:
        baseline = (
            Baseline() if args.no_baseline else Baseline.load(baseline_path)
        )
    except ValueError as error:
        print(f"error: {baseline_path}: {error}", file=sys.stderr)
        return 2
    fresh = [d for d in diagnostics if not baseline.absorbs(d)]

    if args.changed_only:
        changed = changed_files(root)
        if changed is None:
            print(
                "warning: --changed-only could not query git; "
                "reporting all findings",
                file=sys.stderr,
            )
        else:
            fresh = [d for d in fresh if d.path in changed]

    if args.format == "json":
        print(render_json(fresh, all_codes()))
    elif args.format == "sarif":
        print(render_sarif(fresh, all_codes()))
    else:
        for diagnostic in fresh:
            print(diagnostic.render())
    if not (args.select or args.ignore or args.changed_only):
        # With a code filter active the baseline legitimately under-fires,
        # so staleness would be noise.
        for path, code, allowed, seen in baseline.stale_entries():
            print(
                f"warning: stale baseline entry {path}:{code} "
                f"(allows {allowed}, found {seen}) — delete it",
                file=sys.stderr,
            )
    if fresh:
        if args.format == "text":
            print(
                f"\n{len(fresh)} finding(s). Fix them, suppress inline with "
                f"'# fresque-lint: disable=CODE -- why', or baseline with "
                f"--update-baseline.",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
