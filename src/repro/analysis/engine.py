"""Lint engine: file discovery, rule execution, suppression filtering."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .directives import Directives
from .findings import Finding, LintContext
from .rules import Rule, iter_rules

#: Modules whose training/eval loops are vectorised fast paths (LNT002).
DEFAULT_HOT_PATHS: Tuple[str, ...] = (
    "repro/eval/evaluator.py",
    "repro/eval/metrics.py",
    "repro/data/sampling.py",
    "repro/core/alignment.py",
    "repro/retrieval/retriever.py",
    "repro/retrieval/benchmark.py",
)

#: Modules holding evaluation/scoring entry points (LNT003).
DEFAULT_ENTRY_PATHS: Tuple[str, ...] = (
    "repro/models/",
    "repro/core/imcat.py",
    "repro/eval/evaluator.py",
)

#: Directory names skipped while walking directory arguments.  Files
#: passed explicitly on the command line are always linted, so the lint
#: test-fixtures stay checkable while ``repro.lint tests`` stays clean.
DEFAULT_EXCLUDED_DIRS: Tuple[str, ...] = (
    "__pycache__",
    ".git",
    ".venv",
    "_lint_fixtures",
    "fixtures",
)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no findings (including parse errors) were reported."""
        return not self.findings


class Linter:
    """Runs the registered rules over files, sources, or directory trees.

    Args:
        rules: rule instances to run (default: every registered rule).
        select: if given, only run rules with these codes.
        ignore: rule codes to drop entirely.
        hot_paths: path fragments treated as hot-path modules (LNT002).
        entry_paths: path fragments treated as entry-point modules
            (LNT003).
        excluded_dirs: directory names skipped during directory walks.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        hot_paths: Sequence[str] = DEFAULT_HOT_PATHS,
        entry_paths: Sequence[str] = DEFAULT_ENTRY_PATHS,
        excluded_dirs: Sequence[str] = DEFAULT_EXCLUDED_DIRS,
    ) -> None:
        active = list(rules) if rules is not None else iter_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {rule.code for rule in active}
            if unknown:
                raise ValueError(f"unknown rule codes selected: {sorted(unknown)}")
            active = [rule for rule in active if rule.code in wanted]
        if ignore is not None:
            dropped = set(ignore)
            active = [rule for rule in active if rule.code not in dropped]
        self.rules = active
        self.hot_paths = tuple(hot_paths)
        self.entry_paths = tuple(entry_paths)
        self.excluded_dirs = frozenset(excluded_dirs)

    # ------------------------------------------------------------------
    # single-unit entry points
    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Lint a source string; ``path`` is used for display/registries."""
        display = Path(path).as_posix()
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            return [
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    code="LNT000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        ctx = LintContext(
            path=display,
            source=source,
            tree=tree,
            directives=Directives.parse(source),
            hot_paths=self.hot_paths,
            entry_paths=self.entry_paths,
        )
        findings: List[Finding] = []
        for rule in self.rules:
            for finding in rule.check(ctx):
                if not ctx.directives.is_suppressed(finding.code, finding.line):
                    findings.append(finding)
        findings.sort(key=lambda f: (f.line, f.col, f.code))
        return findings

    def lint_file(self, path: os.PathLike) -> List[Finding]:
        """Lint one file from disk."""
        text = Path(path).read_text(encoding="utf-8")
        return self.lint_source(text, path=str(path))

    # ------------------------------------------------------------------
    # tree walking
    # ------------------------------------------------------------------
    def discover(self, paths: Sequence[os.PathLike]) -> List[Path]:
        """Expand files/directories into the list of Python files to lint.

        Directory walks skip :attr:`excluded_dirs`; files named
        explicitly are always included.  Missing paths raise.
        """
        out: List[Path] = []
        seen = set()
        for raw in paths:
            path = Path(raw)
            if path.is_file():
                candidates = [path]
            elif path.is_dir():
                candidates = [
                    candidate
                    for candidate in sorted(path.rglob("*.py"))
                    if not (set(candidate.parts[:-1]) & self.excluded_dirs)
                ]
            else:
                raise FileNotFoundError(f"no such file or directory: {path}")
            for candidate in candidates:
                key = candidate.resolve()
                if key not in seen:
                    seen.add(key)
                    out.append(candidate)
        return out

    def lint_paths(self, paths: Sequence[os.PathLike]) -> LintReport:
        """Lint every Python file reachable from ``paths``."""
        report = LintReport()
        for file_path in self.discover(paths):
            report.findings.extend(self.lint_file(file_path))
            report.files_checked += 1
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return report
