"""The rule framework: findings, suppressions, the shared AST walk.

Every correctness guarantee in this reproduction -- allocator parity,
engine bit-exactness, sweep worker-count determinism -- is enforced at
runtime by parity tests that catch drift *after* it ships.  ``repro.lint``
checks the same invariants at the source level: rules are small classes
registered with the :func:`register_rule` decorator (mirroring the
controller/scenario/topology registries), and every AST rule hooks into a
**single shared walk** per file -- the framework parses each source file
once, walks its tree once, and dispatches each node to the rules that
declared an interest in its type, together with the ancestor stack (so a
rule can see the enclosing function or class without re-walking).

A finding is silenced inline, with a ``# repro: ignore[D001]`` comment on
the offending line (``# repro: ignore`` silences every rule on that line).

Rules fall into two shapes.  *File rules* declare ``node_types`` and
implement :meth:`Rule.visit` (plus optional ``begin_file``/``end_file``
hooks); *repo rules* (parity pairing, registry/docs completeness) set
``repo_wide = True`` and implement :meth:`Rule.check_repo`, which sees the
whole run.  One rule may be both.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Type


class LintError(ValueError):
    """Raised for duplicate rule codes, unknown rule names or bad configs."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``line`` is 1-based; file-level findings (a missing docs row, a parity
    declaration gone stale) use line 0.
    """

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location}: {self.rule} {self.message}"


#: Sentinel for "every rule suppressed on this line".
ALL_RULES = "*"

_SUPPRESS = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


def _parse_suppressions(text: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule codes suppressed there."""
    table: Dict[int, FrozenSet[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if "repro:" not in line:
            continue
        match = _SUPPRESS.search(line)
        if match is None:
            continue
        codes = match.group(1)
        if codes is None:
            table[number] = frozenset((ALL_RULES,))
        else:
            table[number] = frozenset(
                code.strip() for code in codes.split(",") if code.strip()
            )
    return table


class SourceFile:
    """One parsed Python source file plus its suppression table."""

    def __init__(self, rel: str, text: str, path: Optional[Path] = None) -> None:
        #: Repo-relative posix path; rules scope on it.
        self.rel = rel.replace("\\", "/")
        self.text = text
        self.path = path
        self.suppressions = _parse_suppressions(text)
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(text)
        except SyntaxError as error:
            self.tree = None
            self.syntax_error = error

    @classmethod
    def read(cls, path: Path, repo_root: Path) -> "SourceFile":
        rel = path.resolve().relative_to(repo_root.resolve()).as_posix()
        return cls(rel, path.read_text(), path=path)

    def is_suppressed(self, rule: str, line: int) -> bool:
        codes = self.suppressions.get(line)
        if codes is None:
            return False
        return ALL_RULES in codes or rule in codes


class FileContext:
    """What a rule sees while one file is walked: the file plus a reporter."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.findings: List[Finding] = []

    def report(self, rule: "Rule", node_or_line, message: str) -> None:
        """Record a finding at an AST node or explicit line number."""
        line = getattr(node_or_line, "lineno", node_or_line) or 0
        self.findings.append(
            Finding(
                rule=rule.code,
                path=self.source.rel,
                line=int(line),
                message=message,
            )
        )


class Rule:
    """Base class every lint rule extends.

    Class attributes declare the rule's identity and scope:

    ``code``/``name``/``rationale``
        The catalogue entry (``docs/lint.md`` mirrors these).
    ``paths``
        Repo-relative directory prefixes the rule inspects; ``None`` means
        every linted Python file.
    ``node_types``
        AST node classes the shared walk dispatches to :meth:`visit`.
    ``repo_wide``
        When true, :meth:`check_repo` runs once per lint run with the
        whole :class:`LintRun` (cross-file rules).
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    paths: Optional[Tuple[str, ...]] = None
    node_types: Tuple[type, ...] = ()
    repo_wide: bool = False

    def applies_to(self, rel: str) -> bool:
        if self.paths is None:
            return True
        return any(rel.startswith(prefix) for prefix in self.paths)

    def begin_file(self, ctx: FileContext) -> None:
        """Per-file setup before the shared walk starts."""

    def visit(self, node: ast.AST, stack: Sequence[ast.AST], ctx: FileContext) -> None:
        """Handle one node of interest; *stack* is the ancestor chain."""

    def end_file(self, ctx: FileContext) -> None:
        """Per-file teardown after the shared walk finishes."""

    def check_repo(self, run: "LintRun") -> Iterable[Finding]:
        """Cross-file checks (only called when ``repo_wide``)."""
        return ()


_RULES: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its ``code``.

    Mirrors :func:`repro.core.controllers.register_controller`: duplicate
    codes are registration-time errors, and third-party rules plug in
    without touching this package::

        @register_rule
        class MyRule(Rule):
            code = "X900"
            ...
    """
    if not cls.code:
        raise LintError(f"rule {cls.__name__} declares no code")
    if cls.code in _RULES:
        raise LintError(f"rule code {cls.code!r} is already registered")
    _RULES[cls.code] = cls()
    return cls


def rule_catalog() -> List[Rule]:
    """Registered rules in code order."""
    return [_RULES[code] for code in sorted(_RULES)]


def resolve_rules(codes: Optional[Sequence[str]] = None) -> List[Rule]:
    """The rules selected by *codes* (all registered rules when ``None``)."""
    if codes is None:
        return rule_catalog()
    selected = []
    for code in codes:
        if code not in _RULES:
            known = ", ".join(sorted(_RULES))
            raise LintError(f"unknown rule {code!r}; registered rules: {known}")
        selected.append(_RULES[code])
    return selected


def _walk_dispatch(ctx: FileContext, rules: Sequence[Rule]) -> None:
    """The shared walk: one parse, one traversal, every rule dispatched.

    Iterative depth-first traversal that maintains the ancestor stack and
    hands each node to every rule that declared its type -- the tree is
    never walked once per rule.
    """
    interested: List[Tuple[Rule, Tuple[type, ...]]] = [
        (rule, rule.node_types) for rule in rules if rule.node_types
    ]
    if not interested or ctx.source.tree is None:
        return
    stack: List[ast.AST] = []
    # (node, entered?) -- entered nodes are popped off the ancestor stack.
    work: List[Tuple[ast.AST, bool]] = [(ctx.source.tree, False)]
    while work:
        node, entered = work.pop()
        if entered:
            stack.pop()
            continue
        for rule, types in interested:
            if isinstance(node, types):
                rule.visit(node, stack, ctx)
        work.append((node, True))
        stack.append(node)
        children = list(ast.iter_child_nodes(node))
        for child in reversed(children):
            work.append((child, False))


@dataclass
class LintRun:
    """One lint invocation: the files, the repo root, the findings."""

    files: List[SourceFile]
    repo_root: Optional[Path] = None
    findings: List[Finding] = field(default_factory=list)

    def file(self, rel: str) -> Optional[SourceFile]:
        for source in self.files:
            if source.rel == rel:
                return source
        return None


def find_repo_root(start: Path) -> Optional[Path]:
    """Walk up from *start* to the directory holding ``pyproject.toml``."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def collect_files(paths: Sequence[Path], repo_root: Path) -> List[SourceFile]:
    """Parse every ``*.py`` under *paths* (sorted, pycache excluded)."""
    seen: Dict[str, SourceFile] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            candidates = [path]
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            source = SourceFile.read(candidate, repo_root)
            seen[source.rel] = source
    return [seen[rel] for rel in sorted(seen)]


def run_rules(
    files: Sequence[SourceFile],
    rules: Optional[Sequence[Rule]] = None,
    repo_root: Optional[Path] = None,
) -> LintRun:
    """Run *rules* over *files*; inline suppressions are already applied.

    Repo-wide rules only run when *repo_root* is given (they need the docs
    tree and the registries, not just the parsed sources).
    """
    active = list(rules) if rules is not None else rule_catalog()
    run = LintRun(files=list(files), repo_root=repo_root)
    for source in run.files:
        if source.syntax_error is not None:
            run.findings.append(
                Finding(
                    rule="E999",
                    path=source.rel,
                    line=source.syntax_error.lineno or 0,
                    message=f"syntax error: {source.syntax_error.msg}",
                )
            )
            continue
        applicable = [rule for rule in active if rule.applies_to(source.rel)]
        if not applicable:
            continue
        ctx = FileContext(source)
        for rule in applicable:
            rule.begin_file(ctx)
        _walk_dispatch(ctx, applicable)
        for rule in applicable:
            rule.end_file(ctx)
        run.findings.extend(
            finding
            for finding in ctx.findings
            if not source.is_suppressed(finding.rule, finding.line)
        )
    if repo_root is not None:
        for rule in active:
            if rule.repo_wide:
                for finding in rule.check_repo(run):
                    source = run.file(finding.path)
                    if source is not None and source.is_suppressed(
                        finding.rule, finding.line
                    ):
                        continue
                    run.findings.append(finding)
    run.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return run
