"""Rule R201: registry completeness and docs integrity, one checker.

Checks markdown link integrity and scenario catalogue rows, and promotes
the fidelity suite's runtime registry-drift guard to a static check: a scenario or topology family can only register
if its documentation row, candidate moves (or an explicit exemption) and
declared fluid-vs-packet tolerances land with it.

The individual checks are plain functions over explicit inputs so tests
can drive them with synthetic registries; the rule glues them to the live
registries and the repo tree.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Set

from repro.lint.framework import Finding, LintRun, Rule, register_rule

#: ``[text](target)`` -- deliberately simple; code spans contain no links.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: Topology families allowed to register zero candidate moves, with the
#: reviewed reason.  Everything else must offer the planner at least one
#: move -- a family the control loop cannot act on silently reduces every
#: adaptive experiment over it to the static baseline.
MOVE_EXEMPT_FAMILIES: Mapping[str, str] = {
    "torus": "already the paper's target shape; grid-to-torus lands here",
}

#: Where the fidelity tolerance tables live.
FIDELITY_TEST = "tests/test_backend_fidelity.py"

#: Mesh families gated by the small-scenario table rather than the
#: topology-family table.
_MESH_FAMILIES = ("grid", "torus")


def _finding(path: str, message: str, line: int = 0) -> Finding:
    return Finding(rule="R201", path=path, line=line, message=message)


def check_links(repo_root: Path) -> List[Finding]:
    """Every relative markdown link in README/docs resolves to a file."""
    findings: List[Finding] = []
    pages = [repo_root / "README.md", *sorted((repo_root / "docs").glob("*.md"))]
    for page in pages:
        if not page.exists():
            continue
        rel = page.relative_to(repo_root).as_posix()
        for number, line in enumerate(page.read_text().splitlines(), start=1):
            for target in _LINK.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                    continue
                path = target.split("#", 1)[0]
                if not path:  # same-page anchor
                    continue
                if not (page.parent / path).resolve().exists():
                    findings.append(
                        _finding(rel, f"broken link {target!r}", number)
                    )
    return findings


def check_scenario_docs(
    scenario_names: Sequence[str], catalog_text: str, catalog_rel: str
) -> List[Finding]:
    """Every registered scenario appears as `` `name` `` in the catalogue."""
    return [
        _finding(
            catalog_rel,
            f"scenario {name!r} is registered but has no docs table row",
        )
        for name in scenario_names
        if f"`{name}`" not in catalog_text
    ]


def check_family_moves(
    family_moves: Mapping[str, Sequence[str]],
    exemptions: Mapping[str, str],
    registry_rel: str,
) -> List[Finding]:
    """Every topology family has >= 1 registered move or an exemption."""
    findings: List[Finding] = []
    for family, moves in sorted(family_moves.items()):
        if moves or family in exemptions:
            continue
        findings.append(
            _finding(
                registry_rel,
                f"topology family {family!r} registers no candidate moves "
                "and is not exempt (MOVE_EXEMPT_FAMILIES in "
                "src/repro/lint/rules/registry_docs.py); the control loop "
                "cannot act on it",
            )
        )
    stale = sorted(set(exemptions) - set(family_moves))
    for family in stale:
        findings.append(
            _finding(
                registry_rel,
                f"move exemption for unknown topology family {family!r}; "
                "remove it from MOVE_EXEMPT_FAMILIES",
            )
        )
    for family in sorted(set(exemptions) & set(family_moves)):
        if family_moves[family]:
            findings.append(
                _finding(
                    registry_rel,
                    f"topology family {family!r} now registers moves; drop "
                    "its stale MOVE_EXEMPT_FAMILIES entry",
                )
            )
    return findings


def declared_table_keys(test_text: str) -> Dict[str, Set[str]]:
    """String keys of every module-level ``NAME = {...}`` tolerance table."""
    tables: Dict[str, Set[str]] = {}
    tree = ast.parse(test_text)
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name) or not isinstance(node.value, ast.Dict):
            continue
        keys = {
            key.value
            for key in node.value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        tables[target.id] = keys
    return tables


def check_tolerance_tables(
    expected_small: Set[str],
    expected_topology: Set[str],
    expected_loop: Set[str],
    tables: Mapping[str, Set[str]],
    test_rel: str,
) -> List[Finding]:
    """The fidelity tolerance tables cover the registry exactly.

    *expected_small*: registered mesh scenarios on small default fabrics
    (the set the fidelity gate sweeps); *expected_topology*: scenarios on
    non-mesh topology families; *expected_loop*: scenarios whose default
    controller is the closed loop.  Each must match its declared table --
    in both directions, so stale rows fail too.
    """
    findings: List[Finding] = []

    def compare(expected: Set[str], names: Sequence[str], what: str) -> None:
        declared: Set[str] = set()
        missing_tables = [name for name in names if name not in tables]
        for name in names:
            declared |= tables.get(name, set())
        if missing_tables:
            findings.append(
                _finding(
                    test_rel,
                    f"expected tolerance table(s) {missing_tables} not found "
                    f"as module-level dict literals",
                )
            )
            return
        for name in sorted(expected - declared):
            findings.append(
                _finding(
                    test_rel,
                    f"{what} scenario {name!r} declares no fluid-vs-packet "
                    f"tolerance in {'/'.join(names)}; new scenarios must land "
                    "with a measured divergence budget",
                )
            )
        for name in sorted(declared - expected):
            findings.append(
                _finding(
                    test_rel,
                    f"stale {what} tolerance row {name!r} "
                    f"(in {'/'.join(names)}) matches no registered scenario",
                )
            )

    compare(expected_small, ["TOLERANCES"], "small mesh")
    compare(expected_topology, ["TOPOLOGY_TOLERANCES"], "topology-family")
    compare(
        expected_loop,
        ["LOOP_TOLERANCES", "TOPOLOGY_LOOP_TOLERANCES"],
        "loop-controlled",
    )
    return findings


@register_rule
class RegistryDocsRule(Rule):
    """R201: registries, docs and tolerance tables move together.

    The docs checks and the fidelity suite's runtime drift guards in
    one static pass with one suppression mechanism: markdown links resolve, every registered scenario has a
    catalogue row, every topology family offers the planner a move (or
    carries a reviewed exemption), and every scenario the fidelity gate
    should sweep declares its divergence budget before it lands.
    """

    code = "R201"
    name = "registry-docs-completeness"
    rationale = (
        "a scenario, family or tolerance row that drifts from its "
        "registry silently narrows every gate built on top of it"
    )
    repo_wide = True

    def check_repo(self, run: LintRun) -> Iterable[Finding]:
        repo_root = run.repo_root
        if repo_root is None:
            return []
        findings = list(check_links(repo_root))
        findings.extend(self._scenario_checks(repo_root))
        return findings

    def _scenario_checks(self, repo_root: Path) -> List[Finding]:
        from repro.core.candidates import candidate_moves
        from repro.experiments.scenarios import list_scenarios
        from repro.fabric.topologies import topology_catalog

        findings: List[Finding] = []
        scenarios = list_scenarios()

        catalog_path = repo_root / "docs" / "scenarios.md"
        if catalog_path.exists():
            findings.extend(
                check_scenario_docs(
                    [scenario.name for scenario in scenarios],
                    catalog_path.read_text(),
                    "docs/scenarios.md",
                )
            )
        else:
            findings.append(
                _finding("docs/scenarios.md", "scenario catalogue page missing")
            )

        family_moves = {
            family.name: candidate_moves(family.name)
            for family in topology_catalog()
        }
        findings.extend(
            check_family_moves(
                family_moves,
                MOVE_EXEMPT_FAMILIES,
                "src/repro/fabric/topologies/registry.py",
            )
        )

        test_path = repo_root / FIDELITY_TEST
        if not test_path.exists():
            findings.append(
                _finding(FIDELITY_TEST, "fidelity tolerance tables missing")
            )
            return findings
        expected_small = set()
        expected_topology = set()
        expected_loop = set()
        for scenario in scenarios:
            params = scenario.parameters()
            topology = params.get("topology")
            if topology in _MESH_FAMILIES:
                small = (
                    int(params.get("rows", 0)) * int(params.get("columns", 0))
                    <= 9
                )
                if small:
                    expected_small.add(scenario.name)
            else:
                expected_topology.add(scenario.name)
            if params.get("controller") == "loop":
                expected_loop.add(scenario.name)
        findings.extend(
            check_tolerance_tables(
                expected_small,
                expected_topology,
                expected_loop,
                declared_table_keys(test_path.read_text()),
                FIDELITY_TEST,
            )
        )
        return findings
