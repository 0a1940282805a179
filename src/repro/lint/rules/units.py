"""Rule U101: the ``_bps/_bits/_bytes/_seconds`` suffix discipline.

The simulator is SI-internal (seconds, bits, bits-per-second; see
:mod:`repro.sim.units`), and the convention that a variable's unit rides
in its name suffix is what keeps 800-line engine files auditable.  This
rule turns the convention from a comment into a check: quantities with
*different* unit suffixes may not be added or subtracted, and magic
power-of-ten literals next to a suffixed quantity must go through the
:mod:`repro.sim.units` helpers instead.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from repro.lint.framework import FileContext, Rule, register_rule

#: name suffix -> unit dimension.  ``_bits`` and ``_bytes`` are distinct
#: on purpose: mixing them is the classic factor-of-8 bug.
UNIT_SUFFIXES = {
    "_bps": "rate (bits/second)",
    "_bits": "data (bits)",
    "_bytes": "data (bytes)",
    "_seconds": "time (seconds)",
}

#: Power-of-ten literals the units helpers already name (KILO/MEGA/GIGA,
#: MILLISECONDS/MICROSECONDS/NANOSECONDS, GBPS, ...).
_MAGIC_LITERALS = {1e3, 1e6, 1e9, 1e12, 1e-3, 1e-6, 1e-9}

#: The module that defines the helpers; it is allowed its own literals.
_UNITS_HOME = "src/repro/sim/units.py"


def unit_of(name: Optional[str]) -> Optional[str]:
    """The unit dimension a variable name declares via its suffix."""
    if not name:
        return None
    for suffix, dimension in UNIT_SUFFIXES.items():
        if name.endswith(suffix):
            return dimension
    return None


def _name_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_magic_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and float(node.value) in _MAGIC_LITERALS
    )


@register_rule
class UnitSuffixRule(Rule):
    """U101: suffixed quantities keep their dimension through ``+``/``-``.

    Adding seconds to bits type-checks, runs, and produces a plausible
    float; only the plotted curve is wrong.  The suffix convention makes
    the mistake *visible* in the source -- this rule makes it fatal.  The
    companion check flags bare ``1e9``-style scale factors multiplied or
    divided into a suffixed quantity: ``rate_bps / 1e9`` silently encodes
    "gigabits" where ``rate_bps / GBPS`` (:data:`repro.sim.units.GBPS`)
    says it.
    """

    code = "U101"
    name = "unit-suffix-discipline"
    rationale = (
        "mixed-unit arithmetic and magic scale factors produce plausible "
        "but wrong numbers that no runtime test can distinguish"
    )
    paths = ("src/repro/",)
    node_types = (ast.BinOp, ast.AugAssign)

    def applies_to(self, rel: str) -> bool:
        return super().applies_to(rel) and rel != _UNITS_HOME

    def visit(self, node: ast.AST, stack: Sequence[ast.AST], ctx: FileContext) -> None:
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                self._check_mix(node, node.left, node.right, ctx)
            elif isinstance(node.op, (ast.Mult, ast.Div)):
                self._check_literal(node, ctx)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            self._check_mix(node, node.target, node.value, ctx)

    def _check_mix(
        self, node: ast.AST, left: ast.AST, right: ast.AST, ctx: FileContext
    ) -> None:
        left_name, right_name = _name_of(left), _name_of(right)
        left_unit, right_unit = unit_of(left_name), unit_of(right_name)
        if left_unit is None or right_unit is None:
            return
        if left_unit != right_unit:
            ctx.report(
                self, node,
                f"adding/subtracting {left_name!r} [{left_unit}] and "
                f"{right_name!r} [{right_unit}] mixes unit dimensions; "
                "convert through repro.sim.units first",
            )

    def _check_literal(self, node: ast.BinOp, ctx: FileContext) -> None:
        for literal, other in ((node.left, node.right), (node.right, node.left)):
            if _is_magic_literal(literal) and _name_of(other) is not None:
                value = literal.value  # type: ignore[attr-defined]
                ctx.report(
                    self, node,
                    f"bare scale factor {value!r} combined with "
                    f"{_name_of(other)!r}; use the repro.sim.units "
                    "constants/helpers (GBPS, to_microseconds, ...) so the "
                    "unit conversion is named",
                )
                return
