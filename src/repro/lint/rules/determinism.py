"""Rules D001/D002/D004: no unseeded randomness, no order-unstable
iteration, no interpreter-dependent float sums.

The reproduction's headline guarantees -- same seed, bit-identical rows,
for any sweep worker count, on either backend, on any interpreter -- only
hold while every stochastic draw flows through :mod:`repro.sim.random`, no
float accumulation or event scheduling depends on the iteration order of
a ``set``, and every float sum rounds the same way on every CPython.
These rules enforce all three at the source level.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Optional, Sequence, Tuple

from repro.lint.framework import FileContext, Finding, Rule, register_rule

#: Directories considered "simulation code": everything whose determinism
#: the parity suites rely on.  The CLI and analysis/report layers may read
#: the environment or the clock; the simulation core may not.
SIM_PATHS = (
    "src/repro/sim/",
    "src/repro/core/",
    "src/repro/fabric/",
    "src/repro/workloads/",
    "src/repro/phy/",
)

#: The one module that owns the random number generator: every stochastic
#: component draws from one of its named streams, each derived from the
#: experiment seed.  It alone is exempt from the draw checks below.
SEED_HOME = "src/repro/sim/random.py"


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register_rule
class UnseededSourceRule(Rule):
    """D001: every draw must come from the seeded named-stream factory.

    ``random`` module globals share one process-wide Mersenne state, numpy
    generators constructed outside :mod:`repro.sim.random` bypass the
    named-stream seed derivation, and wall-clock or environment reads make
    a run a function of when/where it ran.  Any of them silently breaks
    the bit-identical-rows contract the sweep engine and both simulation
    backends promise.  numpy may not be imported at all: the runtime is
    stdlib-only, and numpy does not promise the same streams across its
    versions (NEP 19), so rows would depend on what is installed.
    """

    code = "D001"
    name = "unseeded-nondeterministic-source"
    rationale = (
        "a single unseeded draw or clock/env read breaks run-to-run and "
        "worker-count bit-determinism everywhere downstream"
    )
    paths = ("src/repro/",)
    node_types = (ast.Call, ast.Subscript, ast.Import, ast.ImportFrom)

    #: Call prefixes that are nondeterministic wherever they appear.
    _BANNED_CALLS = {
        "time.time": "wall-clock read",
        "time.time_ns": "wall-clock read",
        "os.urandom": "OS entropy read",
        "uuid.uuid1": "host/time-derived identifier",
        "uuid.uuid4": "OS-entropy identifier",
    }
    _BANNED_DATETIME = {"now", "utcnow", "today"}

    def visit(self, node: ast.AST, stack: Sequence[ast.AST], ctx: FileContext) -> None:
        if isinstance(node, ast.Call):
            if ctx.source.rel != SEED_HOME:
                self._check_call(node, ctx)
        elif isinstance(node, ast.Subscript):
            self._check_env_read(node, ctx)
        else:
            self._check_import(node, ctx)

    def _check_import(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.level == 0 else []
        else:
            modules = [alias.name for alias in node.names]
        if any(module.split(".", 1)[0] == "numpy" for module in modules):
            ctx.report(
                self, node,
                "numpy import in the runtime; it is a test-only dependency -- "
                "draw from repro.sim.random and summarise with repro.sim.stats",
            )

    def _check_call(self, node: ast.Call, ctx: FileContext) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted in self._BANNED_CALLS:
            ctx.report(
                self, node,
                f"{dotted}() is a {self._BANNED_CALLS[dotted]}; simulation "
                "state may only depend on the experiment seed",
            )
            return
        head, _, tail = dotted.partition(".")
        if head == "random" and tail:
            ctx.report(
                self, node,
                f"{dotted}() draws from the process-wide unseeded Mersenne "
                "state; use repro.sim.random.RandomStreams named streams",
            )
            return
        if ("np.random." in dotted or "numpy.random." in dotted):
            ctx.report(
                self, node,
                f"{dotted}() constructs/draws outside {SEED_HOME}; every "
                "generator must be a named stream derived from the run seed",
            )
            return
        last = dotted.rsplit(".", 1)[-1]
        if last in self._BANNED_DATETIME and "datetime" in dotted:
            ctx.report(
                self, node,
                f"{dotted}() reads the wall clock; derive timestamps from "
                "simulation time or pass them in explicitly",
            )
            return
        if dotted in ("os.getenv", "os.environ.get") and self._in_sim(ctx):
            ctx.report(
                self, node,
                f"{dotted}() makes simulation behaviour depend on the "
                "launching environment; thread configuration through "
                "ExperimentSpec/scenario params instead",
            )

    def _check_env_read(self, node: ast.AST, ctx: FileContext) -> None:
        if not self._in_sim(ctx):
            return
        if isinstance(node, ast.Subscript) and _dotted(node.value) == "os.environ":
            ctx.report(
                self, node,
                "os.environ[...] read in simulation code; thread "
                "configuration through ExperimentSpec/scenario params",
            )

    @staticmethod
    def _in_sim(ctx: FileContext) -> bool:
        return any(ctx.source.rel.startswith(prefix) for prefix in SIM_PATHS)


# --------------------------------------------------------------------------- #
# D002: order-unstable iteration feeding floats or the event calendar
# --------------------------------------------------------------------------- #
#: Annotation heads meaning "this is a set".
_SET_HEADS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
#: Annotation heads meaning "this is a dict"; combined with a set value
#: annotation they yield ``dict_of_set``.
_DICT_HEADS = {"dict", "Dict", "DefaultDict", "defaultdict", "Mapping",
               "MutableMapping"}
#: Methods that return a set when called on a set.
_SET_METHODS = {"copy", "union", "intersection", "difference",
                "symmetric_difference"}
#: Calls whose result is order-stable regardless of the argument.
_STABILISERS = {"sorted", "min", "max", "sum", "len"}
#: Calls that preserve the (unstable) order of a set argument.
_ORDER_PRESERVERS = {"list", "tuple", "iter", "reversed", "enumerate"}
#: Scheduling/heap calls that make iteration order observable.
_SCHEDULING_CALLS = {"heappush", "heappushpop", "schedule", "schedule_at",
                     "call_at", "call_later"}

#: Inferred kinds.
_SET = "set"
_DICT_OF_SET = "dict_of_set"
_SET_KEYED_DICT = "set_keyed_dict"


def _annotation_kind(node: Optional[ast.AST]) -> Optional[str]:
    """Classify a type annotation as set / dict-of-set / neither."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: cheap textual probe.
        text = node.value
        head = text.split("[", 1)[0].strip()
        if head in _SET_HEADS:
            return _SET
        if head in _DICT_HEADS and ("Set[" in text or "set[" in text):
            return _DICT_OF_SET
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.attr if isinstance(node, ast.Attribute) else node.id
        return _SET if name in _SET_HEADS else None
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        if head_name in _SET_HEADS:
            return _SET
        if head_name in _DICT_HEADS:
            slice_node = node.slice
            if isinstance(slice_node, ast.Tuple) and len(slice_node.elts) == 2:
                if _annotation_kind(slice_node.elts[1]) == _SET:
                    return _DICT_OF_SET
    return None


class _ScopeEnv:
    """Inferred kinds of the names visible inside one function."""

    def __init__(self, locals_: Dict[str, str], attrs: Dict[str, str]) -> None:
        self.locals = locals_
        self.attrs = attrs  # "self.<name>" attribute kinds from the class


def _classify(node: ast.AST, env: _ScopeEnv) -> Optional[str]:
    """Best-effort static kind of an expression (None = not set-like)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return _SET
    if isinstance(node, ast.DictComp):
        for generator in node.generators:
            if _classify(generator.iter, env) in (_SET, _DICT_OF_SET):
                return _SET_KEYED_DICT
        return None
    if isinstance(node, ast.Name):
        return env.locals.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return env.attrs.get(node.attr)
        return None
    if isinstance(node, ast.Subscript):
        if _classify(node.value, env) == _DICT_OF_SET:
            return _SET
        return None
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        left = _classify(node.left, env)
        right = _classify(node.right, env)
        if _SET in (left, right):
            return _SET
        return None
    if isinstance(node, ast.IfExp):
        body = _classify(node.body, env)
        orelse = _classify(node.orelse, env)
        return body if body == orelse else None
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                return _SET
            if func.id in _STABILISERS:
                return None
            if func.id in _ORDER_PRESERVERS and node.args:
                inner = _classify(node.args[0], env)
                if inner in (_SET, _SET_KEYED_DICT):
                    return inner
                return None
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_METHODS:
                if _classify(func.value, env) == _SET:
                    return _SET
            if func.attr in ("keys", "items"):
                if _classify(func.value, env) == _SET_KEYED_DICT:
                    return _SET_KEYED_DICT
        return None
    return None


def _build_env(func: ast.AST, attrs: Dict[str, str]) -> _ScopeEnv:
    """Infer local-name kinds from annotations and simple assignments."""
    locals_: Dict[str, str] = {}
    env = _ScopeEnv(locals_, attrs)
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            kind = _annotation_kind(arg.annotation)
            if kind:
                locals_[arg.arg] = kind
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            kind = _annotation_kind(node.annotation)
            if kind:
                locals_[node.target.id] = kind
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                kind = _classify(node.value, env)
                if kind:
                    locals_[target.id] = kind
    return env


def _class_attr_kinds(cls: ast.ClassDef) -> Dict[str, str]:
    """Kinds of ``self.<attr>`` from annotated assignments in the class."""
    attrs: Dict[str, str] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.AnnAssign):
            continue
        target = node.target
        kind = _annotation_kind(node.annotation)
        if not kind:
            continue
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attrs[target.attr] = kind
        elif isinstance(target, ast.Name):
            attrs[target.id] = kind
    return attrs


def _order_sensitive_sink(body: Sequence[ast.stmt]) -> Optional[str]:
    """Does the loop body accumulate floats or schedule events?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
            ):
                return "float accumulation (augmented assignment)"
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                return "float accumulation (additive arithmetic)"
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if name in _SCHEDULING_CALLS:
                    return f"event scheduling ({name})"
    return None


@register_rule
class UnstableIterationRule(Rule):
    """D002: set iteration must not feed floats or the event calendar.

    Float addition is not associative, and the event calendar makes
    insertion order observable; iterating a ``set`` (or anything derived
    from one) into either makes the result a function of hash-table
    layout.  Integer sets happen to iterate reproducibly on today's
    CPython, string-keyed sets do not even survive a ``PYTHONHASHSEED``
    change -- neither is a contract.  Wrap the iterable in ``sorted()``
    (keyed by a registration index where elements are not comparable) or
    keep insertion-ordered structures (list/dict) instead.
    """

    code = "D002"
    name = "order-unstable-iteration"
    rationale = (
        "set iteration order feeding float accumulation or event "
        "scheduling silently varies with hash-table layout"
    )
    paths = SIM_PATHS
    node_types = (ast.For,)

    def begin_file(self, ctx: FileContext) -> None:
        self._env_cache: Dict[int, _ScopeEnv] = {}

    def visit(self, node: ast.AST, stack: Sequence[ast.AST], ctx: FileContext) -> None:
        assert isinstance(node, ast.For)
        func, cls = self._enclosing(stack)
        if func is None:
            return
        env = self._env_for(func, cls)
        kind = _classify(node.iter, env)
        if kind not in (_SET, _SET_KEYED_DICT):
            return
        sink = _order_sensitive_sink(node.body)
        if sink is None:
            return
        what = (
            "a set-keyed dict" if kind == _SET_KEYED_DICT else "a set"
        )
        ctx.report(
            self, node,
            f"iterating {what} here feeds {sink}; iterate a sorted() or "
            "insertion-ordered view instead",
        )

    def _enclosing(
        self, stack: Sequence[ast.AST]
    ) -> Tuple[Optional[ast.AST], Optional[ast.ClassDef]]:
        func = None
        cls = None
        for node in reversed(stack):
            if func is None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                func = node
            elif cls is None and isinstance(node, ast.ClassDef):
                cls = node
            if func is not None and cls is not None:
                break
        return func, cls

    def _env_for(
        self, func: ast.AST, cls: Optional[ast.ClassDef]
    ) -> _ScopeEnv:
        cached = self._env_cache.get(id(func))
        if cached is None:
            attrs = _class_attr_kinds(cls) if cls is not None else {}
            cached = _build_env(func, attrs)
            self._env_cache[id(func)] = cached
        return cached


# --------------------------------------------------------------------------- #
# D004: builtin sum() rounds floats differently from Python 3.12 on
# --------------------------------------------------------------------------- #
#: A ``D004`` suppression and the text that follows it on the line.
_D004_SUPPRESSION = re.compile(r"#\s*repro:\s*ignore\[[^\]]*\bD004\b[^\]]*\](.*)$")


@register_rule
class BuiltinSumRule(Rule):
    """D004: float sums go through :func:`repro.sim.stats.fsum_seq`.

    From Python 3.12 on, builtin ``sum`` adds floats with compensated
    (Neumaier) summation, where 3.11 and earlier add left to right, so one
    ``sum`` call can round differently per interpreter and move a pinned
    row.  ``fsum_seq`` is the plain left-to-right loop on every
    interpreter.  A ``sum`` over ints is exact in any order and may stay,
    with a ``# repro: ignore[D004]`` that says why; a suppression without a
    reason is itself a finding.
    """

    code = "D004"
    name = "builtin-float-sum"
    rationale = (
        "builtin sum() over floats rounds one way up to 3.11 and another "
        "from 3.12 on, so the same row hashes differently per interpreter"
    )
    paths = ("src/repro/",)
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, stack: Sequence[ast.AST], ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
            return
        ctx.report(
            self, node,
            "builtin sum() rounds floats differently from Python 3.12 on; "
            "use repro.sim.stats.fsum_seq, or suppress with the reason the "
            "terms are ints",
        )
        line = ctx.source.text.splitlines()[node.lineno - 1]
        match = _D004_SUPPRESSION.search(line)
        if match is not None and not match.group(1).strip():
            # File-level (line 0), so the bare suppression cannot silence it.
            ctx.findings.append(Finding(
                rule=self.code,
                path=ctx.source.rel,
                line=0,
                message=f"line {node.lineno}: a D004 suppression must say why the sum is exact",
            ))
