"""The rule-plugin registry and the project rules REP000..REP006.

A rule declares the AST node types it is interested in; the engine
walks each module exactly once and dispatches every node to the rules
registered for its type (a single-pass visitor, not one walk per rule).
Rules receive a :class:`FileContext` that resolves imported-module
aliases (``import time as _time`` -> ``_time.time`` is ``time.time``)
and tracks whether the node sits inside an ``async def``.

The contract rules (REP005, REP006) check against the *live*
registries: exit codes against :data:`ALLOWED_EXIT_CODES` (the CLI
contract documented in :mod:`repro.cli`), metric names against
:data:`repro.obs.metrics.METRIC_FAMILIES` /
:data:`repro.obs.metrics.CORE_METRIC_NAMES`, and telemetry kinds
against :data:`repro.obs.telemetry.KNOWN_KINDS` -- so adding a family
or kind in one place updates both the runtime and the linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.lint.findings import Finding
from repro.obs.metrics import CORE_METRIC_NAMES, METRIC_FAMILIES
from repro.obs.telemetry import KNOWN_KINDS

__all__ = [
    "ALLOWED_EXIT_CODES",
    "FileContext",
    "RULES",
    "Rule",
    "rule",
]

#: The CLI exit-code contract: 0 success, 1 runtime failure / findings,
#: 2 usage error, 130 Ctrl-C (see the :mod:`repro.cli` docstring).
ALLOWED_EXIT_CODES = frozenset({0, 1, 2, 130})

#: ``random``-module members that *are* the seed discipline.
_SEEDED_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: ``numpy.random`` members that construct seeded generators.
_SEEDED_NUMPY_OK = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64"})

#: Calls that block the thread and must never run on the event loop.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "socket.create_connection",
        "socket.getaddrinfo",
        "urllib.request.urlopen",
        "open",
        "input",
    }
)

#: Prefixes of call targets that are blocking wholesale.
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "shutil.")

#: MetricsRegistry instrument-constructor method names.
_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "timer", "histogram"})


@dataclass(slots=True)
class Rule:
    """One registered rule: metadata plus a node-check callback."""

    id: str
    title: str
    rationale: str
    interests: tuple[type[ast.AST], ...]
    check: Callable[[ast.AST, "FileContext"], Iterable[Finding]]


#: The plugin registry, id -> rule, populated by :func:`rule`.
RULES: dict[str, Rule] = {}


def rule(
    rule_id: str, title: str, rationale: str, interests: tuple[type[ast.AST], ...]
) -> Callable:
    """Class-level decorator registering a check function as a rule."""

    def register(fn: Callable[[ast.AST, "FileContext"], Iterable[Finding]]) -> Callable:
        if rule_id in RULES:
            raise ValueError(f"duplicate lint rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, title, rationale, interests, fn)
        return fn

    return register


@dataclass(slots=True)
class FileContext:
    """Per-file state shared by every rule during one pass."""

    path: str
    lines: list[str]
    #: local alias -> imported module dotted path (``np`` -> ``numpy``).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> ``module.member`` for ``from module import member``.
    from_imports: dict[str, str] = field(default_factory=dict)
    #: ``async def`` nesting depth at the node being visited.
    async_depth: int = 0

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=rule_id,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
        )

    def collect_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_call(self, func: ast.expr) -> str | None:
        """Dotted target of a call, through import aliases.

        ``Name`` resolves through ``from``-imports, else to itself (the
        builtin case: ``hash``, ``open``).  ``Attribute`` chains resolve
        only when rooted at an imported module alias, so ``self.time()``
        or ``clock.time()`` never misfire as ``time.time()``.
        """
        if isinstance(func, ast.Name):
            return self.from_imports.get(func.id, func.id)
        if isinstance(func, ast.Attribute):
            parts: list[str] = []
            node: ast.expr = func
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            base = self.module_aliases.get(node.id)
            if base is None:
                return None
            parts.append(base)
            return ".".join(reversed(parts))
        return None


def _is_unordered_iterable(node: ast.expr, ctx: FileContext) -> bool:
    """Set-typed expressions whose iteration order is unspecified."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve_call(node.func) in ("set", "frozenset")
    return False


# -- REP000 is synthesized by the engine (parse failures) and the ------
# -- waiver parser (malformed waivers); registering it here gives it ---
# -- a catalog entry and a uniform appearance in reports. --------------

rule(
    "REP000",
    "lint tool integrity",
    "a file the linter cannot parse, or a waiver it cannot honor, is itself "
    "a hole in the invariant net and must be visible",
    (),
)(lambda node, ctx: ())


@rule(
    "REP001",
    "determinism",
    "schedules, cache keys, and sweep seeds must be pure functions of their "
    "inputs: unseeded RNGs, the per-process-salted builtin hash(), and "
    "unordered set iteration all break bit-identical replay",
    (ast.Call, ast.For, ast.AsyncFor, ast.comprehension),
)
def _check_determinism(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, ast.Call):
        target = ctx.resolve_call(node.func)
        if target is None:
            return
        if target.startswith("random.") and target.split(".", 1)[1] not in _SEEDED_RANDOM_OK:
            yield ctx.finding(
                "REP001",
                node,
                f"global-state RNG call {target}() -- use a seeded "
                "random.Random(seed) instance (see repro.parallel.seeds)",
            )
        elif (
            target.startswith("numpy.random.")
            and target.rsplit(".", 1)[1] not in _SEEDED_NUMPY_OK
        ):
            yield ctx.finding(
                "REP001",
                node,
                f"legacy global numpy RNG call {target}() -- use "
                "numpy.random.default_rng(seed)",
            )
        elif target == "hash":
            yield ctx.finding(
                "REP001",
                node,
                "builtin hash() is salted per process -- use hashlib or "
                "repro.parallel.seeds.derive_seed for keys and fingerprints",
            )
    elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        iter_expr = node.iter
        if _is_unordered_iterable(iter_expr, ctx):
            yield ctx.finding(
                "REP001",
                iter_expr,
                "iteration over a set has unspecified order -- wrap in sorted() "
                "before it can feed a schedule, cache key, or exported table",
            )


@rule(
    "REP002",
    "timing hygiene",
    "durations and uptimes measured with the wall clock jump with NTP steps "
    "and DST; timing paths must use time.monotonic()/time.perf_counter(), "
    "keeping wall-clock reads for display-only timestamps",
    (ast.Call,),
)
def _check_timing(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    if ctx.resolve_call(node.func) == "time.time":
        yield ctx.finding(
            "REP002",
            node,
            "time.time() is not monotonic -- use time.monotonic() or "
            "time.perf_counter() for durations; waive only display-only "
            "wall-clock timestamps",
        )


@rule(
    "REP003",
    "async hygiene",
    "a blocking call inside an async def stalls the whole event loop -- every "
    "connection, deadline, and drain in repro.service shares that loop",
    (ast.Call,),
)
def _check_async_blocking(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    if ctx.async_depth == 0:
        return
    target = ctx.resolve_call(node.func)
    if target is None:
        return
    if target in _BLOCKING_CALLS or target.startswith(_BLOCKING_PREFIXES):
        yield ctx.finding(
            "REP003",
            node,
            f"blocking call {target}() inside an async def -- use the asyncio "
            "equivalent or offload via loop.run_in_executor()",
        )


def _handler_is_blanket(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True  # bare except:
    if isinstance(node, ast.Name):
        return node.id in ("Exception", "BaseException")
    if isinstance(node, ast.Tuple):
        return any(
            isinstance(el, ast.Name) and el.id in ("Exception", "BaseException")
            for el in node.elts
        )
    return False


@rule(
    "REP004",
    "exception hygiene",
    "a blanket `except Exception` that neither re-raises nor emits a metric / "
    "telemetry record makes failures invisible to the metrics, the resilience "
    "counters, and the operator",
    (ast.ExceptHandler,),
)
def _check_exception_swallow(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.ExceptHandler)
    if not _handler_is_blanket(node):
        return
    for stmt in node.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Raise, ast.Call)):
                return  # re-raised, or at least *did something* observable
    yield ctx.finding(
        "REP004",
        node,
        "blanket except swallows the failure silently -- re-raise, emit a "
        "metric/telemetry record, or waive with a reason",
    )


def _constant_int(node: ast.expr | None) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        if not isinstance(node.value, bool):
            return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


@rule(
    "REP005",
    "CLI exit-code contract",
    "scripts and CI gate on the documented exit codes (0 success, 1 failure/"
    "findings, 2 usage, 130 interrupt); any other constant code silently "
    "breaks those gates",
    (ast.Call, ast.Raise),
)
def _check_exit_codes(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    call: ast.Call | None = None
    if isinstance(node, ast.Call) and ctx.resolve_call(node.func) == "sys.exit":
        call = node
    elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        target = ctx.resolve_call(node.exc.func)
        if target in ("SystemExit", "builtins.SystemExit"):
            call = node.exc
    if call is None or not call.args:
        return
    code = _constant_int(call.args[0])
    if code is not None and code not in ALLOWED_EXIT_CODES:
        allowed = ", ".join(str(c) for c in sorted(ALLOWED_EXIT_CODES))
        yield ctx.finding(
            "REP005",
            node,
            f"exit code {code} is outside the CLI contract {{{allowed}}} "
            "(see the repro.cli docstring)",
        )


def _metric_name_ok(name: str) -> bool:
    if name in CORE_METRIC_NAMES:
        return True
    return any(name.startswith(f"{family}.") for family in METRIC_FAMILIES)


def _metric_prefix_ok(prefix: str) -> bool:
    """An f-string metric name is checked by its literal prefix."""
    return any(prefix.startswith(f"{family}.") for family in METRIC_FAMILIES)


@rule(
    "REP006",
    "telemetry naming contract",
    "dashboards, the Prometheus exporter, and stats tooling key on the "
    "registered sim.* metric families and RunRecord kinds; an unregistered "
    "literal is a metric nobody will ever scrape",
    (ast.Call,),
)
def _check_telemetry_names(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    func = node.func
    # registry.counter("sim.family.name") and friends
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _INSTRUMENT_METHODS
        and node.args
    ):
        arg = node.args[0]
        families = ", ".join(sorted(METRIC_FAMILIES))
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _metric_name_ok(arg.value):
                yield ctx.finding(
                    "REP006",
                    arg,
                    f"metric name {arg.value!r} is not in a registered family "
                    f"({families}) or the core sim.* set "
                    "(repro.obs.metrics.METRIC_FAMILIES / CORE_METRIC_NAMES)",
                )
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            first = arg.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if not _metric_prefix_ok(first.value):
                    yield ctx.finding(
                        "REP006",
                        arg,
                        f"dynamic metric name prefix {first.value!r} is not in a "
                        f"registered family ({families})",
                    )
    # every kind="..." literal must be a registered RunRecord kind: records
    # are built at RunRecord(...) calls and also through helpers that pass
    # the kind on (Machine.record, emit_event); emit_event's counter="..."
    # names a metric, checked like an instrument name
    for kw in node.keywords:
        if (
            kw.arg == "counter"
            and isinstance(kw.value, ast.Constant)
            and isinstance(kw.value.value, str)
            and not _metric_name_ok(kw.value.value)
        ):
            families = ", ".join(sorted(METRIC_FAMILIES))
            yield ctx.finding(
                "REP006",
                kw.value,
                f"counter name {kw.value.value!r} is not in a registered family "
                f"({families}) or the core sim.* set "
                "(repro.obs.metrics.METRIC_FAMILIES / CORE_METRIC_NAMES)",
            )
        if (
            kw.arg == "kind"
            and isinstance(kw.value, ast.Constant)
            and isinstance(kw.value.value, str)
            and kw.value.value not in KNOWN_KINDS
        ):
            kinds = ", ".join(sorted(KNOWN_KINDS))
            yield ctx.finding(
                "REP006",
                kw.value,
                f"RunRecord kind {kw.value.value!r} is not registered "
                f"({kinds}) -- add it to repro.obs.telemetry.KNOWN_KINDS "
                "first",
            )
