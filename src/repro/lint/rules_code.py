"""Code-level rule pack: determinism & concurrency-safety lint.

The repo's determinism guarantees (parallel == serial bit-for-bit,
replayable failure bundles, seeded chaos) are enforced behaviorally by
the test suites; this pack enforces them *statically* over the repo's
own sources so a future change can't quietly break the contract with an
unordered ``set`` iteration, an unseeded RNG or a module global mutated
from a worker.  Rules walk a :class:`~repro.lint.code_context.CodeContext`
(attached to the shared ``LintContext`` as ``ctx.code``) and no-op when
none is attached, so the pack coexists with the netlist packs in one
runner.

Two families:

* ``DET00x`` — determinism: unordered iteration feeding ordered output,
  unseeded RNGs, wall-clock reads in result-affecting code, float
  equality in numeric kernels, filesystem-order dependence.
* ``CONC00x`` — concurrency: module-global mutation from worker-
  reachable functions (via :mod:`repro.lint.callgraph`), unlocked
  shared-object mutation in lock-disciplined classes, exception
  swallowing, env mutation near worker pools.

All heuristics are intentionally name-based and conservative; findings
that are correct-by-design are recorded in ``.lint-baseline.json`` with
a written justification rather than silenced in code.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.code_context import CodeContext, SourceFile
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.lint.runner import LintRule, register

#: Module-label first segments whose code feeds solver results, arrival
#: ordering or emitted reports (DET001/DET003 scope).
RESULT_PACKAGES = ("core", "linalg", "spice", "analysis", "obs",
                   "interconnect", "circuit", "devices", "resilience",
                   "baselines", "io")
#: Numeric-kernel packages where float ``==`` is (almost) never right.
KERNEL_PACKAGES = ("core", "linalg", "spice")
#: Modules that *are* the fault/chaos harness: deliberate randomness
#: lives here (always behind a seeded Generator).
HARNESS_MODULES = ("resilience.faults", "resilience.chaos")
#: Assignment-target names that mark a wall-clock read as a metrics /
#: timeout sink rather than result-affecting data.
_TIMING_SINK_TARGET = re.compile(
    r"start|t0|now|deadline|elapsed|wall|stamp|submitted|began|created|"
    r"tic|toc", re.IGNORECASE)
#: Call names that are telemetry/trace sinks (wall-clock may flow in).
_SINK_CALLS = {"inc", "observe", "record", "set", "set_gauge",
               "add_event", "log", "debug", "info", "warning", "error"}
#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = {"append", "extend", "insert", "add", "update",
                     "pop", "popitem", "clear", "remove", "discard",
                     "setdefault", "appendleft", "popleft"}
#: Loop-body calls that materialize iteration order.
_ORDER_SINK_METHODS = {"append", "extend", "insert", "appendleft",
                       "write", "writelines", "put"}
#: Filesystem-enumeration callables returning OS-ordered listings.
_FS_ORDER_ATTRS = {"listdir", "scandir", "iterdir", "rglob", "iglob",
                   "glob"}


def _code(ctx: LintContext) -> Optional[CodeContext]:
    return getattr(ctx, "code", None)


def _loc(source: SourceFile, lineno: int) -> Location:
    return Location("code", source.relpath, source.symbol_at(lineno),
                    line=lineno)


def _in_packages(source: SourceFile, packages: Tuple[str, ...]) -> bool:
    head = source.module.split(".", 1)[0]
    return head in packages


def _callgraph(code: CodeContext) -> CallGraph:
    graph = getattr(code, "_callgraph", None)
    if graph is None:
        graph = CallGraph(code)
        code._callgraph = graph  # type: ignore[attr-defined]
    return graph


def _qualname(source: SourceFile, lineno: int) -> str:
    return f"{source.relpath}::{source.symbol_at(lineno)}"


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)  # type: ignore[attr-defined]
    except (AttributeError, ValueError, RecursionError):
        return ""  # pragma: no cover - py<3.9 / pathological AST


def _under_lock(source: SourceFile, node: ast.AST) -> bool:
    """True when ``node`` sits inside a ``with <something lock-ish>``."""
    for ancestor in source.ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                if "lock" in _unparse(item.context_expr).lower():
                    return True
    return False


# ======================================================================
# CODE001 — unparseable source
# ======================================================================
@register
class UnparseableSourceRule(LintRule):
    """Files the analyzer could not parse get a diagnostic, not a skip."""

    rule_id = "CODE001"
    slug = "unparseable-source"
    pack = "code"
    default_severity = Severity.ERROR
    description = ("A scanned source file failed to parse; none of the "
                   "code rules could check it.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for relpath, message in code.parse_errors:
            yield self.diag(
                f"syntax error: {message}",
                Location("code", relpath, "<module>"),
                hint="fix the syntax error so the determinism rules "
                     "can analyze the file")


# ======================================================================
# DET001 — unordered set iteration feeding ordered output
# ======================================================================
def _known_set_annotation(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    text = _unparse(annotation)
    return bool(re.search(r"\b([Ss]et|[Ff]rozen[Ss]et|frozenset)\b",
                          text))


class _SetScope:
    """Known-unordered names within one function/module scope."""

    def __init__(self, inherited: Optional[Set[str]] = None):
        self.names: Set[str] = set(inherited or ())

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("union", "intersection",
                                           "difference",
                                           "symmetric_difference",
                                           "copy") \
                    and self.is_set_expr(node.func.value):
                return True
        if isinstance(node, ast.BinOp) \
                and isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                         ast.Sub, ast.BitXor)):
            return (self.is_set_expr(node.left)
                    or self.is_set_expr(node.right))
        return False

    def is_unordered_iterable(self, node: ast.expr) -> bool:
        """Set-valued, or a thin order-preserving wrapper around one."""
        if self.is_set_expr(node):
            return True
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple", "iter",
                                     "enumerate", "reversed") \
                and node.args:
            return self.is_unordered_iterable(node.args[0])
        return False

    def learn(self, statements: List[ast.stmt],
              args: Optional[ast.arguments] = None) -> None:
        if args is not None:
            every = list(args.posonlyargs) + list(args.args) \
                + list(args.kwonlyargs)
            for arg in every:
                if _known_set_annotation(arg.annotation):
                    self.names.add(arg.arg)
        # Two passes so `b = a | extra` learns from a later-learned `a`.
        for _ in range(2):
            for stmt in statements:
                if isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name):
                    if self.is_set_expr(stmt.value):
                        self.names.add(stmt.targets[0].id)
                elif isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name) \
                        and _known_set_annotation(stmt.annotation):
                    self.names.add(stmt.target.id)


def _order_sink_in(body: List[ast.stmt]) -> Optional[str]:
    """What (if anything) inside a loop body materializes order."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.AugAssign):
                return "a numeric/sequence accumulation"
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "a yielded sequence"
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _ORDER_SINK_METHODS:
                    return f"'.{node.func.attr}()' list building/output"
                if isinstance(node.func, ast.Name) \
                        and node.func.id == "print":
                    return "printed output"
    return None


@register
class UnorderedIterationRule(LintRule):
    """Set iteration order must not reach accumulators or output."""

    rule_id = "DET001"
    slug = "unordered-iteration"
    pack = "code"
    default_severity = Severity.ERROR
    description = ("Iterating an unordered set/frozenset into an "
                   "accumulator, list build or emitted output makes "
                   "results depend on hash order.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            if not _in_packages(source, RESULT_PACKAGES):
                continue
            yield from self._check_scope(source, source.tree, None,
                                         _SetScope())

    @staticmethod
    def _own_nodes(scope_node: ast.AST) -> Iterator[ast.AST]:
        """Descendants of a scope, not entering nested defs/classes."""
        stack = list(ast.iter_child_nodes(scope_node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, source: SourceFile, scope_node: ast.AST,
                     args: Optional[ast.arguments],
                     scope: _SetScope) -> Iterator[Diagnostic]:
        own = list(self._own_nodes(scope_node))
        scope.learn([n for n in own if isinstance(n, ast.stmt)], args)
        for node in own:
            if isinstance(node, ast.For) \
                    and scope.is_unordered_iterable(node.iter):
                sink = _order_sink_in(node.body)
                if sink is not None:
                    what = _unparse(node.iter) or "<set>"
                    yield self.diag(
                        f"iteration over unordered {what!r} feeds "
                        f"{sink}: the result depends on hash order",
                        _loc(source, node.lineno),
                        hint="iterate sorted(...) or use an insertion-"
                             "ordered dict keyed collection")
            elif isinstance(node, ast.ListComp) \
                    and scope.is_unordered_iterable(
                        node.generators[0].iter) \
                    and not self._feeds_order_free(source, node):
                yield self.diag(
                    "list comprehension over an unordered set "
                    "materializes hash order",
                    _loc(source, node.lineno),
                    hint="wrap the iterable in sorted(...)")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" and node.args \
                    and scope.is_unordered_iterable(node.args[0]):
                yield self.diag(
                    "str.join over an unordered set emits text in "
                    "hash order",
                    _loc(source, node.lineno),
                    hint="join sorted(...) instead")
        # Nested scopes inherit the names known here.
        for node in ast.walk(scope_node):
            if node is scope_node:
                continue
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and self._direct_scope_parent(source, node) \
                    is scope_node:
                yield from self._check_scope(source, node, node.args,
                                            _SetScope(scope.names))
            elif isinstance(node, ast.ClassDef) \
                    and self._direct_scope_parent(source, node) \
                    is scope_node:
                yield from self._check_scope(source, node, None,
                                            _SetScope(scope.names))

    @staticmethod
    def _direct_scope_parent(source: SourceFile,
                             node: ast.AST) -> Optional[ast.AST]:
        """Nearest enclosing def/class/module of ``node``."""
        for ancestor in source.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Module)):
                return ancestor
        return None

    @staticmethod
    def _feeds_order_free(source: SourceFile, node: ast.AST) -> bool:
        """Comprehension result immediately re-sorted or re-set?"""
        parent = source.parent(node)
        if isinstance(parent, ast.Call) \
                and isinstance(parent.func, ast.Name) \
                and parent.func.id in ("sorted", "set", "frozenset",
                                       "sum", "max", "min", "len",
                                       "any", "all"):
            return True
        return False


# ======================================================================
# DET002 — unseeded RNG construction / global-RNG draws
# ======================================================================
class _RngImports:
    """Per-file import aliases relevant to RNG auditing."""

    def __init__(self, tree: ast.Module):
        self.random_mods: Set[str] = set()
        self.numpy_mods: Set[str] = set()
        self.np_random_mods: Set[str] = set()
        self.from_random: Dict[str, str] = {}
        self.from_np_random: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_mods.add(local)
                    elif alias.name == "numpy":
                        self.numpy_mods.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.np_random_mods.add(alias.asname)
                        else:
                            self.numpy_mods.add("numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        self.from_random[alias.asname or alias.name] = \
                            alias.name
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.np_random_mods.add(
                                alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.from_np_random[
                            alias.asname or alias.name] = alias.name

    def classify(self, call: ast.Call) -> Optional[str]:
        """A problem description when the call is an RNG hazard."""
        func = call.func
        no_args = not call.args and not call.keywords
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) \
                    and base.id in self.random_mods:
                return self._stdlib(func.attr, no_args)
            if self._is_np_random(base):
                return self._numpy(func.attr, no_args)
        elif isinstance(func, ast.Name):
            if func.id in self.from_random:
                return self._stdlib(self.from_random[func.id], no_args)
            if func.id in self.from_np_random:
                return self._numpy(self.from_np_random[func.id],
                                   no_args)
        return None

    def _is_np_random(self, base: ast.expr) -> bool:
        if isinstance(base, ast.Name) \
                and base.id in self.np_random_mods:
            return True
        return (isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in self.numpy_mods)

    @staticmethod
    def _stdlib(fn: str, no_args: bool) -> Optional[str]:
        if fn == "seed":
            return None
        if fn == "Random":
            return ("random.Random() constructed without a seed"
                    if no_args else None)
        if fn == "SystemRandom":
            return "random.SystemRandom draws OS entropy (unseedable)"
        return (f"random.{fn}() draws from the process-global stdlib "
                "RNG")

    @staticmethod
    def _numpy(fn: str, no_args: bool) -> Optional[str]:
        if fn in ("SeedSequence", "seed"):
            return None
        if fn in ("default_rng", "RandomState", "Generator"):
            return (f"numpy.random.{fn}() constructed without a seed"
                    if no_args else None)
        return (f"numpy.random.{fn}() draws from the legacy "
                "process-global numpy RNG")


@register
class UnseededRngRule(LintRule):
    """All randomness must flow from an explicitly seeded Generator."""

    rule_id = "DET002"
    slug = "unseeded-rng"
    pack = "code"
    default_severity = Severity.ERROR
    description = ("Unseeded or process-global RNG use outside the "
                   "fault/chaos harness breaks run-to-run "
                   "reproducibility.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            if source.module in HARNESS_MODULES:
                continue
            imports = _RngImports(source.tree)
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                problem = imports.classify(node)
                if problem:
                    yield self.diag(
                        problem, _loc(source, node.lineno),
                        hint="thread a seeded numpy.random.Generator "
                             "(default_rng(seed)) through the call "
                             "path")


# ======================================================================
# DET003 — wall-clock reads in result-affecting code
# ======================================================================
_WALLCLOCK_ATTRS = {"time", "perf_counter", "monotonic", "process_time",
                    "time_ns", "perf_counter_ns", "monotonic_ns",
                    "now", "utcnow", "today"}


def _is_wallclock_call(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute) \
            and func.attr in _WALLCLOCK_ATTRS:
        base = _unparse(func.value)
        if base in ("time", "datetime", "datetime.datetime", "date",
                    "datetime.date"):
            return f"{base}.{func.attr}()"
    return None


@register
class WallClockRule(LintRule):
    """Wall-clock reads belong in metrics/trace sinks, not results."""

    rule_id = "DET003"
    slug = "wall-clock"
    pack = "code"
    default_severity = Severity.WARNING
    description = ("A wall-clock read whose value escapes the "
                   "metrics/timeout naming convention can leak "
                   "nondeterminism into results.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            if not _in_packages(source, RESULT_PACKAGES) \
                    or source.module.split(".", 1)[0] == "obs":
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                what = _is_wallclock_call(node)
                if what is None or self._is_sink(source, node):
                    continue
                yield self.diag(
                    f"{what} read in result-affecting module "
                    f"'{source.module}' flows outside the recognized "
                    "metrics/timeout sinks",
                    _loc(source, node.lineno),
                    hint="route timing through repro.obs, or name the "
                         "target *_start/elapsed/wall/deadline so the "
                         "timing-sink convention applies")

    @staticmethod
    def _is_sink(source: SourceFile, node: ast.Call) -> bool:
        for ancestor in source.ancestors(node):
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                targets = (ancestor.targets
                           if isinstance(ancestor, ast.Assign)
                           else [ancestor.target])
                return all(_TIMING_SINK_TARGET.search(_unparse(t))
                           for t in targets)
            if isinstance(ancestor, ast.Compare):
                others = [ancestor.left] + list(ancestor.comparators)
                if any(_TIMING_SINK_TARGET.search(_unparse(o))
                       for o in others if o is not node):
                    return True
            if isinstance(ancestor, ast.Call) and ancestor is not node:
                name = None
                if isinstance(ancestor.func, ast.Name):
                    name = ancestor.func.id
                elif isinstance(ancestor.func, ast.Attribute):
                    name = ancestor.func.attr
                if name in _SINK_CALLS:
                    return True
        return False


# ======================================================================
# DET004 — float equality in numeric kernels
# ======================================================================
@register
class FloatEqualityRule(LintRule):
    """Exact float comparison in the solver kernels."""

    rule_id = "DET004"
    slug = "float-equality"
    pack = "code"
    default_severity = Severity.WARNING
    description = ("Float == / != against a float literal in "
                   "core/linalg/spice; rounding makes exact equality "
                   "platform-sensitive.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            if not _in_packages(source, KERNEL_PACKAGES):
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq))
                           for op in node.ops):
                    continue
                sides = [node.left] + list(node.comparators)
                literal = next(
                    (s for s in sides
                     if isinstance(s, ast.Constant)
                     and isinstance(s.value, float)), None)
                if literal is None:
                    continue
                yield self.diag(
                    f"exact float comparison against "
                    f"{literal.value!r} in kernel module "
                    f"'{source.module}'",
                    _loc(source, node.lineno),
                    hint="compare with math.isclose/np.isclose or an "
                         "explicit tolerance; use an is-None/flag "
                         "sentinel instead of a magic float")


# ======================================================================
# DET005 — filesystem-order dependence
# ======================================================================
@register
class FsOrderRule(LintRule):
    """Directory listings must be sorted before use."""

    rule_id = "DET005"
    slug = "fs-order"
    pack = "code"
    default_severity = Severity.WARNING
    description = ("os.listdir/scandir/glob/iterdir return entries in "
                   "filesystem order, which differs across machines.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = None
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _FS_ORDER_ATTRS:
                    name = node.func.attr
                elif isinstance(node.func, ast.Name) \
                        and node.func.id in ("glob", "iglob",
                                             "listdir", "scandir"):
                    name = node.func.id
                if name is None:
                    continue
                parent = source.parent(node)
                if isinstance(parent, ast.Call) \
                        and isinstance(parent.func, ast.Name) \
                        and parent.func.id in ("sorted", "len", "set",
                                               "frozenset"):
                    continue
                yield self.diag(
                    f"{name}() result used without sorted(): entry "
                    "order is filesystem-dependent",
                    _loc(source, node.lineno),
                    hint="wrap the listing in sorted(...)")


# ======================================================================
# CONC001 — module-global mutation from worker-reachable code
# ======================================================================
def _module_mutables(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            names.add(target.id)
        elif isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Name) \
                and value.func.id in ("list", "dict", "set",
                                      "defaultdict", "OrderedDict",
                                      "deque", "Counter"):
            names.add(target.id)
    return names


def _global_writes(func: ast.AST,
                   mutables: Set[str]) -> List[Tuple[int, str, ast.AST]]:
    """(lineno, name, node) for each module-global mutation in a scope."""
    declared: Set[str] = set()
    writes: List[Tuple[int, str, ast.AST]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id in declared \
                        and target.id in mutables:
                    writes.append((node.lineno, target.id, node))
                elif isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in mutables:
                    writes.append((node.lineno, target.value.id, node))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATING_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in mutables:
            writes.append((node.lineno, node.func.value.id, node))
    return writes


@register
class WorkerGlobalMutationRule(LintRule):
    """Module globals must not be written from worker-reachable code."""

    rule_id = "CONC001"
    slug = "worker-global-mutation"
    pack = "code"
    default_severity = Severity.ERROR
    description = ("A module-level mutable container written from a "
                   "function reachable from worker entry points races "
                   "when the workers are threads and silently diverges "
                   "when they are processes.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        graph = _callgraph(code)
        reachable = graph.reachable()
        if not reachable:
            return
        for source in code.parsed():
            mutables = _module_mutables(source.tree)
            if not mutables:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                qualname = _qualname(source, node.lineno)
                if qualname not in reachable:
                    continue
                for lineno, name, write in _global_writes(node,
                                                          mutables):
                    if _under_lock(source, write):
                        continue
                    yield self.diag(
                        f"module global '{name}' mutated in "
                        f"worker-reachable function "
                        f"'{source.symbol_at(node.lineno)}'",
                        _loc(source, lineno),
                        hint="pass state explicitly, guard with a "
                             "lock, or merge results on the "
                             "scheduler thread")


# ======================================================================
# CONC002 — unlocked shared-object mutation in lock-owning classes
# ======================================================================
def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                text = _unparse(node.value)
                if re.search(r"\b(R?Lock|Condition|Semaphore)\s*\(",
                             text) or "lock" in target.attr.lower():
                    attrs.add(target.attr)
    return attrs


@register
class UnlockedSharedMutationRule(LintRule):
    """Classes that own a lock must take it around shared mutation."""

    rule_id = "CONC002"
    slug = "unlocked-shared-mutation"
    pack = "code"
    default_severity = Severity.WARNING
    description = ("A class holding a threading lock mutates a shared "
                   "container attribute outside any with-lock block; "
                   "concurrent threads can interleave the mutation.")

    _EXEMPT_METHODS = {"__init__", "__new__", "__del__",
                       "__getstate__", "__setstate__"}

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(source, node)

    def _check_class(self, source: SourceFile,
                     cls: ast.ClassDef) -> Iterator[Diagnostic]:
        locks = _lock_attrs(cls)
        if not locks:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if method.name in self._EXEMPT_METHODS:
                continue
            for lineno, attr in self._unlocked_mutations(source, method,
                                                         locks):
                yield self.diag(
                    f"'self.{attr}' mutated in "
                    f"{cls.name}.{method.name} outside the class's "
                    f"lock ({', '.join(sorted(locks))})",
                    _loc(source, lineno),
                    hint="wrap the mutation in `with self._lock:` or "
                         "document single-threaded ownership in the "
                         "lint baseline")

    @staticmethod
    def _unlocked_mutations(source: SourceFile, method: ast.AST,
                            locks: Set[str]
                            ) -> List[Tuple[int, str]]:
        found: List[Tuple[int, str]] = []

        def self_attr(node: ast.expr) -> Optional[str]:
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" \
                    and node.attr not in locks:
                return node.attr
            return None

        for node in ast.walk(method):
            attr: Optional[str] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS:
                attr = self_attr(node.func.value)
            if attr is not None and not _under_lock(source, node):
                found.append((node.lineno, attr))
        return found


# ======================================================================
# CONC003 — exception swallowing
# ======================================================================
def _trivial_body(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Return) \
                and (stmt.value is None
                     or isinstance(stmt.value, ast.Constant)):
            continue
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant):
            continue  # docstring-style no-op
        return False
    return True


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    def broad(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) \
            and node.id in ("Exception", "BaseException")

    if handler.type is None:
        return True
    if broad(handler.type):
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(broad(el) for el in handler.type.elts)
    return False


@register
class ExceptionSwallowRule(LintRule):
    """Bare/overbroad except clauses that silently discard failures."""

    rule_id = "CONC003"
    slug = "exception-swallow"
    pack = "code"
    default_severity = Severity.WARNING
    description = ("A bare or Exception-wide handler with a do-nothing "
                   "body swallows numpy.linalg/solver failures that "
                   "the escalation ladder and flight recorder need to "
                   "see.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield self.diag(
                        "bare 'except:' catches KeyboardInterrupt and "
                        "SystemExit along with solver errors",
                        _loc(source, node.lineno),
                        severity=Severity.ERROR,
                        hint="catch the specific exceptions the try "
                             "block can raise")
                elif _handler_is_broad(node) \
                        and _trivial_body(node.body):
                    yield self.diag(
                        "'except Exception' with a do-nothing body "
                        "silently swallows solver/linalg failures",
                        _loc(source, node.lineno),
                        hint="narrow the exception type, or record the "
                             "failure (flight recorder / metrics) "
                             "before suppressing it")


# ======================================================================
# CONC004 — environment mutation near worker pools
# ======================================================================
@register
class EnvMutationRule(LintRule):
    """os.environ writes are invisible to already-spawned workers."""

    rule_id = "CONC004"
    slug = "env-mutation"
    pack = "code"
    default_severity = Severity.WARNING
    description = ("Mutating os.environ (or putenv) after a worker "
                   "pool exists gives workers a stale environment; "
                   "from worker-reachable code it races outright.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        reachable: Optional[Set[str]] = None
        for source in code.parsed():
            for node in ast.walk(source.tree):
                hit = self._env_write(node)
                if hit is None:
                    continue
                if reachable is None:
                    reachable = _callgraph(code).reachable()
                qualname = _qualname(source, node.lineno)
                severity = (Severity.ERROR if qualname in reachable
                            else None)
                where = ("worker-reachable function "
                         if severity is Severity.ERROR else "")
                yield self.diag(
                    f"{hit} in {where}"
                    f"'{source.symbol_at(node.lineno)}'",
                    _loc(source, node.lineno),
                    severity=severity,
                    hint="set environment before pools start, or pass "
                         "configuration through ExecutionConfig/"
                         "initializer arguments")

    @staticmethod
    def _env_write(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and _unparse(target.value) == "os.environ":
                    return "os.environ[...] assignment"
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and _unparse(target.value) == "os.environ":
                    return "del os.environ[...]"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                base = _unparse(func.value)
                if base == "os.environ" \
                        and func.attr in ("update", "pop", "clear",
                                          "setdefault"):
                    return f"os.environ.{func.attr}()"
                if base == "os" and func.attr in ("putenv", "unsetenv"):
                    return f"os.{func.attr}()"
        return None
