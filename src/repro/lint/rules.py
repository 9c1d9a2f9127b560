"""The rule set: eight invariants distilled from this repository's PRs.

Each rule encodes a contract that was once broken (or nearly broken) in
this codebase and is now enforced mechanically:

========  ==============================================================
RL001     no builtin ``hash()`` — it is salted per-process
          (``PYTHONHASHSEED``), so hash-derived labels/seeds are not
          reproducible across runs.  Use
          :func:`repro.experiments.replication.label_key` (CRC32).
RL002     no global RNG — ``np.random.seed``/module-level numpy draws
          and the stdlib ``random`` module share hidden process state;
          library code threads explicit ``Generator`` objects.
RL003     SeedSequence spawn discipline — ``.spawn()`` advances the
          parent's counter, so spawning a caller-owned sequence makes
          child streams depend on call *history*, not seed identity.
          Only freshly constructed/copied sequences may spawn; use
          :mod:`repro.seeding`.
RL004     no wall clock — ``time.time``/``monotonic``/``perf_counter``
          and ``datetime.now`` reads route through the injectable
          clocks in :mod:`repro.anytime.deadline` (``DEFAULT_CLOCK``),
          keeping timing a seam instead of ambient state.
RL005     env gates — ``REPRO_*`` environment variables are read only
          through the typed accessors in :mod:`repro.envgates`, which
          also warn on unknown gate names.
RL006     pool ownership — ``ProcessPoolExecutor`` and
          ``multiprocessing.shared_memory`` appear only in the layers
          that own worker lifecycle (:mod:`repro.parallel`, the
          supervisor, :mod:`repro.instances.shm`); everything else
          goes through their APIs and inherits fault tolerance.
RL007     no silent except — a handler whose body is only
          ``pass``/``...``/``continue`` (or a bare ``except:``) hides
          failures; handle, log, re-raise, or justify with a
          suppression comment.
RL008     engine parity coverage — every public entry point of
          ``repro.core.engine`` must be referenced by a test module
          under ``tests/core/``, so engine tiers cannot drift from the
          reference implementation unobserved.
========  ==============================================================

Rules are instances registered in :data:`RULES`; file-scoped rules
implement ``check(ctx)``, project-scoped rules ``check_project(root,
contexts)``.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.engine import FileContext, Finding

__all__ = ["LintRule", "RULES", "active_rules"]


class LintRule:
    """Base class: a named, documented invariant check."""

    code: str = "RL000"
    name: str = "abstract"
    description: str = ""
    scope: str = "file"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(
        self, root: Path, contexts: "list[FileContext]"
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx_or_path, node_or_line, message: str
    ) -> Finding:
        if isinstance(ctx_or_path, FileContext):
            path = ctx_or_path.relpath
        else:
            path = str(ctx_or_path)
        if isinstance(node_or_line, ast.AST):
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        else:
            line, col = int(node_or_line), 0
        return Finding(
            path=path, line=line, col=col, rule=self.code, message=message
        )


class NoBuiltinHash(LintRule):
    """RL001: builtin ``hash()`` output is salted per-process."""

    code = "RL001"
    name = "no-builtin-hash"
    description = (
        "builtin hash() is salted per-process (PYTHONHASHSEED); derive "
        "labels and seed keys with repro.experiments.replication.label_key"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and ctx.aliases.get(node.func.id, node.func.id) == "hash"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "builtin hash() is salted per-process and not "
                    "reproducible across runs; use label_key() "
                    "(crc32) from repro.experiments.replication",
                )


#: ``numpy.random`` attributes that do NOT touch the hidden global RNG.
_NP_RANDOM_OK = frozenset(
    {
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "default_rng",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


class NoGlobalRng(LintRule):
    """RL002: library code must thread explicit Generator objects."""

    code = "RL002"
    name = "no-global-rng"
    description = (
        "np.random.seed / module-level numpy draws and the stdlib "
        "random module mutate hidden process state; thread explicit "
        "np.random.Generator objects instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "random" or item.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "the stdlib random module is global state; "
                            "use np.random.default_rng with an explicit "
                            "seed",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield self.finding(
                        ctx,
                        node,
                        "the stdlib random module is global state; use "
                        "np.random.default_rng with an explicit seed",
                    )
            elif isinstance(node, ast.Attribute):
                resolved = ctx.resolve(node)
                if (
                    resolved is not None
                    and resolved.startswith("numpy.random.")
                    and resolved.count(".") == 2
                ):
                    leaf = resolved.rsplit(".", 1)[1]
                    if leaf not in _NP_RANDOM_OK:
                        yield self.finding(
                            ctx,
                            node,
                            f"{resolved} uses numpy's hidden global RNG; "
                            "thread an explicit np.random.Generator",
                        )


#: Calls whose result is a *fresh* SeedSequence (counter zero, safe to
#: spawn).  Matched against both resolved dotted names and bare names so
#: the rule works wherever the helpers are imported from.
_FRESH_CALLS = frozenset(
    {
        "numpy.random.SeedSequence",
        "repro.seeding.fresh_sequence",
        "repro.seeding.root_sequence",
        "repro.seeding.spawn_children",
        "SeedSequence",
        "fresh_sequence",
        "root_sequence",
        "spawn_children",
    }
)


class SpawnDiscipline(LintRule):
    """RL003: only freshly constructed SeedSequences may ``.spawn()``."""

    code = "RL003"
    name = "seedsequence-spawn-discipline"
    description = (
        ".spawn() advances the parent SeedSequence's counter, so "
        "spawning caller-owned sequences makes results depend on call "
        "history; spawn only fresh copies (repro.seeding helpers)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            yield from self._check_scope(ctx, scope)

    def _is_fresh_call(self, ctx: FileContext, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, (ast.Name, ast.Attribute)):
            resolved = ctx.resolve(func)
            if resolved is not None and (
                resolved in _FRESH_CALLS
                or resolved.rsplit(".", 1)[-1] in _FRESH_CALLS
            ):
                return True
        # ``fresh_sequence(seq).spawn(n)`` — spawn on a fresh call result.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "spawn"
            and self._is_fresh_call(ctx, func.value)
        ):
            return True
        return False

    def _fresh_names(self, ctx: FileContext, scope: ast.AST) -> set[str]:
        """Names bound (anywhere in the scope) to a fresh sequence.

        Flow-insensitive on purpose: precise enough to catch the real
        bug class (spawning parameters, attributes, loop-carried
        sequences) without a full dataflow engine.
        """
        fresh: set[str] = set()

        def mark(target: ast.AST) -> None:
            if isinstance(target, ast.Name):
                fresh.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    mark(element)
            elif isinstance(target, ast.Starred):
                mark(target.value)

        for node in self._scope_walk(scope):
            value = None
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                value, targets = node.iter, [node.target]
            elif isinstance(node, ast.comprehension):
                value, targets = node.iter, [node.target]
            if value is None:
                continue
            if self._is_fresh_call(ctx, value) or self._is_spawn_call(value):
                for target in targets:
                    mark(target)
        return fresh

    @staticmethod
    def _is_spawn_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "spawn"
        )

    @staticmethod
    def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function defs."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
        fresh = self._fresh_names(ctx, scope)
        for node in self._scope_walk(scope):
            if not self._is_spawn_call(node):
                continue
            receiver = node.func.value
            if self._is_fresh_call(ctx, receiver):
                continue
            if isinstance(receiver, ast.Name) and receiver.id in fresh:
                continue
            described = (
                f"'{receiver.id}'"
                if isinstance(receiver, ast.Name)
                else "a caller-owned sequence"
            )
            yield self.finding(
                ctx,
                node,
                f".spawn() on {described} mutates the parent's spawn "
                "counter; copy first via repro.seeding.spawn_children / "
                "fresh_sequence",
            )


#: Wall-clock reads banned outside the clock module and benchmarks.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class NoWallClock(LintRule):
    """RL004: elapsed-time reads go through the injectable clocks."""

    code = "RL004"
    name = "no-wall-clock"
    description = (
        "direct wall-clock reads (time.time/monotonic/perf_counter, "
        "datetime.now) bypass the injectable Clock seam; use "
        "repro.anytime.deadline.DEFAULT_CLOCK or an explicit Clock"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"{resolved}() reads the wall clock directly; route "
                    "timing through repro.anytime.deadline.DEFAULT_CLOCK "
                    "(or an injected Clock)",
                )


class EnvGateDiscipline(LintRule):
    """RL005: ``REPRO_*`` reads go through :mod:`repro.envgates`."""

    code = "RL005"
    name = "env-gate-discipline"
    description = (
        "REPRO_* environment variables are read through the typed "
        "accessors in repro.envgates, which validate names and "
        "document defaults"
    )

    def _gate_key(self, ctx: FileContext, node: ast.AST) -> str | None:
        value = ctx.string_value(node)
        if value is not None and value.startswith("REPRO_"):
            return value
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            key = None
            if isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                if resolved in {"os.environ.get", "os.getenv"} and node.args:
                    key = self._gate_key(ctx, node.args[0])
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                if ctx.resolve(node.value) == "os.environ":
                    key = self._gate_key(ctx, node.slice)
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if isinstance(node.ops[0], (ast.In, ast.NotIn)) and (
                    ctx.resolve(node.comparators[0]) == "os.environ"
                ):
                    key = self._gate_key(ctx, node.left)
            if key is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"raw environment read of {key}; use the "
                    "repro.envgates accessor (or envgates.raw) so the "
                    "gate is registered and validated",
                )


#: Canonical names of the pooling primitives RL006 confines.
_POOL_NAMES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "multiprocessing.shared_memory.SharedMemory",
        "multiprocessing.shared_memory.ShareableList",
    }
)


class PoolOwnership(LintRule):
    """RL006: process pools / shared memory live in the parallel layer."""

    code = "RL006"
    name = "pool-ownership"
    description = (
        "ProcessPoolExecutor and multiprocessing.shared_memory are "
        "confined to repro.parallel / repro.instances.shm / the "
        "supervisor; other layers use their APIs and inherit fault "
        "tolerance"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                for item in node.names:
                    dotted = f"{module}.{item.name}"
                    if dotted in _POOL_NAMES or dotted == (
                        "multiprocessing.shared_memory"
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"direct use of {dotted} outside the "
                            "parallel layer; submit work through "
                            "repro.parallel / repro.resilience instead",
                        )
            elif isinstance(node, ast.Import):
                for item in node.names:
                    if item.name.startswith("multiprocessing.shared_memory"):
                        yield self.finding(
                            ctx,
                            node,
                            f"direct use of {item.name} outside the "
                            "parallel layer; submit work through "
                            "repro.parallel / repro.resilience instead",
                        )
            elif isinstance(node, ast.Attribute):
                resolved = ctx.resolve(node)
                if resolved in _POOL_NAMES:
                    yield self.finding(
                        ctx,
                        node,
                        f"direct use of {resolved} outside the parallel "
                        "layer; submit work through repro.parallel / "
                        "repro.resilience instead",
                    )


class NoSilentExcept(LintRule):
    """RL007: exception handlers must do *something*."""

    code = "RL007"
    name = "no-silent-except"
    description = (
        "bare except clauses and handlers whose body is only "
        "pass/.../continue swallow failures invisibly; handle, log, "
        "re-raise, or add a justified suppression comment"
    )

    @staticmethod
    def _is_silent_body(body: "list[ast.stmt]") -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or bare ``...``
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt "
                    "too; name the exception type",
                )
            elif self._is_silent_body(node.body):
                yield self.finding(
                    ctx,
                    node,
                    "exception handler silently swallows the error; "
                    "handle, log, or re-raise (or justify with "
                    "'# repro-lint: disable=RL007')",
                )


class EngineParityCoverage(LintRule):
    """RL008: public engine entry points have parity-test references."""

    code = "RL008"
    name = "engine-parity-coverage"
    description = (
        "every public def/class in repro.core.engine must be "
        "referenced by a test module under tests/core/, so engine "
        "tiers cannot drift from the reference path unobserved"
    )
    scope = "project"

    _ENGINE_GLOB = "src/repro/core/engine/*.py"

    @staticmethod
    def _public_names(tree: ast.Module) -> "list[tuple[str, int]]":
        """``(name, lineno)`` for public top-level defs and classes."""
        declared: "set[str] | None" = None
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                declared = {
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                }
        names = []
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = node.name
                if name.startswith("_"):
                    continue
                if declared is not None and name not in declared:
                    continue
                names.append((name, node.lineno))
        return names

    def check_project(
        self, root: Path, contexts: "list[FileContext]"
    ) -> Iterator[Finding]:
        engine_ctxs = [
            ctx for ctx in contexts if fnmatch(ctx.relpath, self._ENGINE_GLOB)
        ]
        if not engine_ctxs:
            return
        tests_dir = root / "tests" / "core"
        corpus = ""
        if tests_dir.is_dir():
            corpus = "\n".join(
                path.read_text(encoding="utf-8")
                for path in sorted(tests_dir.glob("*.py"))
            )
        for ctx in engine_ctxs:
            for name, lineno in self._public_names(ctx.tree):
                if not re.search(rf"\b{re.escape(name)}\b", corpus):
                    yield self.finding(
                        ctx.relpath,
                        lineno,
                        f"public engine entry point '{name}' has no "
                        "reference in any tests/core/ module; add a "
                        "parity test (or underscore-prefix it)",
                    )


#: The registry, in code order.
RULES: dict[str, LintRule] = {
    rule.code: rule
    for rule in (
        NoBuiltinHash(),
        NoGlobalRng(),
        SpawnDiscipline(),
        NoWallClock(),
        EnvGateDiscipline(),
        PoolOwnership(),
        NoSilentExcept(),
        EngineParityCoverage(),
    )
}


def active_rules(
    select: "Iterable[str] | None" = None,
    ignore: "Iterable[str] | None" = None,
) -> "list[LintRule]":
    """The rule list after ``--select`` / ``--ignore`` narrowing."""
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    unknown = (selected or set()) | ignored
    unknown -= set(RULES)
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return [
        rule
        for code, rule in RULES.items()
        if (selected is None or code in selected) and code not in ignored
    ]
