"""Sim-process protocol rules (SIM2xx).

The event engine accepts exactly four yielded commands (`Timeout`,
`Event`, `Process`, or a nested generator), must never be re-entered from
inside a running process, and turns an unwaited `Event.fail` into a hard
diagnostic unless the failure is defused.  Each misuse here is a runtime
crash — or worse, a silently wrong schedule — that this pass catches at
review time instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.core import (
    Finding,
    LintModule,
    Rule,
    dotted_name,
    function_yields,
)

# A function is treated as a *process generator* when it yields one of
# these engine commands (vs. a plain data generator, which never does).
_COMMAND_CALLS = ("Timeout", "timeout_event", "acquire", "get", "event")


def _is_command_expr(value: Optional[ast.expr]) -> bool:
    if value is None:
        return False
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        return name in _COMMAND_CALLS or name.endswith("_event")
    return False


def _is_process_generator(fn: ast.FunctionDef) -> bool:
    for node in function_yields(fn):
        if isinstance(node, ast.YieldFrom):
            return True
        if isinstance(node, ast.Yield) and _is_command_expr(node.value):
            return True
    return False


def check_sim201(module: LintModule) -> Iterator[Finding]:
    """SIM201: a process generator yields a plain constant.

    The engine dispatches on the yielded command; a bare number, string,
    or ``None`` raises ``SimulationError`` at runtime.  Only functions
    that also yield a recognizable command are checked, so plain data
    generators stay out of scope.
    """
    for fn in module.functions():
        if not _is_process_generator(fn):
            continue
        for node in function_yields(fn):
            if not isinstance(node, ast.Yield):
                continue
            value = node.value
            if value is None or (isinstance(value, ast.Constant)
                                 and not isinstance(value.value, bool)):
                shown = ("nothing (yields None)" if value is None
                         else f"constant {value.value!r}")
                yield Finding(
                    "SIM201", module.path, node.lineno, node.col_offset,
                    f"process generator `{fn.name}` yields {shown}; the "
                    "engine only accepts Timeout, Event, Process, or a "
                    "nested generator",
                )


def check_sim202(module: LintModule) -> Iterator[Finding]:
    """SIM202: `Simulator.run`/`run_process` called from inside a process.

    The event loop is not reentrant: calling back into it from a running
    generator corrupts the clock.  Processes compose with ``yield from``
    instead.
    """
    for fn in module.functions():
        if not function_yields(fn):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("run", "run_process"):
                continue
            receiver = dotted_name(func.value)
            if receiver == "sim" or receiver.endswith(".sim"):
                yield Finding(
                    "SIM202", module.path, node.lineno, node.col_offset,
                    f"`{receiver}.{func.attr}(...)` inside a process "
                    "generator re-enters the event loop; use `yield from` "
                    "or `yield sim.spawn(...)` instead",
                )


def _local_event_names(fn: ast.FunctionDef) -> Set[str]:
    """Local names assigned from ``*.event()`` or ``Event(...)``."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call):
            continue
        func = node.value.func
        created = (isinstance(func, ast.Attribute) and func.attr == "event") \
            or (isinstance(func, ast.Name) and func.id == "Event")
        if not created:
            continue
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                names.add(tgt.id)
    return names


def _name_escapes(fn: ast.FunctionDef, name: str,
                  skip: ast.AST) -> bool:
    """Can anything observe ``name`` besides the `.fail()` call itself?

    True when the event is yielded, returned, defused, registered a
    callback, stored somewhere reachable, or passed to any call.
    """
    for node in ast.walk(fn):
        if node is skip:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Return)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name) and func.value.id == name:
                if func.attr in ("defuse", "add_callback", "succeed"):
                    return True
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        elif isinstance(node, ast.Assign):
            if any(not isinstance(tgt, ast.Name) for tgt in node.targets):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
    return False


def check_sim203(module: LintModule) -> Iterator[Finding]:
    """SIM203: `Event.fail` on an event nothing can wait on or defuse.

    Failing a locally-created event that never escapes the function
    guarantees the engine's uncaught-failure diagnostic fires — the
    fault can neither be observed nor suppressed.
    """
    for fn in module.functions():
        event_names = _local_event_names(fn)
        if not event_names:
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "fail"):
                continue
            if not (isinstance(func.value, ast.Name)
                    and func.value.id in event_names):
                continue
            if not _name_escapes(fn, func.value.id, skip=node):
                yield Finding(
                    "SIM203", module.path, node.lineno, node.col_offset,
                    f"`{func.value.id}.fail(...)` on an event with no "
                    "reachable waiter: the uncaught-failure diagnostic "
                    "will fire; yield the event somewhere or call "
                    "`.defuse()`",
                )


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           *_COMPREHENSIONS)


def _scope_bindings(scope: ast.AST) -> Dict[str, Optional[ast.AST]]:
    """Names bound directly in ``scope`` (a module, class or function):
    each maps to its ``def`` when that is the name's only binding there,
    and to None when anything else (an assignment, a parameter, an
    import, a ``global``) binds it too."""
    out: Dict[str, Optional[ast.AST]] = {}

    def bind(name: str, node: Optional[ast.AST]) -> None:
        out[name] = node if name not in out else None

    todo: List[ast.AST]
    if isinstance(scope, _COMPREHENSIONS):
        todo = [gen.target for gen in scope.generators]
    elif isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
        for arg in ast.walk(scope.args):
            if isinstance(arg, ast.arg):
                bind(arg.arg, None)
        todo = list(scope.body) if isinstance(scope.body, list) else []
    else:
        todo = list(scope.body)             # type: ignore[attr-defined]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bind(node.name, node)
            continue                        # its body is its own scope
        if isinstance(node, ast.ClassDef):
            bind(node.name, None)
            continue
        if isinstance(node, (ast.Lambda, *_COMPREHENSIONS)):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bind(node.id, None)
        elif isinstance(node, ast.alias):
            bind((node.asname or node.name).split(".")[0], None)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            out.update(dict.fromkeys(node.names))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bind(node.name, None)
        todo.extend(ast.iter_child_nodes(node))
    return out


def _spawn_calls(module: LintModule) -> Iterator[tuple]:
    """Every ``spawn``/``run_process`` call with a first argument, and
    the scopes it can see, innermost first: its enclosing functions,
    its own class body (a method cannot see its class's names), and the
    module."""
    stack: List[tuple] = [(module.tree, ())]
    while stack:
        node, scopes = stack.pop()
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if attr in ("spawn", "run_process"):
                yield node, attr, scopes
        if isinstance(node, _SCOPES) or node is module.tree:
            inner = tuple(scope for scope in scopes
                          if not isinstance(scope, ast.ClassDef))
            scopes = (node,) + inner
        stack.extend((child, scopes) for child in ast.iter_child_nodes(node))


def check_sim204(module: LintModule) -> Iterator[Finding]:
    """SIM204: spawning something that is not a generator.

    ``sim.spawn(fn)`` (forgetting the call), ``spawn(lambda: ...)``, and
    ``spawn(<constant>)`` all raise at the first step; the generator must
    be *instantiated* (``sim.spawn(fn(...))``).  A bare name is resolved
    the way Python would, against the scopes the call can see: a plain
    ``def`` elsewhere in the module does not make it one.
    """
    bindings: Dict[ast.AST, Dict[str, Optional[ast.AST]]] = {}
    for node, attr, scopes in _spawn_calls(module):
        arg = node.args[0]
        problem = None
        if isinstance(arg, ast.Lambda):
            problem = "a lambda (call it, or make it a generator)"
        elif isinstance(arg, ast.Constant):
            problem = f"constant {arg.value!r}"
        elif isinstance(arg, ast.Name):
            target = None
            for scope in scopes:
                if scope not in bindings:
                    bindings[scope] = _scope_bindings(scope)
                if arg.id in bindings[scope]:
                    target = bindings[scope][arg.id]
                    break
            if (isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not function_yields(target)):
                problem = (f"`{arg.id}`, a plain function — did you mean "
                           f"`{arg.id}(...)`?")
        if problem is not None:
            yield Finding(
                "SIM204", module.path, arg.lineno, arg.col_offset,
                f"`{attr}(...)` needs an instantiated generator, got "
                f"{problem}",
            )


RULES = [
    Rule("SIM201", "process yields a non-command constant", check_sim201),
    Rule("SIM202", "event loop re-entered from a process", check_sim202),
    Rule("SIM203", "Event.fail without reachable waiter/defuse", check_sim203),
    Rule("SIM204", "spawn of a non-generator", check_sim204),
]
