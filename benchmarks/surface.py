#!/usr/bin/env python3
"""The settable-surface census: every value under ``src/`` a caller may set.

    python benchmarks/surface.py

A *settable value* is a defaulted parameter of a ``def`` (any ``def``,
nested ones too) or a defaulted field that a dataclass's ``__init__``
accepts.  For each one the census walks every call in ``src/``,
``benchmarks/`` and ``examples/`` (never ``tests/``) and lists its
*setters*: the functions that pass it a value, by keyword, by position or
through a ``**`` dict literal, and through a ``*args`` / ``**kwargs``
forwarder (``MaliciousFullNodeServer.__init__``, ``Devnet.attach_server``)
to whatever the forwarder calls.  A call is matched to a definition by
name: a class name or ``cls(...)`` / ``type(self)(...)`` is its
constructor, ``x.m(...)`` every method ``m``, ``super().m(...)`` the
enclosing class's bases' ``m`` (in a class outside ``src/`` too).  A
receiver the file imports is no instance: ``ecdsa.verify(...)`` is the
function ``verify`` of ``crypto/ecdsa.py`` and ``os.close(...)`` nothing
under ``src/``.  A candidate the call cannot bind (an unknown keyword, too
many positionals) is dropped.  Two kinds of argument set nothing:

* the default itself, spelled the same (``fanout=2`` where the default
  is ``2``);
* a defaulted parameter of the caller passed on under any name: that is a
  *forward*, listed under ``via``, and the value counts as set only when
  the parameter it comes from is.

The census follows forwards through defaulted parameters only: a value
passed on through a required parameter, or through an attribute, counts as
set by the function that passes it.

It writes ``benchmarks/results/surface.json``: totals, the size of each
package's ``__all__`` and of ``ENDPOINT_METHODS``, and one entry per value
(file, owner, name, default, setters, via, why).  A value that nothing
outside ``tests/`` sets is either a module constant or deleted, or it
stays for one of the reasons in ``WHYS`` and is listed in ``REVIEWED``
below; ``tests/unit/test_surface_census.py`` fails on any other.
"""

from __future__ import annotations

import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUT = ROOT / "benchmarks" / "results" / "surface.json"
SCANNED = ("src", "benchmarks", "examples")

FAULT = "fault injection"
KNOB = "benchmark knob"
DEPLOYMENT = "deployment setting"
#: the only reasons a value with no setter outside tests/ stays settable
WHYS = (FAULT, KNOB, DEPLOYMENT)

#: (file under src/repro, owner, name) -> why, for every value nothing
#: outside tests/ sets that stays settable
REVIEWED: dict[tuple[str, str, str], str] = {
    # what a test sets to make a failure happen
    ("chain/chain.py", "Blockchain.build_block", "transactions"): FAULT,
    ("net/network.py", "SimNetwork.__init__", "drop_rate"): FAULT,
    ("net/network.py", "SimNetwork.__init__", "seed"): FAULT,
    ("node/devnet.py", "Devnet.execute", "gas_limit"): FAULT,
    ("node/devnet.py", "Devnet.call_contract", "gas_limit"): FAULT,
    ("node/devnet.py", "Devnet.send_transaction", "gas_limit"): FAULT,
    ("parp/adversary.py", "MaliciousFullNodeServer.__init__", "attack"): FAULT,
    # what whoever runs a chain, a node or a client chooses
    ("chain/chain.py", "Blockchain.build_block", "timestamp"): DEPLOYMENT,
    ("chain/genesis.py", "GenesisConfig", "chain_id"): DEPLOYMENT,
    ("chain/genesis.py", "GenesisConfig", "extra_data"): DEPLOYMENT,
    ("chain/genesis.py", "GenesisConfig", "gas_limit"): DEPLOYMENT,
    ("chain/genesis.py", "GenesisConfig", "timestamp"): DEPLOYMENT,
    ("gossip/heads.py", "HeadGossip.__init__", "quorum"): DEPLOYMENT,
    ("lightclient/checkpoint.py", "CheckpointSyncer.__init__", "quorum"): DEPLOYMENT,
    ("lightclient/sync.py", "HeaderSyncer.__init__", "quorum"): DEPLOYMENT,
    ("parp/marketplace.py", "MarketplaceClient.__init__", "checkpoint"): DEPLOYMENT,
    ("parp/pricing.py", "CallBasedFeeSchedule", "default_price"): DEPLOYMENT,
    ("parp/pricing.py", "CallBasedFeeSchedule", "prices"): DEPLOYMENT,
}

Key = tuple[str, str, str]


@dataclass
class Signature:
    """What a call binds: positional names (``None`` key: no default),
    keyword names, and whether ``*args`` / ``**kwargs`` soak up the rest."""
    owner: tuple[str, str]
    positional: list[tuple[str, Optional[Key]]]
    keyword: dict[str, Optional[Key]]
    star: bool
    starstar: bool


@dataclass
class ClassInfo:
    file: str
    qualname: str
    bases: list[str]
    dataclass: bool
    fields: list[tuple[str, Optional[Key]]] = field(default_factory=list)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# what src/ lets a caller set
# --------------------------------------------------------------------------- #

def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].endswith("dataclass")
               for d in node.decorator_list)


def _class_info(node: ast.ClassDef, rel: str, prefix: str) -> ClassInfo:
    return ClassInfo(rel, prefix + node.name,
                     [ast.unparse(b).split(".")[-1] for b in node.bases],
                     _is_dataclass(node))


def _field_is_init(value: ast.expr) -> bool:
    return not (isinstance(value, ast.Call)
                and ast.unparse(value.func).endswith("field")
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


class _Defs:
    """Every def, class and settable value under ``src/repro``."""

    def __init__(self, trees: dict[str, ast.Module]) -> None:
        self.values: dict[Key, str] = {}           # key -> default, unparsed
        self.signatures: dict[tuple[str, str], Signature] = {}
        self.functions: dict[str, list[tuple[str, str]]] = {}
        self.methods: dict[str, list[tuple[str, str]]] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        self.bound: set[tuple[str, str]] = set()   # methods called on an instance
        for rel, tree in trees.items():
            self._walk(tree, rel, "", None)

    def _walk(self, node: ast.AST, rel: str, prefix: str,
              cls: Optional[ClassInfo]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                info = _class_info(child, rel, prefix)
                self.classes.setdefault(child.name, []).append(info)
                if info.dataclass:
                    self._fields(child, info)
                self._walk(child, rel, f"{prefix}{child.name}.", info)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                self._signature(child, rel, qualname, cls)
                if cls is not None:
                    cls.methods[child.name] = child
                    self.methods.setdefault(child.name, []).append((rel, qualname))
                else:
                    self.functions.setdefault(child.name, []).append((rel, qualname))
                self._walk(child, rel, f"{qualname}.<locals>.", None)
            else:
                self._walk(child, rel, prefix, cls)

    def _fields(self, node: ast.ClassDef, info: ClassInfo) -> None:
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            name = stmt.target.id
            if stmt.value is None:
                info.fields.append((name, None))
            elif _field_is_init(stmt.value):
                key = (info.file, info.qualname, name)
                self._value(key, stmt.value)
                info.fields.append((name, key))

    def _value(self, key: Key, default: ast.expr) -> None:
        self.values[key] = ast.unparse(default)

    def _signature(self, fn: ast.FunctionDef, rel: str, qualname: str,
                   cls: Optional[ClassInfo]) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        bound = []
        for i, arg in enumerate(positional):
            key = None
            if i >= first_default:
                key = (rel, qualname, arg.arg)
                self._value(key, args.defaults[i - first_default])
            bound.append((arg.arg, key))
        keyword = {}
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            key = None
            if default is not None:
                key = (rel, qualname, arg.arg)
                self._value(key, default)
            keyword[arg.arg] = key
        decorators = {ast.unparse(d) for d in fn.decorator_list}
        if cls is not None and "staticmethod" not in decorators:
            self.bound.add((rel, qualname))
        self.signatures[(rel, qualname)] = Signature(
            (rel, qualname), bound, keyword, args.vararg is not None,
            args.kwarg is not None)

    # ------------------------------------------------------------------ #

    def constructor(self, info: ClassInfo, seen=()) -> Optional[Signature]:
        """What ``Class(...)`` binds, ``self`` already dropped."""
        for name in ("__init__", "__new__"):
            if name in info.methods:
                sig = self.signatures[(info.file, f"{info.qualname}.{name}")]
                return _drop_first(sig)
        if info.dataclass:
            fields = self._dataclass_fields(info)
            return Signature((info.file, info.qualname), list(fields),
                             dict(fields), False, False)
        for base in self.bases(info, seen):
            sig = self.constructor(base, (*seen, info.qualname))
            if sig is not None:
                return sig
        return None

    def _dataclass_fields(self, info: ClassInfo) -> list:
        inherited: list = []
        for base in self.bases(info):
            if base.dataclass:
                inherited += self._dataclass_fields(base)
        own = {name for name, _ in info.fields}
        return [f for f in inherited if f[0] not in own] + info.fields

    def bases(self, info: ClassInfo, seen=()) -> list[ClassInfo]:
        return [base for name in info.bases
                for base in self.classes.get(name, ())
                if base.qualname not in seen and base is not info]

    def method(self, info: ClassInfo, name: str) -> list[Signature]:
        """``name`` as ``super()`` finds it from ``info``'s bases."""
        found = []
        for base in self.bases(info):
            if name in base.methods:
                found.append(self.signatures[(base.file,
                                              f"{base.qualname}.{name}")])
            else:
                found += self.method(base, name)
        return found


def _drop_first(sig: Signature) -> Signature:
    return Signature(sig.owner, sig.positional[1:], sig.keyword, sig.star,
                     sig.starstar)


# --------------------------------------------------------------------------- #
# who sets it
# --------------------------------------------------------------------------- #

@dataclass
class _Scope:
    """The function a call sits in: its defaulted parameters and splats."""
    where: str
    owner: Optional[tuple[str, str]] = None
    defaulted: dict[str, Key] = field(default_factory=dict)
    star: Optional[str] = None
    starstar: Optional[str] = None
    cls: Optional[ClassInfo] = None
    #: local name -> the names its assignments mention (a class, a
    #: function, or the method a ``getattr(obj, "name")`` fetches)
    locals: dict[str, list[str]] = field(default_factory=dict)
    #: the local names bound by ``getattr``: calls through them are methods
    fetched: set[str] = field(default_factory=set)


class _Calls(ast.NodeVisitor):
    """Binds every call in one file to the definitions it may reach."""

    def __init__(self, defs: _Defs, rel: str, src_rel: Optional[str],
                 tally: "_Census", modules: dict[str, Optional[str]]) -> None:
        self.defs, self.rel, self.src_rel, self.tally = defs, rel, src_rel, tally
        self.modules = modules
        self.scope = _Scope(f"{rel}::<module>")
        self.prefix = ""
        self.cls: Optional[ClassInfo] = None
        self._visits = {ast.ClassDef: self.visit_ClassDef,
                        ast.FunctionDef: self.visit_FunctionDef,
                        ast.AsyncFunctionDef: self.visit_FunctionDef,
                        ast.Assign: self.visit_Assign,
                        ast.Call: self.visit_Call}

    def visit(self, node: ast.AST) -> None:
        """``NodeVisitor.visit`` by a type lookup: the census visits every
        node of some 220 files, and the name-built dispatch cost a quarter
        of its time."""
        handler = self._visits.get(type(node))
        if handler is not None:
            handler(node)
        else:
            for child in ast.iter_child_nodes(node):
                self.visit(child)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, outer_prefix = self.cls, self.prefix
        # a class outside src/ is no definition, but its super() calls
        # still reach its bases
        self.cls = next((c for c in self.defs.classes.get(node.name, ())
                         if c.file == self.src_rel
                         and c.qualname == self.prefix + node.name),
                        None) or _class_info(node, self.rel, self.prefix)
        self.prefix = f"{self.prefix}{node.name}."
        self.generic_visit(node)
        self.cls, self.prefix = outer, outer_prefix

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, outer_prefix = self.scope, self.prefix
        qualname = self.prefix + node.name
        owner = (self.src_rel, qualname) if self.src_rel else None
        scope = _Scope(f"{self.rel}::{qualname}", owner, cls=self.cls)
        sig = self.defs.signatures.get(owner)
        if sig is not None:
            scope.defaulted = {name: key for name, key in
                               [*sig.positional, *sig.keyword.items()] if key}
        args = node.args
        scope.star = args.vararg.arg if args.vararg else None
        scope.starstar = args.kwarg.arg if args.kwarg else None
        self.scope, self.prefix = scope, f"{qualname}.<locals>."
        saved_cls, self.cls = self.cls, None
        self.generic_visit(node)
        self.scope, self.prefix, self.cls = outer, outer_prefix, saved_cls


    def visit_Assign(self, node: ast.Assign) -> None:
        """Note what a local name is bound to, ahead of the calls through it
        (an assignment precedes its use in every function scanned)."""
        value, scope = node.value, self.scope
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            names = scope.locals.setdefault(target.id, [])
            if (isinstance(value, ast.Call)
                    and getattr(value.func, "id", "") == "getattr"
                    and len(value.args) > 1
                    and isinstance(value.args[1], ast.Constant)):
                names.append(value.args[1].value)
                scope.fetched.add(target.id)
            else:
                names.extend(n.id for n in ast.walk(value)
                             if isinstance(n, ast.Name))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        for sig in self._targets(node.func):
            self.tally.bind(sig, node, self.scope)
        self.generic_visit(node)

    def _targets(self, func: ast.expr) -> list[Signature]:
        defs, scope = self.defs, self.scope
        if isinstance(func, ast.Name):
            if func.id == "replace":
                return [defs.constructor(c) for infos in defs.classes.values()
                        for c in infos if c.dataclass]
            names = scope.locals.get(func.id, [func.id])
            if func.id == "cls" and func.id not in scope.locals:
                return _maybe([defs.constructor(scope.cls)] if scope.cls else [])
            if func.id in scope.fetched:
                return self._methods(names)
            sigs = [defs.constructor(c) for name in names
                    for c in defs.classes.get(name, ())]
            sigs += [defs.signatures[f] for name in names
                     for f in defs.functions.get(name, ())]
            return _maybe(sigs)
        if isinstance(func, ast.Call):
            if (isinstance(func.func, ast.Name) and func.func.id == "type"
                    and scope.cls is not None):
                return _maybe([defs.constructor(scope.cls)])
            return []
        if not isinstance(func, ast.Attribute):
            return []
        attr = func.attr
        value = func.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "super"):
            if scope.cls is None:
                return []
            if attr == "__init__":
                return _maybe([defs.constructor(base)
                               for base in defs.bases(scope.cls)])
            return [_drop_first(s) for s in defs.method(scope.cls, attr)]
        if isinstance(value, ast.Name) and value.id in self.modules:
            module = self.modules[value.id]
            if module is None:
                return []                   # os.close, json.dumps, ...
            # a module's functions and classes; a module has no methods
            sigs = [defs.constructor(c) for c in defs.classes.get(attr, ())
                    if module in ("", c.file)]
            sigs += [defs.signatures[f] for f in defs.functions.get(attr, ())
                     if module in ("", f[0])]
            return _maybe(sigs)
        sigs = [defs.constructor(c) for c in defs.classes.get(attr, ())]
        sigs += [defs.signatures[f] for f in defs.functions.get(attr, ())]
        return _maybe(sigs) + self._methods([attr])

    def _methods(self, names: list[str]) -> list[Signature]:
        """Every method of one of ``names``, as an instance calls it."""
        defs = self.defs
        return [_drop_first(defs.signatures[m]) if m in defs.bound
                else defs.signatures[m]
                for name in names for m in defs.methods.get(name, ())]


def _modules(path: Path, tree: ast.Module) -> dict[str, Optional[str]]:
    """The names ``tree`` imports a module or an outside name under: a
    module file under ``src/repro`` maps to its path there, a package of it
    to ``""``, anything from outside ``src/`` to ``None``."""
    names: dict[str, Optional[str]] = {}

    def under_src(target: Path) -> Optional[str]:
        if target.with_suffix(".py").is_file():
            return target.with_suffix(".py").relative_to(SRC).as_posix()
        if (target / "__init__.py").is_file():
            return ""
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    top = alias.name.split(".")[0]
                    names[top] = "" if top == SRC.name else None
                else:
                    names[alias.asname] = under_src(
                        SRC.parent.joinpath(*alias.name.split(".")))
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level:
                base = path.parents[node.level - 1].joinpath(*parts)
            elif parts[:1] == [SRC.name]:
                base = SRC.parent.joinpath(*parts)
            else:
                base = None
            if base is not None and not base.is_relative_to(SRC):
                base = None
            for alias in node.names:
                name = alias.asname or alias.name
                if base is None:
                    names[name] = None
                elif under_src(base / alias.name) is not None:
                    names[name] = under_src(base / alias.name)
    return names


def _maybe(sigs: list) -> list[Signature]:
    return [s for s in sigs if s is not None]


class _Census:
    def __init__(self, defs: _Defs) -> None:
        self.defs = defs
        self.setters: dict[Key, set[str]] = {k: set() for k in defs.values}
        self.via: dict[Key, set[Key]] = {k: set() for k in defs.values}
        #: forwarder (file, qualname) -> [(what it calls, the position its
        #: ``*args`` start at, or None for a ``**kwargs`` forward)]
        self.forwards: dict[tuple[str, str], list] = {}
        self.pending: list = []

    def bind(self, sig: Signature, call: ast.Call, scope: _Scope) -> None:
        """Credit what ``call`` sets in ``sig``, or nothing if it cannot bind."""
        bound: list[tuple[Optional[Key], ast.expr]] = []
        extra_pos: list[ast.expr] = []
        extra_kw: list[tuple[str, ast.expr]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                if (isinstance(arg.value, ast.Name)
                        and arg.value.id == scope.star and scope.owner):
                    self.forwards.setdefault(scope.owner, []).append((sig, i))
                break
            if i < len(sig.positional):
                bound.append((sig.positional[i][1], arg))
            elif sig.star:
                extra_pos.append(arg)
            else:
                return
        for kw in call.keywords:
            items: list[tuple[str, ast.expr]] = []
            if kw.arg is not None:
                items = [(kw.arg, kw.value)]
            elif isinstance(kw.value, ast.Dict):
                items = [(k.value, v) for k, v in zip(kw.value.keys,
                                                      kw.value.values)
                         if isinstance(k, ast.Constant)]
            elif (isinstance(kw.value, ast.Name)
                  and kw.value.id == scope.starstar and scope.owner):
                self.forwards.setdefault(scope.owner, []).append((sig, None))
            for name, value in items:
                named = dict(sig.positional)
                named.update(sig.keyword)
                if name in named:
                    bound.append((named[name], value))
                elif sig.starstar:
                    extra_kw.append((name, value))
                else:
                    return
        for key, value in bound:
            if key is not None and value is not _FORWARDER:
                self._credit(key, value, scope)
        if extra_pos or extra_kw:
            self.pending.append((sig.owner, extra_pos, extra_kw, scope))

    def _credit(self, key: Key, value: ast.expr, scope: _Scope) -> None:
        if isinstance(value, ast.Name) and value.id in scope.defaulted:
            self.via[key].add(scope.defaulted[value.id])
        elif ast.unparse(value) != self.defs.values[key]:
            self.setters[key].add(scope.where)

    def drain(self) -> None:
        """Push what a forwarder's callers passed into its ``*``/``**``
        on to the calls it forwards them to."""
        while self.pending:
            owner, extra_pos, extra_kw, scope = self.pending.pop()
            for sig, first in self.forwards.get(owner, ()):
                args = [] if first is None else [_FORWARDER] * first + extra_pos
                keywords = [ast.keyword(arg=n, value=v) for n, v in extra_kw]
                self.bind(sig, ast.Call(ast.Name("_"), args, keywords), scope)

    def is_set(self) -> dict[Key, bool]:
        done = {k: bool(s) for k, s in self.setters.items()}
        changed = True
        while changed:
            changed = False
            for key, sources in self.via.items():
                if not done[key] and any(done.get(s) for s in sources):
                    done[key] = changed = True
        return done


#: a positional the forwarder fills itself, ahead of its ``*args``
_FORWARDER = ast.Name("<forwarder>")


# --------------------------------------------------------------------------- #

def _exports() -> dict[str, int]:
    """Each package's ``__all__`` size (a literal, or ``sorted(NAME)`` of a
    module-level dict or list)."""
    sizes = {}
    for init in sorted(SRC.rglob("__init__.py")):
        tree = ast.parse(init.read_text(encoding="utf-8"))
        assigned = {stmt.targets[0].id: stmt.value for stmt in tree.body
                    if isinstance(stmt, ast.Assign)
                    and isinstance(stmt.targets[0], ast.Name)}
        value = assigned.get("__all__")
        if isinstance(value, ast.Call):
            value = assigned[value.args[0].id]
        if value is not None:
            package = init.parent.relative_to(SRC.parent).as_posix()
            sizes[package.replace("/", ".")] = len(
                value.keys if isinstance(value, ast.Dict) else value.elts)
    return sizes


def _endpoint_methods() -> int:
    tree = ast.parse((SRC / "net" / "transport.py").read_text(encoding="utf-8"))
    return next(len(stmt.value.elts) for stmt in tree.body
                if isinstance(stmt, ast.Assign)
                and getattr(stmt.targets[0], "id", "") == "ENDPOINT_METHODS")


def census() -> dict:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))}
    defs = _Defs({path.relative_to(SRC).as_posix(): tree
                  for path, tree in trees.items() if path.is_relative_to(SRC)})
    tally = _Census(defs)
    for path, tree in trees.items():
        src_rel = (path.relative_to(SRC).as_posix()
                   if path.is_relative_to(SRC) else None)
        _Calls(defs, path.relative_to(ROOT).as_posix(), src_rel,
               tally, _modules(path, tree)).visit(tree)
    tally.drain()
    is_set = tally.is_set()
    entries = []
    for key in sorted(defs.values):
        file, owner, name = key
        setters = sorted(tally.setters[key])
        via = sorted(f"{f}::{o}.{n}" for f, o, n in tally.via[key])
        why = "" if is_set[key] else REVIEWED.get(key, "")
        entries.append({"file": file, "owner": owner, "name": name,
                        "default": defs.values[key], "setters": setters,
                        "via": via, "set": is_set[key], "why": why})
    for key in sorted(set(REVIEWED) - {k for k in defs.values if not is_set[k]}):
        print(f"# stale REVIEWED entry (set or gone): {key}")
    return {
        "values": len(entries),
        "unset": sum(not e["set"] for e in entries),
        "endpoint_methods": _endpoint_methods(),
        "exports": _exports(),
        "entries": entries,
    }


def write(result: dict) -> None:
    """JSON with one entry per line, so a new or moved value is a one-line diff."""
    head = {k: v for k, v in result.items() if k != "entries"}
    body = ",\n".join("  " + json.dumps(e) for e in result["entries"])
    text = json.dumps(head, indent=1)[:-2] + ',\n "entries": [\n' + body + "\n ]\n}\n"
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="utf-8")


def main() -> int:
    result = census()
    write(result)
    print(f"{result['values']} settable values under src/, {result['unset']} "
          f"set by nothing outside tests/ -> {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
