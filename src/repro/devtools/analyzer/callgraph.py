"""Whole-project call graph over the :class:`Project` AST model.

The intraprocedural rules stop at a ``def`` boundary; everything in
this module exists so a rule can see *through* one.  The graph is
deliberately conservative: a call whose target cannot be resolved
statically becomes an edge to ``None`` (recorded, never followed), so
an effect can be missed through ``getattr`` tricks but never invented.

Resolution covers the shapes this repo actually uses:

* module-level functions by bare name, and through ``import`` /
  ``from ... import`` aliases (``execute_spec(...)`` after
  ``from repro.runtime.execute import execute_spec``);
* methods through ``self.meth()`` / ``cls.meth()``, including base
  classes resolvable in the project and ``super().meth()``;
* methods through *typed* receivers: an attribute or local whose class
  could be inferred from an annotation (``cache: Optional[ResultCache]``
  flowing into ``self.cache = cache``), a class-level ``AnnAssign``, or
  a direct constructor call (``entry = JobEntry(spec, fp)``).  A call on
  a receiver of an inferred project class also fans out to every
  project subclass that overrides the method, so a call through a
  ``self.store: Optional[Base]`` attribute reaches ``Sub.load``;
* nested functions (qualified ``outer.inner``), closures included.

Besides plain calls, the builder records *function references* -- a
function object passed as a value -- with an edge kind describing the
execution context the reference implies:

``thread``
    first argument of ``asyncio.to_thread`` / third-party-free
    ``loop.run_in_executor``, ``threading.Thread(target=...)``: the
    referenced function runs on a worker thread;
``loopsafe``
    first argument of ``loop.call_soon_threadsafe(...)``: the
    referenced function runs back on the event loop;
``ref``
    any other function reference (passed as an ordinary argument,
    stored, returned).  A ``ref`` escaping from thread-reachable code
    is assumed to run on that thread -- conservative in exactly the
    direction the loop-affinity rule needs.

:func:`get_callgraph` memoises the built graph (and the effect table
layered on top, see :mod:`repro.devtools.analyzer.effects`) on the
``Project`` instance, so the five interprocedural rules share a single
parse and a single fixpoint per analyzer run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyzer.astutil import dotted_name, import_aliases, own_nodes, resolve_call_target, resolve_dotted, resolve_imported
from repro.devtools.analyzer.core import Project, SourceModule, in_packages

#: Edge kinds (see module docstring).
KIND_CALL = "call"
KIND_THREAD = "thread"
KIND_LOOPSAFE = "loopsafe"
KIND_REF = "ref"


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qname: str
    module: SourceModule
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    #: Name of the immediately enclosing class, if this is a method.
    class_name: Optional[str] = None
    is_async: bool = False

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class definition plus what type inference learned about it."""

    qname: str
    module: SourceModule
    node: ast.ClassDef
    #: Method name -> FunctionInfo qname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Resolved base-class qnames (project classes only).
    bases: List[str] = field(default_factory=list)
    #: Attribute name -> inferred type name.  Project classes resolve
    #: to their qname; stdlib types keep their dotted name
    #: ("asyncio.Event", "threading.Lock").
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call or function reference inside a function body."""

    caller: str
    #: Resolved project function qname, or None (dynamic / stdlib).
    callee: Optional[str]
    #: Resolved dotted target ("time.sleep", "self.cache.load") for
    #: diagnostics and stdlib blocklists, best effort.
    target: Optional[str]
    node: ast.AST
    kind: str = KIND_CALL


#: Mutable-collection constructors whose result we type as-is.
_STDLIB_TYPES = {
    "asyncio.Event", "asyncio.Queue", "asyncio.Condition", "asyncio.Lock",
    "asyncio.Semaphore", "threading.Event", "threading.Lock",
    "threading.RLock", "threading.Condition", "threading.Thread",
}


def _annotation_type(node: ast.AST) -> Optional[str]:
    """Best-effort dotted type name from an annotation expression.

    Unwraps ``Optional[X]``, ``"X"`` forward references, and
    ``X | None`` unions down to the single interesting name.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        if head in ("Optional", "typing.Optional"):
            return _annotation_type(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_type(node.left)
        if left is not None and left != "None":
            return left
        return _annotation_type(node.right)
    name = dotted_name(node)
    if name in (None, "None"):
        return None
    return name


class CallGraph:
    """Functions, classes, and the edges between them."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        #: Reverse adjacency (callee qname -> caller qnames).
        self.callers: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def sites(self, qname: str) -> List[CallSite]:
        return self.calls.get(qname, [])

    def short_name(self, qname: str) -> str:
        """``Class.method`` or ``function`` for display."""
        info = self.functions.get(qname)
        if info is None:
            return qname
        return f"{info.class_name}.{info.name}" if info.class_name else info.name

    def in_package(self, *prefixes: str) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if in_packages(info.module.module, prefixes):
                yield info

    def async_functions(self, *prefixes: str) -> Iterator[FunctionInfo]:
        for info in self.in_package(*prefixes):
            if info.is_async:
                yield info

    def subclasses_of(self, class_qname: str) -> Iterator[ClassInfo]:
        for cls in self.classes.values():
            if class_qname in cls.bases:
                yield cls
                yield from self.subclasses_of(cls.qname)

    def method_in_hierarchy(
        self, class_qname: str, method: str
    ) -> Optional[str]:
        """Resolve ``method`` on ``class_qname`` walking project bases."""
        seen: Set[str] = set()
        stack = [class_qname]
        while stack:
            qname = stack.pop()
            if qname in seen:
                continue
            seen.add(qname)
            cls = self.classes.get(qname)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None

    def override_targets(self, class_qname: str, method: str) -> List[str]:
        """The method on the class itself plus every subclass override."""
        out: List[str] = []
        base = self.method_in_hierarchy(class_qname, method)
        if base is not None:
            out.append(base)
        for sub in self.subclasses_of(class_qname):
            if method in sub.methods and sub.methods[method] not in out:
                out.append(sub.methods[method])
        return out

    # ------------------------------------------------------------------
    # Thread-reachability (loop-affinity's substrate)
    # ------------------------------------------------------------------
    def thread_entries(self, *prefixes: str) -> Set[str]:
        """Functions handed to worker threads from modules in scope."""
        entries: Set[str] = set()
        for caller, sites in self.calls.items():
            info = self.functions.get(caller)
            if info is None:
                continue
            if not in_packages(info.module.module, prefixes):
                continue
            for site in sites:
                if site.kind == KIND_THREAD and site.callee is not None:
                    entries.add(site.callee)
        return entries

    def thread_reachable(self, *prefixes: str) -> Set[str]:
        """Closure of :meth:`thread_entries` over call and ref edges.

        ``loopsafe`` references are not followed (they run on the event
        loop by construction) and neither are calls *to* async
        functions: an async callee only ever executes on some event
        loop (``asyncio.run`` in the thread body, or it is already a
        bug the rule reports elsewhere).
        """
        return set(self.thread_witness(*prefixes))

    def thread_witness(self, *prefixes: str) -> Dict[str, Optional[str]]:
        """Like :meth:`thread_reachable`, with provenance: maps each
        reachable function to the function it was first reached *from*
        (``None`` for the thread entries themselves), so a rule can
        render the full chain back to the ``to_thread`` hand-off."""
        witness: Dict[str, Optional[str]] = {
            entry: None for entry in sorted(self.thread_entries(*prefixes))
        }
        worklist = list(witness)
        while worklist:
            qname = worklist.pop()
            for site in self.sites(qname):
                if site.kind == KIND_LOOPSAFE or site.callee is None:
                    continue
                callee = self.functions.get(site.callee)
                if callee is None or callee.is_async:
                    continue
                if site.callee not in witness:
                    witness[site.callee] = qname
                    worklist.append(site.callee)
        return witness

    def thread_chain(
        self, qname: str, witness: Dict[str, Optional[str]]
    ) -> List[str]:
        """Entry-first chain from a thread entry down to ``qname``."""
        chain: List[str] = []
        current: Optional[str] = qname
        while current is not None and current not in chain:
            chain.append(current)
            current = witness.get(current)
        chain.reverse()
        return chain

    def related_classes(self, class_qname: str) -> Set[str]:
        """``class_qname`` plus its project ancestors and descendants --
        the set over which an attribute name denotes one storage
        location."""
        related: Set[str] = {class_qname}
        stack = [class_qname]
        while stack:  # ancestors
            cls = self.classes.get(stack.pop())
            if cls is None:
                continue
            for base in cls.bases:
                if base not in related:
                    related.add(base)
                    stack.append(base)
        for sub in self.subclasses_of(class_qname):
            related.add(sub.qname)
        return related

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls()
        builders = [_ModuleBuilder(graph, mod) for mod in project.modules]
        for builder in builders:
            builder.index()
        graph._link_bases()
        for builder in builders:
            builder.infer_types()
        for builder in builders:
            builder.resolve_calls()
        for caller, sites in graph.calls.items():
            for site in sites:
                if site.callee is not None:
                    graph.callers.setdefault(site.callee, set()).add(caller)
        return graph

    def _link_bases(self) -> None:
        """Second pass: base names recorded by the builders become
        project class qnames where resolvable."""
        for cls_info in self.classes.values():
            resolved: List[str] = []
            for base in cls_info.bases:
                target = _resolve_class_name(self, cls_info.module, base)
                if target is not None:
                    resolved.append(target)
            cls_info.bases = resolved


def _resolve_class_name(
    graph: CallGraph, mod: SourceModule, name: str
) -> Optional[str]:
    """Project class qname for ``name`` as written in ``mod``."""
    local = f"{mod.module}.{name}"
    if local in graph.classes:
        return local
    qname = resolve_dotted(name, import_aliases(mod.tree))
    return qname if qname in graph.classes else None


class _ModuleBuilder:
    """Per-module indexing, type inference, and call resolution."""

    def __init__(self, graph: CallGraph, mod: SourceModule) -> None:
        self.graph = graph
        self.mod = mod
        self.aliases = import_aliases(mod.tree)
        #: Call-site-visible scope: (function qname, enclosing ClassInfo)
        self._scopes: List[Tuple[FunctionInfo, Optional[ClassInfo]]] = []

    # -- pass 1: index every class and function ------------------------
    def index(self) -> None:
        self._index_body(self.mod.tree.body, prefix=self.mod.module, cls=None)

    def _index_body(
        self, body: List[ast.stmt], prefix: str, cls: Optional[ClassInfo]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qname=qname,
                    module=self.mod,
                    node=stmt,
                    class_name=cls.node.name if cls is not None else None,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                )
                self.graph.functions[qname] = info
                if cls is not None:
                    cls.methods[stmt.name] = qname
                # Nested defs: indexed with the parent's qname prefix,
                # but they are not methods of the enclosing class.
                self._index_body(stmt.body, prefix=qname, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                qname = f"{prefix}.{stmt.name}"
                info_cls = ClassInfo(qname=qname, module=self.mod, node=stmt)
                info_cls.bases = [
                    b for b in (dotted_name(base) for base in stmt.bases)
                    if b is not None
                ]
                self.graph.classes[qname] = info_cls
                self._index_body(stmt.body, prefix=qname, cls=info_cls)
            elif isinstance(stmt, (ast.If, ast.Try)):
                # Conditional definitions (TYPE_CHECKING, try/except
                # import guards) still define names worth indexing.
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.stmt):
                        self._index_body([sub], prefix, cls)

    # -- pass 2: attribute/parameter type inference --------------------
    def infer_types(self) -> None:
        for cls_qname, cls_info in self.graph.classes.items():
            if cls_info.module is not self.mod:
                continue
            self._infer_class_types(cls_info)

    def _infer_class_types(self, cls_info: ClassInfo) -> None:
        for stmt in cls_info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                inferred = self._type_from_annotation(stmt.annotation)
                if inferred is not None:
                    cls_info.attr_types[stmt.target.id] = inferred
        for method_qname in cls_info.methods.values():
            fn = self.graph.functions[method_qname]
            param_types = self._param_types(fn.node)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == _self_name(fn.node)
                ):
                    continue
                inferred = self._type_of_expr(node.value, param_types)
                if inferred is not None:
                    cls_info.attr_types.setdefault(target.attr, inferred)

    def _param_types(
        self, fn: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Dict[str, str]:
        out: Dict[str, str] = {}
        args = fn.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            inferred = self._type_from_annotation(arg.annotation)
            if inferred is not None:
                out[arg.arg] = inferred
        return out

    def _type_from_annotation(self, annotation: ast.AST) -> Optional[str]:
        name = _annotation_type(annotation)
        if name is None:
            return None
        return self._resolve_type_name(name)

    def _resolve_type_name(self, name: str) -> Optional[str]:
        resolved = _resolve_class_name(self.graph, self.mod, name)
        if resolved is not None:
            return resolved
        dotted = resolve_dotted(name, self.aliases) or name
        if dotted in _STDLIB_TYPES:
            return dotted
        return None

    def _type_of_expr(
        self, expr: ast.AST, param_types: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name is not None:
                return self._resolve_type_name(name)
            return None
        if isinstance(expr, ast.Name):
            return param_types.get(expr.id)
        return None

    # -- pass 3: resolve every call and function reference -------------
    def resolve_calls(self) -> None:
        for qname, fn in list(self.graph.functions.items()):
            if fn.module is not self.mod:
                continue
            cls_info = self._class_of(fn)
            sites = list(_FunctionResolver(self, fn, cls_info).run())
            if sites:
                self.graph.calls[qname] = sites

    def _class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.class_name is None:
            return None
        # The class qname is the function qname minus the method name.
        cls_qname = fn.qname.rsplit(".", 1)[0]
        return self.graph.classes.get(cls_qname)


def _self_name(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> Optional[str]:
    args = fn.args
    ordered = [*args.posonlyargs, *args.args]
    return ordered[0].arg if ordered else None


#: Callables whose first function-valued argument runs on a worker
#: thread (resolved through import aliases where dotted).
_THREAD_DISPATCH = {"asyncio.to_thread"}
#: Attribute names that dispatch their argument to a thread/loop.
_THREAD_METHODS = {"to_thread", "run_in_executor"}
_LOOPSAFE_METHODS = {"call_soon_threadsafe"}


class _FunctionResolver:
    """Resolves the calls of one function body."""

    def __init__(
        self,
        builder: _ModuleBuilder,
        fn: FunctionInfo,
        cls_info: Optional[ClassInfo],
    ) -> None:
        self.builder = builder
        self.graph = builder.graph
        self.mod = builder.mod
        self.fn = fn
        self.cls_info = cls_info
        self.self_name = (
            _self_name(fn.node) if cls_info is not None else None
        )
        self.local_types = builder._param_types(fn.node)
        self._infer_local_types()

    def _infer_local_types(self) -> None:
        for node in own_nodes(self.fn.node, lambdas=True):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._expr_type(node.value)
                    if inferred is not None:
                        self.local_types[target.id] = inferred

    def _expr_type(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name is not None:
                return self.builder._resolve_type_name(name)
            return None
        if isinstance(expr, ast.Attribute):
            chain_type = self._receiver_type(expr)
            return chain_type
        if isinstance(expr, ast.Name):
            return self.local_types.get(expr.id)
        return None

    def _receiver_type(self, node: ast.Attribute) -> Optional[str]:
        """Type of ``<expr>.<attr>`` via inferred attribute tables."""
        base = node.value
        base_type: Optional[str] = None
        if isinstance(base, ast.Name):
            if base.id == self.self_name and self.cls_info is not None:
                base_type = self.cls_info.qname
            else:
                base_type = self.local_types.get(base.id)
        elif isinstance(base, ast.Attribute):
            base_type = self._receiver_type(base)
        if base_type is None:
            return None
        cls = self.graph.classes.get(base_type)
        if cls is None:
            return None
        return cls.attr_types.get(node.attr)

    # ------------------------------------------------------------------
    def run(self) -> Iterator[CallSite]:
        for node in own_nodes(self.fn.node, lambdas=True):
            if isinstance(node, ast.Call):
                yield from self._resolve_call(node)

    # ------------------------------------------------------------------
    def _resolve_call(self, call: ast.Call) -> Iterator[CallSite]:
        target = dotted_name(call.func)
        callees = self._resolve_target(call.func)
        if callees:
            for callee in callees:
                yield CallSite(
                    caller=self.fn.qname, callee=callee, target=target,
                    node=call, kind=KIND_CALL,
                )
        else:
            yield CallSite(
                caller=self.fn.qname, callee=None,
                target=resolve_call_target(call.func, self.builder.aliases),
                node=call, kind=KIND_CALL,
            )
        yield from self._reference_sites(call)

    def _reference_sites(self, call: ast.Call) -> Iterator[CallSite]:
        """Function-valued arguments become thread/loopsafe/ref edges."""
        kind = KIND_REF
        fn_args: List[ast.AST] = []
        dotted = resolve_call_target(call.func, self.builder.aliases)
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        if dotted in _THREAD_DISPATCH or attr in _THREAD_METHODS:
            kind = KIND_THREAD
            # run_in_executor(executor, fn, ...): fn is the 2nd arg.
            skip = 1 if attr == "run_in_executor" else 0
            fn_args = call.args[skip:skip + 1]
        elif attr in _LOOPSAFE_METHODS:
            kind = KIND_LOOPSAFE
            fn_args = call.args[:1]
        elif dotted in ("threading.Thread", "Thread") or attr == "Thread":
            kind = KIND_THREAD
            fn_args = [
                kw.value for kw in call.keywords if kw.arg == "target"
            ]
        else:
            fn_args = [
                arg for arg in [*call.args, *[k.value for k in call.keywords]]
                if isinstance(arg, (ast.Name, ast.Attribute))
            ]
        for arg in fn_args:
            for callee in self._resolve_target(arg):
                yield CallSite(
                    caller=self.fn.qname, callee=callee,
                    target=dotted_name(arg), node=arg, kind=kind,
                )

    # ------------------------------------------------------------------
    def _resolve_target(self, func: ast.AST) -> List[str]:
        """Project function qnames a Name/Attribute may refer to."""
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func)
        return []

    def _resolve_name(self, name: str) -> List[str]:
        # Nested function defined in an enclosing scope of this module:
        # try successively shorter prefixes of our own qname.
        prefix = self.fn.qname
        while "." in prefix:
            prefix = prefix.rsplit(".", 1)[0]
            candidate = f"{prefix}.{name}"
            if candidate in self.graph.functions or candidate in self.graph.classes:
                return self._project_callable(candidate)
        resolved = self.builder.aliases.get(name)
        return [] if resolved is None else self._project_callable(resolved)

    def _project_callable(self, qname: str) -> List[str]:
        """``[qname]`` for a project function, the constructor for a
        project class, ``[]`` for anything else."""
        if qname in self.graph.functions:
            return [qname]
        if qname in self.graph.classes:
            return self._constructor_of(qname)
        return []

    def _constructor_of(self, cls_qname: str) -> List[str]:
        init = self.graph.method_in_hierarchy(cls_qname, "__init__")
        return [init] if init is not None else []

    def _resolve_attribute(self, func: ast.Attribute) -> List[str]:
        base = func.value
        method = func.attr
        # self.meth() / cls.meth()
        if (
            isinstance(base, ast.Name)
            and base.id in (self.self_name, "cls")
            and self.cls_info is not None
        ):
            return self.graph.override_targets(self.cls_info.qname, method)
        # super().meth()
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
            and self.cls_info is not None
        ):
            for base_qname in self.cls_info.bases:
                resolved = self.graph.method_in_hierarchy(base_qname, method)
                if resolved is not None:
                    return [resolved]
            return []
        # module_alias.func() / module_alias.Class()
        qname = resolve_imported(func, self.builder.aliases)
        if qname in self.graph.functions or qname in self.graph.classes:
            return self._project_callable(qname)
        # Typed receiver: local / parameter / attribute chain with an
        # inferred project class.
        recv_type: Optional[str] = None
        if isinstance(base, ast.Name):
            recv_type = self.local_types.get(base.id)
            if (
                recv_type is None
                and base.id == self.self_name
                and self.cls_info is not None
            ):
                recv_type = self.cls_info.qname
        elif isinstance(base, ast.Attribute):
            recv_type = self._receiver_type(base)
        if recv_type is not None and recv_type in self.graph.classes:
            return self.graph.override_targets(recv_type, method)
        # ClassName.meth(...) (unbound call through the class).
        if isinstance(base, ast.Name):
            for cls_qname in self._resolve_name(base.id):
                # _resolve_name returned __init__ for classes; recover
                # the class qname.
                owner = cls_qname.rsplit(".", 1)[0]
                resolved = self.graph.method_in_hierarchy(owner, method)
                if resolved is not None:
                    return [resolved]
        return []


def get_callgraph(project: Project) -> CallGraph:
    """The memoised call graph for ``project`` (built once per run)."""
    cache = _analysis_cache(project)
    graph = cache.get("callgraph")
    if graph is None:
        graph = CallGraph.build(project)
        cache["callgraph"] = graph
    return graph


def _analysis_cache(project: Project) -> Dict[str, object]:
    cache = getattr(project, "_analysis_cache", None)
    if cache is None:
        cache = {}
        project._analysis_cache = cache  # type: ignore[attr-defined]
    return cache
