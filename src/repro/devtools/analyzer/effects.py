"""Per-function effect inference over the call graph.

Each function gets a set drawn from a small effect lattice (the
powerset of the atoms below, ordered by inclusion):

=====================  =============================================
Effect                 Meaning
=====================  =============================================
``blocks-io``          synchronous file/socket I/O on the calling
                       thread (``open``, ``json.load``, ``os.replace``,
                       ``Path.read_text``, ...)
``sleeps``             ``time.sleep``
``spawns-subprocess``  anything rooted at ``subprocess``, ``os.system``
``reads-wall-clock``   absolute time reads (``time.time``,
                       ``datetime.now``, ...)
``ambient-entropy``    OS entropy / process-global RNG state
                       (``os.urandom``, ``uuid.uuid4``, unseeded
                       ``default_rng()``, legacy ``numpy.random.*``)
``mutates-nonlocal``   stores reaching outside the local frame:
                       ``global``/``nonlocal`` writes, attribute or
                       subscript stores rooted at a parameter
                       (``self`` included)
``emits-trace``        an *unguarded* Tracer-API emission
                       (``tracer.span(...)`` outside an
                       ``if tracer.enabled:`` guard) -- internally
                       guarded helpers are effect-free by design
=====================  =============================================

Every classification of a stdlib call or reference lives here: the
tables below are the analyzer's only vocabulary of blocking calls,
clock reads, entropy sources, seedable generators and tracer methods.
:func:`iter_sites` walks a module once and yields every effect *site*
(node, resolved target, nearest enclosing scope); the ``determinism``,
``transitive-blocking`` and ``obs-hygiene`` rules read those sites
directly, each with its own scope, and the effect table below
summarises them per function.

A function's direct effects are the sites whose nearest enclosing
scope is that function's own ``def`` -- nested definitions, lambdas
and class bodies are separate scopes.  Transitive effects propagate
caller-ward over resolved ``call`` edges with a worklist fixpoint, so
cycles (mutual recursion) converge instead of recursing.
``thread``/``loopsafe``/``ref`` reference edges do *not* propagate:
handing a blocking function to ``asyncio.to_thread`` is precisely how
serve code is supposed to discharge the effect.

Every transitive effect keeps a witness edge, so a rule can render the
full call chain down to the line that actually performs the effect:
``_handle_submit -> _probe -> ResultCache.load (open)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.devtools.analyzer.astutil import dotted_name, import_aliases, resolve_imported, store_targets
from repro.devtools.analyzer.callgraph import (
    KIND_CALL,
    CallGraph,
    CallSite,
    FunctionInfo,
    _analysis_cache,
    get_callgraph,
)
from repro.devtools.analyzer.core import Project, SourceModule

BLOCKS_IO = "blocks-io"
SLEEPS = "sleeps"
SPAWNS_SUBPROCESS = "spawns-subprocess"
READS_WALL_CLOCK = "reads-wall-clock"
AMBIENT_ENTROPY = "ambient-entropy"
MUTATES_NONLOCAL = "mutates-nonlocal"
EMITS_TRACE = "emits-trace"

#: Effects that stall an event loop when performed on its thread.
BLOCKING_EFFECTS = frozenset({BLOCKS_IO, SLEEPS, SPAWNS_SUBPROCESS})
#: Effects that break the determinism contract.
NONDETERMINISM_EFFECTS = frozenset({READS_WALL_CLOCK, AMBIENT_ENTROPY})

# ---------------------------------------------------------------------------
# Stdlib vocabulary (the only copy in the analyzer).
# ---------------------------------------------------------------------------
SLEEP_CALLS = {"time.sleep"}

BLOCKING_IO_CALLS = {
    "open", "io.open",
    "json.load", "json.dump",
    "os.replace", "os.rename", "os.remove", "os.unlink",
    "os.makedirs", "os.mkdir",
    "shutil.copy", "shutil.copyfile", "shutil.move", "shutil.rmtree",
    "socket.create_connection",
    "tempfile.mkstemp", "tempfile.NamedTemporaryFile",
}

#: Blocking convenience-I/O method names on any receiver (Path I/O).
BLOCKING_IO_METHODS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
    "mkdir", "unlink", "rglob", "glob", "exists", "is_file", "is_dir",
}

SUBPROCESS_PREFIXES = ("subprocess.",)
SUBPROCESS_CALLS = {"os.system", "os.popen"}

#: Absolute wall-clock reads.  Duration measurement
#: (``time.perf_counter`` / ``time.monotonic``) is deliberately absent.
WALL_CLOCK = {
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Other ambient-entropy reads that can never be replayed.
AMBIENT = {
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "secrets.choice",
}

#: numpy.random attributes that are *not* the legacy global-state API.
NUMPY_RANDOM_OK = {
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}

#: Seedable generator constructors: ambient only when unseeded.
GENERATORS = {"numpy.random.default_rng", "numpy.random.Generator", "random.Random"}

#: The Tracer API's emitting methods.
TRACER_METHODS = {"span", "instant", "counter"}

#: :attr:`Site.what` labels that split ``ambient-entropy`` by hazard;
#: every other site's label is its effect name.
WALL_CLOCK_READ = "wall-clock read"
AMBIENT_READ = "ambient entropy"
GLOBAL_RNG = "process-global RNG"
LEGACY_RNG = "legacy global RNG"
UNSEEDED_RNG = "unseeded RNG"

#: Nodes that open a new scope for :attr:`Site.scope`.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
#: The only nodes that can be a site.
_CLASSIFIED = (ast.Call, ast.Attribute, ast.Name, ast.Assign, ast.AugAssign)


class Site(NamedTuple):
    """One place where an effect is performed."""

    effect: str
    #: Resolved stdlib target (``time.sleep``, ``numpy.random.rand``,
    #: ``tracer.span``); unseeded generators end in ``()``.
    target: str
    node: ast.AST
    #: Nearest enclosing def, lambda, class or module.
    scope: ast.AST
    #: Hazard label: the effect name, or for wall-clock and entropy
    #: sites one of the ``*_READ``/``*_RNG`` labels above.
    what: str


def iter_sites(tree: ast.Module, aliases: Dict[str, str]) -> Iterator[Site]:
    """Every effect site in ``tree``, in one walk.

    Names resolve through ``aliases`` (the module's imports), so a
    local variable called ``time`` or ``random`` never reads as the
    stdlib module; only calls to builtins such as ``open`` and the
    blocking tables also match unresolved names.  The walk carries
    whether a node sits under an ``if``/conditional expression testing
    ``<x>.enabled``: a tracer emission there is guarded and is not an
    ``emits-trace`` site.  The guard does not cross a ``def`` or
    ``lambda`` boundary -- a guard around a call to a helper does not
    guard the helper's own emissions.
    """
    # scope -> (parameter names, names the scope declares global/nonlocal)
    frames: Dict[ast.AST, Tuple[Set[str], Set[str]]] = {tree: (set(), set())}
    stack: List[Tuple[ast.AST, ast.AST, bool]] = [
        (child, tree, False) for child in ast.iter_child_nodes(tree)
    ]
    while stack:
        node, scope, guarded = stack.pop()
        if isinstance(node, _SCOPES):
            frames[node] = (_param_names(node), _declared_names(node))
            scope = node
            guarded = guarded and isinstance(node, ast.ClassDef)
        elif isinstance(node, _CLASSIFIED):
            params, declared = frames[scope]
            for effect, target, what in _node_effects(
                node, aliases, guarded, params, declared
            ):
                yield Site(effect, target, node, scope, what)
        elif isinstance(node, (ast.If, ast.IfExp)) and _mentions_enabled(
            node.test
        ):
            guarded = True
        stack.extend(
            (child, scope, guarded) for child in ast.iter_child_nodes(node)
        )


def module_sites(project: Project, mod: SourceModule) -> List[Site]:
    """:func:`iter_sites` over ``mod``, memoised on ``project``."""
    cache = _analysis_cache(project)
    by_path = cache.setdefault("sites", {})
    assert isinstance(by_path, dict)
    sites = by_path.get(mod.path)
    if sites is None:
        sites = list(iter_sites(mod.tree, import_aliases(mod.tree)))
        by_path[mod.path] = sites
    return sites


def is_tracer(receiver: str) -> bool:
    """Model code reaches the tracer through names containing
    ``tracer`` (``tracer``, ``self.tracer``, ``ctx.engine.tracer``);
    an unrelated ``span``/``counter`` method on a differently named
    object is not the Tracer API."""
    return "tracer" in receiver.lower()


@dataclass
class FunctionEffects:
    """Effect summary of one function."""

    qname: str
    #: effect -> first direct site (in source order) in this
    #: function's own body.
    direct: Dict[str, Site] = field(default_factory=dict)
    #: Direct plus transitive effects.
    all: Set[str] = field(default_factory=set)
    #: effect -> callee qname the effect was inherited from (absent for
    #: direct effects): the first, by name, of the callees on a
    #: shortest call chain to a direct site.
    via: Dict[str, str] = field(default_factory=dict)


class EffectTable:
    """Effect summaries for every function in a call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.by_function: Dict[str, FunctionEffects] = {}

    def of(self, qname: str) -> FunctionEffects:
        return self.by_function.get(qname) or FunctionEffects(qname=qname)

    def chain(self, qname: str, effect: str) -> List[str]:
        """Call chain from ``qname`` down to the direct site, ending
        with that site's stdlib target.

        ``["a", "b", "c", "time.sleep"]`` reads a -> b -> c which calls
        ``time.sleep``.
        """
        links: List[str] = []
        current: Optional[str] = qname
        seen: Set[str] = set()
        while current is not None and current not in seen:
            seen.add(current)
            links.append(current)
            fx = self.by_function.get(current)
            if fx is None:
                break
            if effect in fx.direct:
                links.append(fx.direct[effect].target)
                break
            current = fx.via.get(effect)
        return links

    def render_chain(self, qname: str, effect: str) -> str:
        return " -> ".join(map(self.graph.short_name, self.chain(qname, effect)))

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: Project) -> "EffectTable":
        graph = get_callgraph(project)
        table = cls(graph)
        owner: Dict[ast.AST, FunctionEffects] = {}
        for qname, info in graph.functions.items():
            fx = table.by_function[qname] = FunctionEffects(qname=qname)
            owner[info.node] = fx
        # Witnesses are chosen in a fixed order, never by set or walk
        # order, so chain text is the same under any PYTHONHASHSEED:
        # a direct effect's witness is its first site in source order.
        for mod in project.modules:
            for site in module_sites(project, mod):
                owned = owner.get(site.scope)
                if owned is None:
                    continue
                first = owned.direct.get(site.effect)
                if first is None or _site_key(site) < _site_key(first):
                    owned.direct[site.effect] = site
        for fx in table.by_function.values():
            fx.all = set(fx.direct)

        # Caller-ward breadth-first search over resolved call edges, one
        # effect at a time: ``via`` names the callee on a shortest chain
        # to a direct site, ties broken by qualified name.
        effects = sorted({e for fx in table.by_function.values() for e in fx.direct})
        for effect in effects:
            frontier = sorted(
                q for q, fx in table.by_function.items() if effect in fx.direct
            )
            while frontier:
                reached = []
                for callee in frontier:
                    for caller in sorted(graph.callers.get(callee, ())):
                        caller_fx = table.by_function.get(caller)
                        if (
                            caller_fx is None
                            or effect in caller_fx.all
                            or not _has_call_edge(graph, caller, callee)
                        ):
                            continue
                        caller_fx.all.add(effect)
                        caller_fx.via[effect] = callee
                        reached.append(caller)
                frontier = sorted(reached)
        return table


def effectful_calls(
    project: Project,
    callers: Iterable[FunctionInfo],
    effects: AbstractSet[str],
    skip: Callable[[FunctionInfo], bool],
) -> Iterator[Tuple[FunctionInfo, CallSite, FunctionInfo, str, str]]:
    """(caller, call site, callee, effect, witness chain) for each
    resolved ``call`` edge from ``callers`` into a project function that
    (transitively) performs one of ``effects``, unless ``skip(callee)``."""
    graph = get_callgraph(project)
    table = get_effects(project)
    for info in callers:
        for call in graph.sites(info.qname):
            if call.kind != KIND_CALL or call.callee is None:
                continue
            callee = graph.functions.get(call.callee)
            if callee is None or skip(callee):
                continue
            for effect in sorted(table.of(call.callee).all & effects):
                chain = table.render_chain(call.callee, effect)
                yield info, call, callee, effect, chain


def _site_key(site: Site) -> Tuple[int, int, str]:
    return (
        getattr(site.node, "lineno", 0),
        getattr(site.node, "col_offset", 0),
        site.target,
    )


def _has_call_edge(graph: CallGraph, caller: str, callee: str) -> bool:
    return any(
        site.callee == callee and site.kind == KIND_CALL
        for site in graph.sites(caller)
    )


# ---------------------------------------------------------------------------
# Per-node classification
# ---------------------------------------------------------------------------
def _node_effects(
    node: ast.AST,
    aliases: Dict[str, str],
    guarded: bool,
    params: Set[str],
    declared: Set[str],
) -> Iterator[Tuple[str, str, str]]:
    """(effect, target, what) for each effect ``node`` itself performs."""
    if isinstance(node, ast.Call):
        found = _call_effect(node, aliases)
        if found is not None:
            yield found
        if not guarded and _is_trace_call(node):
            target = dotted_name(node.func) or "tracer"
            yield EMITS_TRACE, target, EMITS_TRACE
    elif isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
        node.ctx, ast.Load
    ):
        found = _reference_effect(resolve_imported(node, aliases))
        if found is not None:
            yield found
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        for target_node in store_targets(node):
            root = _store_root(target_node)
            if root is not None and (root in params or root in declared):
                name = dotted_name(target_node) or root
                yield MUTATES_NONLOCAL, name, MUTATES_NONLOCAL
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        if node.id in declared:
            yield MUTATES_NONLOCAL, node.id, MUTATES_NONLOCAL


def _call_effect(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[Tuple[str, str, str]]:
    """Blocking or unseeded-generator effect of the call itself.  Clock
    and entropy reads are classified at the callee *reference* (see
    :func:`_reference_effect`), which also catches uncalled uses."""
    resolved = resolve_imported(call.func, aliases)
    bare = dotted_name(call.func)
    # `open(...)` needs no import; treat bare builtins directly.
    name = resolved if resolved is not None else bare
    if name is not None:
        if name in SLEEP_CALLS:
            return SLEEPS, name, SLEEPS
        if name in BLOCKING_IO_CALLS:
            return BLOCKS_IO, name, BLOCKS_IO
        if name in SUBPROCESS_CALLS or any(
            name.startswith(p) or name == p.rstrip(".")
            for p in SUBPROCESS_PREFIXES
        ):
            return SPAWNS_SUBPROCESS, name, SPAWNS_SUBPROCESS
    if resolved in GENERATORS and not call.args and not call.keywords:
        return AMBIENT_ENTROPY, f"{resolved}()", UNSEEDED_RNG
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in BLOCKING_IO_METHODS
        and _is_pathlike_receiver(call.func.value)
    ):
        return BLOCKS_IO, bare or f"<expr>.{call.func.attr}", BLOCKS_IO
    return None


def _reference_effect(target: Optional[str]) -> Optional[Tuple[str, str, str]]:
    """Clock or entropy effect of reading the imported name ``target``."""
    if target is None:
        return None
    if target in WALL_CLOCK:
        return READS_WALL_CLOCK, target, WALL_CLOCK_READ
    if target in AMBIENT:
        return AMBIENT_ENTROPY, target, AMBIENT_READ
    head, _, attr = target.rpartition(".")
    if head == "random" and attr not in ("Random", "SystemRandom"):
        return AMBIENT_ENTROPY, target, GLOBAL_RNG
    if head == "numpy.random" and attr not in NUMPY_RANDOM_OK:
        return AMBIENT_ENTROPY, target, LEGACY_RNG
    return None


def _is_pathlike_receiver(node: ast.AST) -> bool:
    """Heuristic: convenience-I/O methods count as blocking when the
    receiver looks like a filesystem path (``Path(...)``, ``*path*``,
    ``*dir*``, ``*file*`` names), without flagging e.g.
    ``frame.read_text`` on unrelated objects."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func) or ""
        return name.split(".")[-1] in ("Path", "PurePath", "PosixPath")
    dotted = dotted_name(node)
    if dotted is None:
        return True  # computed receiver: stay conservative
    tail = dotted.split(".")[-1].lower()
    return any(hint in tail for hint in ("path", "dir", "file"))


def _is_trace_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in TRACER_METHODS:
        return False
    receiver = dotted_name(func.value)
    return receiver is not None and is_tracer(receiver)


def _mentions_enabled(test: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "enabled"
        for sub in ast.walk(test)
    )


def _param_names(fn: ast.AST) -> Set[str]:
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    args = fn.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def _declared_names(scope: ast.AST) -> Set[str]:
    """Names ``scope``'s own body declares ``global`` or ``nonlocal``.

    Collected before any store in the scope is classified: a
    declaration covers the whole scope, wherever the walk meets it.
    Nested scopes keep their own declarations.
    """
    names: Set[str] = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _store_root(node: ast.AST) -> Optional[str]:
    """Root Name of an Attribute/Subscript store target."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def get_effects(project: Project) -> EffectTable:
    """The memoised effect table for ``project``."""
    cache = _analysis_cache(project)
    table = cache.get("effects")
    if table is None:
        table = EffectTable.build(project)
        cache["effects"] = table
    return table
