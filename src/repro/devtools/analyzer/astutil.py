"""Small AST utilities shared by the rules."""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: import_aliases memo: id(tree) -> (tree, aliases).  The tree is kept
#: in the value so a garbage-collected tree's id can never alias a new
#: one; trees live as long as their Project, which is the analyzer run.
_ALIAS_CACHE: Dict[int, Tuple[ast.Module, Dict[str, str]]] = {}


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """local name -> fully qualified name, from top-level imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    Only module-level imports are scanned -- function-local imports are
    resolved by a per-function pass in the rules that care.

    Memoised per tree: the interprocedural layer resolves names for
    every function in a module, and rewalking the whole module each
    time turned the analyzer quadratic.
    """
    cached = _ALIAS_CACHE.get(id(tree))
    if cached is not None and cached[0] is tree:
        return cached[1]
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    _ALIAS_CACHE[id(tree)] = (tree, aliases)
    return aliases


def resolve_imported(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Fully qualified name of a Name/Attribute chain whose head was
    actually imported (``aliases`` from :func:`import_aliases`);
    ``None`` otherwise.

    Requiring the head to appear in the import table means a local
    variable that happens to be called ``time`` or ``random`` can never
    read as the stdlib module.
    """
    dotted = dotted_name(node)
    return None if dotted is None else resolve_dotted(dotted, aliases)


def resolve_dotted(dotted: str, aliases: Dict[str, str]) -> Optional[str]:
    """:func:`resolve_imported` for a name already spelled ``a.b.c``."""
    head, _, rest = dotted.partition(".")
    resolved = aliases.get(head)
    if resolved is None:
        return None
    return f"{resolved}.{rest}" if rest else resolved


def resolve_call_target(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """:func:`resolve_imported`, except that a head that was not
    imported (a builtin, a local) stays as written."""
    return resolve_imported(node, aliases) or dotted_name(node)


def call_argument(node: ast.Call, index: int, *keywords: str) -> Optional[ast.AST]:
    """Positional-or-keyword argument of a call, or ``None``."""
    if len(node.args) > index:
        return node.args[index]
    for kw in node.keywords:
        if kw.arg in keywords:
            return kw.value
    return None


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with ``@dataclass`` /
    ``@dataclasses.dataclass(...)`` (by name; no import resolution --
    the repo has no other decorator of that name)."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = dotted_name(target)
        if dotted in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    """(name, AnnAssign) for every field, skipping ``ClassVar`` ones."""
    fields: List[Tuple[str, ast.AnnAssign]] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append((stmt.target.id, stmt))
    return fields


def annotation_names(annotation: ast.AST) -> Set[str]:
    """Every identifier mentioned in a type annotation, including names
    inside string ("forward reference") annotations."""
    names: Set[str] = set()
    stack: List[ast.AST] = [annotation]
    while stack:
        node = stack.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    stack.append(ast.parse(sub.value, mode="eval").body)
                except SyntaxError:
                    pass
    return names


def methods_of(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def methods_named(
    classes: Iterable[ast.ClassDef], cls_name: str, names: Set[str]
) -> Set[ast.AST]:
    """The methods called one of ``names`` on every class ``cls_name``
    among ``classes`` (rules exempt such subtrees from their walks)."""
    return {
        fn
        for cls in classes
        if cls.name == cls_name
        for name, fn in methods_of(cls).items()
        if name in names
    }


_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_nodes(fn: ast.AST, lambdas: bool = False) -> Iterator[ast.AST]:
    """Nodes of ``fn``'s own body, without nested ``def``s and classes,
    and without lambdas unless ``lambdas`` (the call graph attributes a
    lambda's calls to the function that builds it)."""
    skip = _NESTED if lambdas else (*_NESTED, ast.Lambda)
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, skip):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def store_targets(node: ast.AST) -> List[ast.expr]:
    """What an ``Assign``/``AugAssign`` stores to; ``[]`` otherwise."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, ast.AugAssign):
        return [node.target]
    return []


def self_slot(target: ast.AST) -> Optional[str]:
    """First-level attribute of a ``self``-rooted store target
    (``stats`` for ``self.stats.corrupt += 1``), else ``None``."""
    node: ast.AST = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if isinstance(parent, ast.Name) and parent.id == "self":
            return node.attr if isinstance(node, ast.Attribute) else None
        node = parent
    return None


def attribute_accesses(
    tree: ast.AST, attrs: Set[str], receiver_ok: Callable[[str], bool]
) -> Iterator[Tuple[str, ast.Attribute]]:
    """``(receiver, node)`` for every ``<receiver>.<attr>`` in ``tree``
    with ``attr`` in ``attrs`` and a dotted receiver ``receiver_ok``
    accepts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            receiver = dotted_name(node.value)
            if receiver is not None and receiver_ok(receiver):
                yield receiver, node


def walk_excluding(
    tree: ast.AST, excluded: Set[ast.AST]
) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into ``excluded`` subtrees."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if node in excluded:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
