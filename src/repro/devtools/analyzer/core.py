"""Core model of the contract checker: modules, findings, rules.

The analyzer is a whole-project pass, not a per-file linter: most of
the contracts it enforces (wire-schema completeness, stats
conservation, config hygiene) relate a declaration in one module to
uses in others.  So the unit of analysis is a :class:`Project` -- every
parsed module, addressable by dotted module name -- and a
:class:`Rule` receives the whole project and yields
:class:`Finding`\\ s.

Suppression has two layers:

* an inline comment ``# analyzer: allow[rule-name]`` (or a bare
  ``# analyzer: allow`` for every rule) silences findings on that line
  at parse time -- for violations that are *by design*, justified in
  the adjacent code;
* a baseline file (see :mod:`repro.devtools.analyzer.baseline`)
  silences known findings by stable key -- for debt that is tracked
  but not yet paid off.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Type

from repro.devtools.analyzer import astutil

#: Severity levels, in increasing order of badness.
SEVERITIES = ("warning", "error")

_ALLOW_RE = re.compile(r"#\s*analyzer:\s*allow(?:\[([^\]]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One contract violation at one location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: Stable symbol the finding is about (class/field/function name);
    #: part of the baseline key so findings survive line drift.
    symbol: str = ""

    def key(self) -> str:
        """Line-insensitive identity used by the baseline file."""
        return f"{self.rule}::{self.path}::{self.symbol or self.message}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule}] {self.message}"
        )


@dataclass
class SourceModule:
    """One parsed source file."""

    path: Path
    #: Dotted module name ("repro.sim.stats"); rules scope by prefix.
    module: str
    tree: ast.Module
    source: str
    #: line number -> set of rule names allowed there ("*" = all).
    allowed: Dict[int, frozenset] = field(default_factory=dict)

    @functools.cached_property
    def classes(self) -> List[ast.ClassDef]:
        """Every class definition, nested ones included (computed once:
        the config, stats and wire rules all scan every module's
        classes)."""
        return [n for n in ast.walk(self.tree) if isinstance(n, ast.ClassDef)]

    def is_allowed(self, rule: str, line: int) -> bool:
        allowed = self.allowed.get(line)
        if allowed is None:
            return False
        return "*" in allowed or rule in allowed

    @classmethod
    def parse(cls, path: Path, module: str) -> "SourceModule":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        allowed: Dict[int, frozenset] = {}
        # Only genuine COMMENT tokens count: a docstring that *mentions*
        # the `# analyzer: allow[...]` syntax must neither suppress nor
        # be reported as a stale suppression.  Tokenizing is most of the
        # parse cost, so files without the marker skip it.
        tokens: List[tokenize.TokenInfo] = []
        if _ALLOW_RE.search(source) is not None:
            try:
                tokens = list(
                    tokenize.generate_tokens(io.StringIO(source).readline)
                )
            except (tokenize.TokenError, IndentationError):  # pragma: no cover
                pass
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if match is None:
                continue
            lineno = tok.start[0]
            names = match.group(1)
            if names is None:
                allowed[lineno] = frozenset({"*"})
            else:
                allowed[lineno] = frozenset(
                    n.strip() for n in names.split(",") if n.strip()
                )
        return cls(path=path, module=module, tree=tree, source=source, allowed=allowed)


def in_packages(module: str, prefixes: Iterable[str]) -> bool:
    """Whether dotted ``module`` is, or is inside, any of ``prefixes``."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def module_name_for(path: Path) -> str:
    """Dotted module name from a file path.

    Everything after a ``src`` (or ``site-packages``) component is the
    package path; without one, the path relative to the current
    directory is used.  ``__init__.py`` names the package itself.
    """
    parts = list(path.parts)
    for anchor in ("src", "site-packages"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1 :]
            break
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or path.stem


@dataclass
class Project:
    """Every module under analysis, plus path bookkeeping for display."""

    modules: List[SourceModule] = field(default_factory=list)
    #: Paths that failed to parse: (path, error message).
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Base directory findings' paths are made relative to.
    root: Optional[Path] = None

    def dataclasses(self) -> Dict[str, Tuple[SourceModule, ast.ClassDef]]:
        """Every ``@dataclass`` in the project, by class name.  A name
        defined twice keeps its first definition (fixture projects in
        tests never duplicate; ``src/`` has unique class names)."""
        found: Dict[str, Tuple[SourceModule, ast.ClassDef]] = {}
        for mod in self.modules:
            for cls in mod.classes:
                if astutil.is_dataclass_def(cls):
                    found.setdefault(cls.name, (mod, cls))
        return found

    def in_package(self, *prefixes: str) -> Iterator[SourceModule]:
        """Modules whose dotted name is, or is inside, any prefix."""
        for mod in self.modules:
            if in_packages(mod.module, prefixes):
                yield mod

    def display_path(self, path: Path) -> str:
        if self.root is not None:
            try:
                return str(path.relative_to(self.root))
            except ValueError:
                pass
        return str(path)

    @classmethod
    def load(
        cls,
        paths: Sequence[Path],
        root: Optional[Path] = None,
        module_names: Optional[Mapping[Path, str]] = None,
    ) -> "Project":
        """Parse ``paths`` (files or directories, recursively).

        ``module_names`` overrides the derived dotted name per file --
        the test suite uses this to place fixture files inside
        pretend packages.
        """
        project = cls(root=root if root is not None else Path.cwd())
        seen = set()
        for path in paths:
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for file in files:
                resolved = file.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                name = (
                    module_names.get(file)
                    if module_names is not None and file in module_names
                    else module_name_for(file)
                )
                assert name is not None
                try:
                    project.modules.append(SourceModule.parse(file, name))
                except (SyntaxError, UnicodeDecodeError) as exc:
                    project.parse_errors.append((str(file), str(exc)))
        return project


class Rule:
    """Base class for one contract check.

    Subclasses set :attr:`name` / :attr:`description` /
    :attr:`default_severity` and implement :meth:`run`.  ``options``
    carries per-rule configuration (scope packages, root classes, ...)
    merged from the rule's :attr:`default_options` and any
    ``[tool.repro-analyzer.rules.<name>]`` table in ``pyproject.toml``.
    """

    name: str = ""
    description: str = ""
    default_severity: str = "error"
    default_options: Dict[str, Any] = {}

    def __init__(
        self,
        severity: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.severity = severity if severity is not None else self.default_severity
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        merged: Dict[str, Any] = dict(self.default_options)
        if options:
            merged.update(options)
        self.options = merged

    def run(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    # Convenience for subclasses -------------------------------------
    def finding(
        self,
        project: Project,
        mod: SourceModule,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=project.display_path(mod.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            symbol=symbol,
        )


#: name -> rule class, in registration order.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.name:
        raise ValueError(f"{rule_cls.__name__} has no name")
    if rule_cls.name in REGISTRY:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    REGISTRY[rule_cls.name] = rule_cls
    return rule_cls


def load_pyproject_config(start: Path) -> Dict[str, Any]:
    """The ``[tool.repro-analyzer]`` table from the nearest
    ``pyproject.toml`` at or above ``start`` (empty when absent or when
    ``tomllib`` is unavailable, i.e. Python < 3.11)."""
    if sys.version_info < (3, 11):  # pragma: no cover - version gate
        return {}
    import tomllib

    directory = start if start.is_dir() else start.parent
    for candidate in [directory, *directory.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            try:
                with open(pyproject, "rb") as fh:
                    data = tomllib.load(fh)
            except (OSError, tomllib.TOMLDecodeError):
                return {}
            tool = data.get("tool", {})
            section = tool.get("repro-analyzer", {})
            return dict(section) if isinstance(section, dict) else {}
    return {}


def make_rules(
    config: Optional[Mapping[str, Any]] = None,
    only: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Instantiate registered rules with per-rule config applied.

    ``config`` follows the ``[tool.repro-analyzer]`` layout::

        {"rules": {"determinism": {"severity": "warning",
                                   "enabled": True,
                                   "scope": ["repro.sim", ...]}}}
    """
    rule_tables: Mapping[str, Any] = (config or {}).get("rules", {})
    names = list(only) if only is not None else list(REGISTRY)
    # A table for an unregistered rule (a typo, a removed rule) would
    # otherwise configure nothing, silently.
    unknown = {n for n in [*names, *rule_tables] if n not in REGISTRY}
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    rules: List[Rule] = []
    for name in names:
        table = rule_tables.get(name, {})
        if not isinstance(table, Mapping):
            table = {}
        if only is None and not table.get("enabled", True):
            continue
        options = {
            k: v for k, v in table.items() if k not in ("severity", "enabled")
        }
        rules.append(REGISTRY[name](severity=table.get("severity"), options=options))
    return rules


#: Pseudo-rule name for stale-inline-suppression warnings.
STALE_SUPPRESSION = "stale-suppression"


def run_rules(
    project: Project,
    rules: Sequence[Rule],
    report_stale_suppressions: bool = False,
) -> List[Finding]:
    """Run every rule; inline-suppressed findings are dropped here.

    With ``report_stale_suppressions``, an ``# analyzer: allow[...]``
    comment that suppressed nothing in this run becomes a warning
    finding (rule :data:`STALE_SUPPRESSION`) -- baseline entries
    already report their staleness, and inline comments rot the same
    way.  Off by default: a partial run (``--rules determinism``, a
    narrowed scope) makes every other suppression look unused.
    """
    findings: List[Finding] = []
    path_to_mod = {project.display_path(m.path): m for m in project.modules}
    used: Dict[Tuple[str, int], bool] = {}
    for rule in rules:
        for finding in rule.run(project):
            mod = path_to_mod.get(finding.path)
            if mod is not None and mod.is_allowed(finding.rule, finding.line):
                used[(finding.path, finding.line)] = True
                continue
            findings.append(finding)
    if report_stale_suppressions:
        rule_names = {rule.name for rule in rules}
        for mod in project.modules:
            path = project.display_path(mod.path)
            for line, allowed in sorted(mod.allowed.items()):
                if used.get((path, line)):
                    continue
                names = sorted(allowed)
                # A suppression naming only rules outside this run may
                # be live for a rule that didn't execute: not stale.
                if "*" not in allowed and not (allowed & rule_names):
                    continue
                findings.append(
                    Finding(
                        rule=STALE_SUPPRESSION,
                        severity="warning",
                        path=path,
                        line=line,
                        col=1,
                        message=(
                            "stale suppression `# analyzer: "
                            f"allow[{', '.join(names)}]`: no finding on "
                            "this line needed it; delete the comment"
                        ),
                        symbol=f"line:{line}",
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
