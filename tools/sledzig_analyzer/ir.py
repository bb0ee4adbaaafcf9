"""Backend-neutral fact records.

A backend (libclang AST or the fallback lexer) reduces one translation
unit to these facts; the rules layer never sees tokens or cursors, so
both backends are interchangeable and testable against the same fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class UnitDecl:
    """A raw floating-point declaration with a physical-unit name suffix."""

    line: int
    kind: str  # 'param' | 'field'
    name: str


@dataclass(frozen=True)
class RngCtor:
    """An Rng construction; `expr` is the seed argument text."""

    line: int
    expr: str


@dataclass(frozen=True)
class SeedMix:
    """A seed-named identifier adjacent to mixing arithmetic outside any
    deriver call and outside a deriver's own body."""

    line: int
    text: str


@dataclass(frozen=True)
class DomainLiteral:
    """A wide hex literal passed directly inside a seed-deriver call —
    an ad-hoc seed-domain tag that bypasses the registry's compile-time
    uniqueness check."""

    line: int
    text: str


@dataclass(frozen=True)
class TimerArm:
    """A kTimer EventQueue push.  `guarded` is True when the enclosing
    function invalidates a token (++/+= on a token member) before the
    push; `func_line` anchors the finding at the function header."""

    line: int
    func_line: int
    func_name: str
    guarded: bool


@dataclass(frozen=True)
class Allow:
    """An inline `lint: allow(rule): reason` annotation."""

    line: int
    rule: str
    reason: str


@dataclass
class FileFacts:
    lines: list[str] = field(default_factory=list)  # comment-stripped
    unit_decls: list[UnitDecl] = field(default_factory=list)
    rng_ctors: list[RngCtor] = field(default_factory=list)
    seed_mixes: list[SeedMix] = field(default_factory=list)
    domain_literals: list[DomainLiteral] = field(default_factory=list)
    timer_arms: list[TimerArm] = field(default_factory=list)
    allows: list[Allow] = field(default_factory=list)


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"
