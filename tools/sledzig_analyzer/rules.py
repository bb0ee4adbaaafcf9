"""Rules layer: FileFacts -> Findings.

Backend-independent.  A file is checked against its directory's profile
(config.rules_for).  Line rules (DESIGN.md §11) match comment-stripped
lines:

  banned-rng       nondeterministic RNG sources (std::random_device,
                   rand(), srand(), drand48), everywhere.
  wall-clock       clock reads (time(), clock(), gettimeofday,
                   std::chrono::*_clock::now) outside bench/ — benchmarks
                   may time themselves; results must not.
  unordered        std::unordered_{map,set,...} in src/ — iteration order
                   is implementation-defined.
  raw-engine       direct <random> engines, everywhere — all randomness
                   goes through common::Rng, whose engine is in the tree.
  library-draw     std::*_distribution and std::generate_canonical outside
                   src/common/rng.h — their algorithms are the library's,
                   not the standard's.
  static-state     mutable static or thread_local storage in src/ .cc
                   files, where cross-thread nondeterminism breeds.
  underived-seed   hand-mixed Rng seed expressions in bench/ and tools/.

Structural rules (DESIGN.md §16) judge extracted facts, in src/ only:

  raw-unit         double/float parameters and fields whose names carry a
                   physical-unit suffix must use the strong types in
                   src/common/units.h (sample-domain files allowlisted).
  seed-derivation  every Rng seed expression and every seed-named value
                   must trace to a deriver (derive_seed / splitmix64 /
                   stage_seed); hand-mixed arithmetic is flagged.
  token-lifecycle  a function arming a kTimer event must invalidate a
                   token first, or carry a documented allow.
  seed-domain      wide hex literals passed straight to a seed deriver are
                   ad-hoc domain tags; they belong in the registry header
                   (src/common/seed_domains.h) behind its compile-time
                   uniqueness check.

Suppression: `// lint: allow(rule): reason`.  A line-rule allow covers its
own line and the next.  A structural allow reaches ALLOW_REACH_LINES
below it and needs a reason (one without is itself a finding), and src/'s
structural allows are capped at MAX_ALLOWS (allow-budget).
"""

from __future__ import annotations

import re

import config
from config import (ALL_RULES, RULE_RAW_UNIT, RULE_SEED, RULE_SEED_DOMAIN,
                    RULE_TOKEN, RULE_UNDERIVED, raw_unit_allowlisted)
from ir import Allow, FileFacts, Finding

_ARITH_RE = re.compile(r"[+^%]|(?<![*/])\*(?![*/])|<<|>>")


def collect_allows(raw_lines: list[str]) -> list[Allow]:
    allows: list[Allow] = []
    for idx, line in enumerate(raw_lines):
        m = config.ALLOW_RE.search(line)
        if m:
            allows.append(Allow(idx + 1, m.group(1), m.group(2).strip()))
    return allows


def _allowed(allows: list[Allow], line: int, rule: str) -> bool:
    reach = config.ALLOW_REACH_LINES if rule in ALL_RULES else 1
    return any(a.rule == rule and line - reach <= a.line <= line
               for a in allows)


def seed_expr_is_derived(expr: str) -> bool:
    """No mixing arithmetic at all (plain variable, member, or literal),
    or the mixing is routed through a deriver call."""
    if not _ARITH_RE.search(expr):
        return True
    return any(fn in expr for fn in config.SEED_DERIVERS)


def evaluate(facts: FileFacts, rel_path: str) -> list[Finding]:
    rules = config.rules_for(rel_path)
    allows = facts.allows
    findings: list[Finding] = []

    def add(line: int, rule: str, message: str) -> None:
        if not _allowed(allows, line, rule):
            findings.append(Finding(rel_path, line, rule, message))

    for idx, code in enumerate(facts.lines):
        for name, pattern, message in config.LINE_RULES:
            if name in rules and pattern.search(code):
                add(idx + 1, name, message)

    for seed_rule in rules & {RULE_SEED, RULE_UNDERIVED}:
        for c in facts.rng_ctors:
            if not seed_expr_is_derived(c.expr):
                add(c.line, seed_rule,
                    f"Rng seed expression '{c.expr.strip()}' mixes by hand; "
                    "route index-dependent seeds through common::derive_seed")

    if RULE_RAW_UNIT in rules and not raw_unit_allowlisted(rel_path):
        for d in facts.unit_decls:
            add(d.line, RULE_RAW_UNIT,
                f"raw double {d.kind} '{d.name}' carries a unit suffix; use "
                "the strong types in common/units.h (Db/Dbm/MilliWatt/Hz)")

    if RULE_SEED in rules:
        for s in facts.seed_mixes:
            add(s.line, RULE_SEED,
                f"seed-typed value '{s.text}' flows through arithmetic "
                "outside a deriver; only derive_seed-family functions may "
                "mix seeds")

    if RULE_SEED_DOMAIN in rules and rel_path != config.SEED_DOMAIN_REGISTRY:
        for dl in facts.domain_literals:
            add(dl.line, RULE_SEED_DOMAIN,
                f"ad-hoc seed-domain tag {dl.text} passed straight to a "
                "deriver; name it in common/seed_domains.h "
                "(seed_domain::k...) so the registry's uniqueness check "
                "covers it")

    seen_funcs: set[int] = set()
    for t in facts.timer_arms if RULE_TOKEN in rules else ():
        if t.guarded or t.func_line in seen_funcs:
            continue
        seen_funcs.add(t.func_line)
        if _allowed(allows, t.line, RULE_TOKEN):
            continue
        where = f"'{t.func_name}' " if t.func_name else ""
        add(t.func_line, RULE_TOKEN,
            f"function {where}arms a kTimer event (line {t.line}) without "
            "invalidating a token first; stale timers outlive their state")

    for a in allows:
        if a.rule in ALL_RULES and a.rule in rules and not a.reason:
            findings.append(Finding(
                rel_path, a.line, a.rule,
                "allow annotation without a reason; write "
                f"'lint: allow({a.rule}): <why this site is exempt>'"))

    return findings


def check_allow_budget(per_file_allows: dict[str, list[Allow]]) -> list[Finding]:
    """Tree-level cap on structural-rule allows: the escape hatch must stay
    rare enough to audit by hand."""
    sites = [(path, a) for path, allows in per_file_allows.items()
             for a in allows
             if a.rule in ALL_RULES and a.rule in config.rules_for(path)]
    if len(sites) < config.MAX_ALLOWS:
        return []
    listing = ", ".join(f"{p}:{a.line}" for p, a in sites)
    path, a = sites[-1]
    return [Finding(
        path, a.line, "allow-budget",
        f"{len(sites)} structural allows in src/ (budget {config.MAX_ALLOWS}); "
        f"fix sites instead of annotating them ({listing})")]
