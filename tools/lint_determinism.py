#!/usr/bin/env python3
"""Determinism linter for the SledZig tree (see DESIGN.md §11).

The repository's reproducibility contract: every figure, table, and test
output is a pure function of (config, seed), bit-identical for any thread
count.  PRs 1-2 established the conventions that make this true — explicit
`common::Rng` seeding, `derive_seed` for per-trial streams, index-addressed
parallel results, no wall clocks in result paths.  This linter machine-
enforces them with line-level checks over the compilation units:

  banned-rng      nondeterministic RNG sources (std::random_device, rand(),
                  srand(), drand48) anywhere in the tree.
  wall-clock      clock reads (time(), clock(), gettimeofday,
                  std::chrono::*_clock::now) outside bench/ — benchmarks may
                  time themselves; results must not.
  unordered       std::unordered_{map,set,...} in src/ — iteration order is
                  implementation-defined, so a hash container feeding any
                  result or output path silently breaks run-to-run identity.
  raw-engine      direct <random> engine construction (std::mt19937, ...)
                  anywhere — all randomness goes through common::Rng, whose
                  engine is in the tree, so seeds stay explicit and
                  auditable.
  library-draw    std::*_distribution and std::generate_canonical outside
                  src/common/rng.h — their algorithms are the standard
                  library's, not the standard's, so a draw through one
                  changes with the library; rng.h's uniform_int is the one
                  user.
  underived-seed  Rng seed expressions built by ad-hoc arithmetic
                  (base + i, seed ^ trial, ...) in tools/ and bench/ —
                  index-dependent seeds must go through
                  common::derive_seed / splitmix64, which actually
                  decorrelate neighbouring streams.  For src/ this rule
                  is owned by tools/sledzig_analyzer, which checks it
                  structurally (ctor sites, member initialisers, seed
                  value flow) instead of per-line.
  static-state    mutable static or thread_local storage in src/ .cc
                  files — shared and per-thread state is where cross-thread
                  nondeterminism breeds, so every instance needs an
                  explicit allow annotation + reason.

A finding is suppressed by an annotation on the same line or the line
above:

    // lint: allow(static-state): memo cache, guarded by `mutex` below

Run `lint_determinism.py --root <repo>` to lint the tree (exit 1 on any
finding) and `--self-test` to check the linter against the seeded-violation
fixtures in tools/lint_fixtures/ (exit 1 unless every expected finding is
detected and nothing else fires).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

ALLOW_RE = re.compile(r"lint:\s*allow\(([a-z-]+)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")

# (name, regex, message) — matched against comment-stripped lines.
PATTERN_RULES = [
    (
        "banned-rng",
        re.compile(r"std::random_device|\bsrand\s*\(|\bdrand48\b|\brand\s*\("),
        "nondeterministic RNG source; use common::Rng with an explicit seed",
    ),
    (
        "wall-clock",
        re.compile(
            r"_clock::now\b|\bgettimeofday\b|\bclock_gettime\b"
            r"|\btime\s*\(\s*(?:NULL|nullptr|0|\))|\bclock\s*\(\s*\)"
        ),
        "wall-clock read outside bench/; results must not depend on time",
    ),
    (
        "unordered",
        re.compile(r"std::unordered_(?:multi)?(?:map|set)\b"),
        "hash-container iteration order is implementation-defined; use an "
        "ordered container (or index-addressed vector) on result paths",
    ),
    (
        "raw-engine",
        re.compile(
            r"std::(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?"
            r"|ranlux\w*|knuth_b)\b"
        ),
        "raw <random> engine; construct common::Rng instead",
    ),
    (
        "library-draw",
        re.compile(r"std::(?:\w+_distribution|generate_canonical)\b"),
        "draw through a standard-library algorithm, whose output differs "
        "between libraries; draw through common::Rng instead",
    ),
]

# The one file that may draw through a library distribution.
RNG_HOME = "src/common/rng.h"

# Rng constructions: `Rng name(expr)` or `Rng(expr)`, possibly qualified.
RNG_CTOR_RE = re.compile(r"\bRng\s+\w+\s*\(|\bRng\s*\(")
SEED_DERIVERS = ("derive_seed", "splitmix64", "stage_seed")

# Only const-qualified statics are exempt.  `\bstatic\b` cannot match
# inside static_cast or static_assert (`_` is a word character), so those
# need no exemption, and a cast on a mutable static's line exempts nothing.
STATIC_OK_RE = re.compile(r"\bstatic\s+(?:inline\s+)?const(?:expr|init)?\b")
STATIC_RE = re.compile(r"\b(?:static|thread_local)\b")

RULE_NAMES = {name for name, _, _ in PATTERN_RULES} | {
    "underived-seed",
    "static-state",
}


def strip_comments(lines: list[str]) -> list[str]:
    """Removes // tails and /* */ contents line-wise (block structure kept)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                result.append(line[i])
                i += 1
        out.append("".join(result))
    return out


def rng_seed_expr(code: str) -> str | None:
    """Returns the argument text of an Rng construction on this line."""
    m = RNG_CTOR_RE.search(code)
    if m is None:
        return None
    open_paren = code.index("(", m.start())
    depth = 0
    for j in range(open_paren, len(code)):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1 : j]
    return code[open_paren + 1 :]  # unbalanced (multi-line call): best effort


def seed_is_derived(expr: str) -> bool:
    if not re.search(r"[+^%]|(?<![*/])\*(?![*/])", expr):
        return True  # no mixing arithmetic at all — plain variable or literal
    return any(fn in expr for fn in SEED_DERIVERS)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


def scan_file(path: Path, profile: str) -> list[Finding]:
    """Lints one file.  `profile` is 'src', 'bench', 'tools', or 'aux'
    (tests/examples): bench may read clocks; only src is checked for hash
    containers and static state; seed derivation is checked for bench and
    tools (src seed discipline lives in tools/sledzig_analyzer)."""
    raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
    code = strip_comments(raw)
    findings: list[Finding] = []

    def allowed(idx: int, rule: str) -> bool:
        for probe in (idx, idx - 1):
            if probe >= 0:
                m = ALLOW_RE.search(raw[probe])
                if m and m.group(1) == rule:
                    return True
        return False

    def add(idx: int, rule: str, message: str) -> None:
        if not allowed(idx, rule):
            findings.append(Finding(path, idx + 1, rule, message))

    for idx, line in enumerate(code):
        for name, pattern, message in PATTERN_RULES:
            if name == "wall-clock" and profile == "bench":
                continue
            if name == "unordered" and profile != "src":
                continue
            if name == "library-draw" and path.as_posix().endswith(RNG_HOME):
                continue
            if pattern.search(line):
                add(idx, name, message)

        if profile in ("bench", "tools"):
            expr = rng_seed_expr(line)
            if expr is not None and not seed_is_derived(expr):
                add(
                    idx,
                    "underived-seed",
                    f"seed expression '{expr.strip()}' mixes by hand; derive "
                    "index-dependent seeds with common::derive_seed",
                )

        if profile == "src":
            if (
                path.suffix == ".cc"
                and STATIC_RE.search(line)
                and not STATIC_OK_RE.search(line)
            ):
                add(
                    idx,
                    "static-state",
                    "mutable static or thread_local storage; annotate with "
                    "'lint: allow(static-state): <reason>' if intentional",
                )

    return findings


# --------------------------------------------------------------------------
# Tree scan and self-test
# --------------------------------------------------------------------------

SCAN_DIRS = {
    "src": "src",
    "bench": "bench",
    "tests": "aux",
    "examples": "aux",
    "tools": "tools",
}
SUFFIXES = {".cc", ".h"}
# Fixture trees hold deliberate violations; the self-tests own them.
SKIP_PARTS = ("tools/lint_fixtures", "tools/sledzig_analyzer/fixtures")


def scan_tree(root: Path, only: str | None = None) -> list[Finding]:
    """Lints the scan dirs under `root`; `only` restricts the walk to files
    whose root-relative path starts with that prefix (e.g. `src/sim`)."""
    prefix = only.strip("/") if only else None
    findings: list[Finding] = []
    for dirname, profile in sorted(SCAN_DIRS.items()):
        base = root / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if any(rel.startswith(skip + "/") for skip in SKIP_PARTS):
                continue
            if prefix is not None:
                if rel != prefix and not rel.startswith(prefix + "/"):
                    continue
            findings.extend(scan_file(path, profile))
    return findings


PROFILE_RE = re.compile(r"//\s*lint-profile:\s*(\w+)")


def self_test(root: Path) -> int:
    """Checks the linter against its fixtures: every `// expect:` marker must
    fire, and nothing unexpected may fire.  Fixtures scan under profile
    'src' unless they carry a `// lint-profile: <name>` directive."""
    fixture_dir = root / "tools" / "lint_fixtures"
    fixtures = sorted(fixture_dir.glob("*.cc")) + sorted(fixture_dir.glob("*.h"))
    if not fixtures:
        print(f"self-test: no fixtures found under {fixture_dir}", file=sys.stderr)
        return 1

    failures = 0
    total_expected = 0
    for path in fixtures:
        raw = path.read_text(encoding="utf-8").splitlines()
        profile = "src"
        expected: set[tuple[int, str]] = set()
        for idx, line in enumerate(raw):
            pm = PROFILE_RE.search(line)
            if pm:
                profile = pm.group(1)
            m = EXPECT_RE.search(line)
            if m:
                for rule in re.split(r"\s*,\s*", m.group(1)):
                    if rule not in RULE_NAMES:
                        print(f"{path}:{idx + 1}: unknown rule '{rule}'")
                        failures += 1
                    expected.add((idx + 1, rule))
        total_expected += len(expected)

        fired = {(f.line, f.rule) for f in scan_file(path, profile)}
        for line_no, rule in sorted(expected - fired):
            print(f"{path}:{line_no}: self-test: [{rule}] expected but not detected")
            failures += 1
        for line_no, rule in sorted(fired - expected):
            print(f"{path}:{line_no}: self-test: [{rule}] fired unexpectedly")
            failures += 1

    if failures:
        print(f"self-test FAILED: {failures} mismatch(es)")
        return 1
    print(
        f"self-test OK: {total_expected} seeded finding(s) across "
        f"{len(fixtures)} fixture(s) all detected, no false positives"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the tree containing this script)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the linter against tools/lint_fixtures/ and exit",
    )
    parser.add_argument(
        "--only", metavar="PREFIX", default=None,
        help="restrict the scan to files under this root-relative path "
             "prefix (e.g. src/sim)",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    findings = scan_tree(args.root, args.only)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s)")
        return 1
    scope = args.only if args.only else "tree"
    print(f"lint_determinism: clean ({scope})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
