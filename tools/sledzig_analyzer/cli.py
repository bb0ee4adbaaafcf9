"""CLI for the SledZig static-rules gate (DESIGN.md §11, §16).

    python3 tools/sledzig_analyzer --root <repo>            # lint the tree
    python3 tools/sledzig_analyzer --root <repo> --only src/sim
    python3 tools/sledzig_analyzer --self-test --root <repo>
    python3 tools/sledzig_analyzer --backend lexer|clang|auto

Exit 1 on any finding.  `--backend auto` (default) prefers the libclang
AST backend when importable and falls back to the built-in lexer backend
otherwise, so the check runs identically on a bare toolchain image and in
CI (which pins the libclang wheel).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import clang_backend
import config
import lexer_backend
import rules
from ir import Allow, FileFacts, Finding

SCAN_DIRS = ("bench", "examples", "src", "tests", "tools")
SUFFIXES = {".cc", ".h", ".cpp"}
# Seeded violations; the self-test owns them and the tree scan skips them.
FIXTURES = "tools/sledzig_analyzer/fixtures"


def pick_backend(requested: str) -> str:
    if requested == "lexer":
        return "lexer"
    if requested == "clang":
        if not clang_backend.available():
            print("analyzer: --backend clang requested but clang.cindex is "
                  "not usable", file=sys.stderr)
            sys.exit(2)
        return "clang"
    return "clang" if clang_backend.available() else "lexer"


def extract_facts(backend: str, text: str, rel_path: str,
                  include_dirs: list[str]) -> FileFacts:
    # The AST only sharpens raw-unit; elsewhere the lexer's facts suffice.
    if backend == "clang" and config.RULE_RAW_UNIT in config.rules_for(rel_path):
        try:
            return clang_backend.extract(text, rel_path, include_dirs)
        except Exception as err:  # pragma: no cover - env-dependent
            print(f"analyzer: clang backend failed on {rel_path} ({err}); "
                  "falling back to lexer", file=sys.stderr)
    return lexer_backend.extract(text, rel_path)


def analyze(backend: str, text: str, rel_path: str,
            include_dirs: list[str]) -> tuple[list[Finding], list[Allow]]:
    facts = extract_facts(backend, text, rel_path, include_dirs)
    facts.allows = rules.collect_allows(text.splitlines())
    return rules.evaluate(facts, rel_path), facts.allows


def scan_tree(root: Path, backend: str, only: str | None) -> list[Finding]:
    include_dirs = [str(root / "src")]
    prefix = only.strip("/") if only else None
    findings: list[Finding] = []
    per_file_allows = {}
    for dirname in SCAN_DIRS:
        for path in sorted((root / dirname).rglob("*")):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith(FIXTURES + "/"):
                continue
            if prefix is not None and rel != prefix \
                    and not rel.startswith(prefix + "/"):
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            file_findings, allows = analyze(backend, text, rel, include_dirs)
            findings.extend(file_findings)
            if allows:
                per_file_allows[rel] = allows
    findings.extend(rules.check_allow_budget(per_file_allows))
    return findings


# ---------------------------------------------------------------------------
# Self-test against the seeded fixtures
# ---------------------------------------------------------------------------

def self_test_backend(fixture_dir: Path, backend: str) -> int:
    fixtures = sorted(fixture_dir.iterdir())
    if len(fixtures) < 12:
        print(f"self-test: only {len(fixtures)} fixtures under {fixture_dir}; "
              "the invariant catalogue needs >= 12", file=sys.stderr)
        return 1

    failures = 0
    total_expected = 0
    for path in fixtures:
        if path.suffix not in SUFFIXES:  # a fixture the tree walk would skip
            print(f"{path}: self-test: the tree scan reads no "
                  f"'{path.suffix}' files")
            failures += 1
            continue
        raw = path.read_text(encoding="utf-8")
        virtual = f"src/fixture/{path.name}"
        expected: set[tuple[int, str]] = set()
        for idx, line in enumerate(raw.splitlines()):
            vm = config.VIRTUAL_PATH_RE.search(line)
            if vm:
                virtual = vm.group(1)
            em = config.EXPECT_RE.search(line)
            if em:
                for rule in re.split(r"\s*,\s*", em.group(1)):
                    expected.add((idx + 1, rule))
        total_expected += len(expected)

        fired = {(f.line, f.rule) for f in analyze(backend, raw, virtual, [])[0]}
        for line_no, rule in sorted(expected - fired):
            print(f"{path}:{line_no}: self-test[{backend}]: [{rule}] expected "
                  "but not detected")
            failures += 1
        for line_no, rule in sorted(fired - expected):
            print(f"{path}:{line_no}: self-test[{backend}]: [{rule}] fired "
                  "unexpectedly")
            failures += 1

    if failures:
        print(f"self-test[{backend}] FAILED: {failures} mismatch(es)")
        return 1
    print(f"self-test[{backend}] OK: {total_expected} seeded finding(s) "
          f"across {len(fixtures)} fixture(s), no false positives")
    return 0


def self_test_budget() -> int:
    """allow-budget judges the whole tree, so no one fixture reaches it:
    14 structural allows in src/ pass and 15 fail, whatever bench/, tests/
    and src/'s line-rule allows add."""
    others = {"bench/b.cc": [Allow(1, config.RULE_SEED, "r")],
              "tests/t.cc": [Allow(1, config.RULE_RAW_UNIT, "r")],
              "src/line.cc": [Allow(1, "static-state", "r")]}

    def tree(n_src: int) -> dict[str, list[Allow]]:
        src = {f"src/s{i}.cc": [Allow(1, config.RULE_TOKEN, "r")]
               for i in range(n_src)}
        return {**others, **src}

    under = rules.check_allow_budget(tree(14))
    at = rules.check_allow_budget(tree(15))
    if under or [f.rule for f in at] != ["allow-budget"] \
            or not at[0].message.startswith("15 structural allows"):
        print(f"self-test: allow-budget FAILED: 14 src allows gave "
              f"{[str(f) for f in under]}, 15 gave {[str(f) for f in at]}")
        return 1
    print("self-test: allow-budget OK: fires at 15 structural allows in "
          "src/ and counts no other allow")
    return 0


def self_test(root: Path, backend: str) -> int:
    backends = [backend]
    if backend == "auto":
        backends = ["lexer"]
        if clang_backend.available():
            backends.append("clang")
    status = self_test_budget()
    for b in backends:
        status |= self_test_backend(root / FIXTURES, b)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="sledzig_analyzer", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent.parent,
        help="repository root (default: the tree containing this tool)")
    parser.add_argument(
        "--backend", choices=("auto", "lexer", "clang"), default="auto",
        help="fact-extraction backend (auto: clang when usable, else lexer)")
    parser.add_argument(
        "--self-test", action="store_true",
        help=f"check every rule against the seeded fixtures in {FIXTURES}/ "
             "under the root and exit")
    parser.add_argument(
        "--only", metavar="PREFIX", default=None,
        help="restrict the scan to files under this root-relative prefix")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root, args.backend)

    backend = pick_backend(args.backend)
    findings = scan_tree(args.root, backend, args.only)
    for finding in findings:
        print(finding)
    if findings:
        print(f"sledzig_analyzer[{backend}]: {len(findings)} finding(s)")
        return 1
    print(f"sledzig_analyzer[{backend}]: clean ({args.only or 'tree'})")
    return 0
