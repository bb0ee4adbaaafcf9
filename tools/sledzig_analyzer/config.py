"""Shared configuration for the static-rules gate (DESIGN.md §11, §16).

One knob file.  Everything worth tuning — the line-rule patterns, which directory gets which rule, the unit-suffix vocabulary,
the sample-domain allowlist, the seed deriver names, the inline-allow
grammar and budget — lives here, not inside a rule.
"""

from __future__ import annotations

import fnmatch
import re

# Structural rules: judged from the facts a backend extracts.
RULE_RAW_UNIT = "raw-unit"
RULE_SEED = "seed-derivation"
RULE_TOKEN = "token-lifecycle"
RULE_SEED_DOMAIN = "seed-domain"
ALL_RULES = (RULE_RAW_UNIT, RULE_SEED, RULE_TOKEN, RULE_SEED_DOMAIN)

# Line rules: (name, regex, message), matched against comment-stripped
# lines.  `static-state` exempts only const-qualified statics; `\bstatic\b`
# cannot match inside static_cast or static_assert (`_` is a word
# character), and a cast on a mutable static's line exempts nothing.
LINE_RULES = (
    ("banned-rng",
     re.compile(r"std::random_device|\bsrand\s*\(|\bdrand48\b|\brand\s*\("),
     "nondeterministic RNG source; use common::Rng with an explicit seed"),
    ("wall-clock",
     re.compile(r"_clock::now\b|\bgettimeofday\b|\bclock_gettime\b"
                r"|\btime\s*\(\s*(?:NULL|nullptr|0|\))|\bclock\s*\(\s*\)"),
     "wall-clock read outside bench/; results must not depend on time"),
    ("unordered",
     re.compile(r"std::unordered_(?:multi)?(?:map|set)\b"),
     "hash-container iteration order is implementation-defined; use an "
     "ordered container (or index-addressed vector) on result paths"),
    ("raw-engine",
     re.compile(r"std::(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?"
                r"|ranlux\w*|knuth_b)\b"),
     "raw <random> engine; construct common::Rng instead"),
    ("library-draw",
     re.compile(r"std::(?:\w+_distribution|generate_canonical)\b"),
     "draw through a standard-library algorithm, whose output differs "
     "between libraries; draw through common::Rng instead"),
    ("static-state",
     re.compile(r"^(?!.*\bstatic\s+(?:inline\s+)?const(?:expr|init)?\b)"
                r".*\b(?:static|thread_local)\b"),
     "mutable static or thread_local storage; annotate with "
     "'lint: allow(static-state): <reason>' if intentional"),
)
# Rng seed expressions mixed by hand outside src/, where the structural
# seed-derivation rule does not run; judged on the same Rng ctor facts.
RULE_UNDERIVED = "underived-seed"

# Which rules each top-level directory gets: benches may time themselves,
# only src/ result paths are held to ordered containers, static state and
# the structural rules, and only bench/ and tools/ check seeds per Rng
# ctor (src/ checks them structurally).
_EVERYWHERE = ("banned-rng", "raw-engine", "library-draw")
PROFILES = {
    "src": frozenset(_EVERYWHERE + ("wall-clock", "unordered", "static-state")
                     + ALL_RULES),
    "bench": frozenset(_EVERYWHERE + (RULE_UNDERIVED,)),
    "tools": frozenset(_EVERYWHERE + ("wall-clock", RULE_UNDERIVED)),
    "tests": frozenset(_EVERYWHERE + ("wall-clock",)),
    "examples": frozenset(_EVERYWHERE + ("wall-clock",)),
}
# The one file that may draw through a library distribution.
RNG_HOME = "src/common/rng.h"


def rules_for(rel_path: str) -> frozenset[str]:
    """The rules a repo-relative path is checked against."""
    rules = PROFILES.get(rel_path.split("/", 1)[0], frozenset())
    if rel_path == RNG_HOME:
        rules -= {"library-draw"}
    if not rel_path.endswith(".cc"):
        rules -= {"static-state"}  # headers declare; .cc files define
    return rules


# A physical-unit suffix on a raw double parameter or field means the
# declaration should use the strong types in src/common/units.h
# (Db / Dbm / MilliWatt / Hz / MHz) instead.  Time (_us/_s) deliberately
# stays raw: the event clock is a plain double across the whole engine.
# The optional trailing underscore covers member naming (`noise_mw_`).
UNIT_SUFFIX_RE = re.compile(r"_(?:db|dbm|mw|hz|mhz)_?$")

# Sample-domain allowlist for the raw-unit rule only.  DSP code hands
# around doubles whose unit really is "whatever the FFT normalisation
# says": wrapping every bin power in a strong type would add noise, not
# safety.  The MAC/sim power spine is NOT in this list — that is the
# surface the strong types protect.  Globs are repo-root-relative.
RAW_UNIT_ALLOWLIST = (
    "src/common/dsp.*",
    "src/common/fft.*",
    "src/common/rng.*",
    "src/common/units.h",
    "src/channel/medium.*",
    "src/channel/impairments.*",
    "src/wifi/*",
    "src/zigbee/oqpsk.*",
    "src/zigbee/receiver.*",
    "src/zigbee/transmitter.*",
    "src/zigbee/chips.*",
    "src/zigbee/frame.*",
    "src/sledzig/channels.*",
    "src/sledzig/significant_bits.*",
    "src/sledzig/encoder.*",
    "src/sledzig/decoder.*",
    "src/sledzig/stream.*",
    "src/coex/detector.*",
)

# Functions whose calls launder arithmetic into a seed legitimately, and
# whose own bodies may therefore mix seeds by hand.
SEED_DERIVERS = ("derive_seed", "splitmix64", "stage_seed")

# Seed-domain tags — the sparse magic constants that branch independent
# seed streams (derive_seed(seed, kFaultPlan)) — must be named in the
# registry header, whose compile-time uniqueness check is what keeps two
# subsystems from ever branching on the same tag.  A wide hex literal
# passed straight to a deriver is an ad-hoc tag dodging that check.
SEED_DOMAIN_REGISTRY = "src/common/seed_domains.h"
# Hex digits below this look like ordinary small indices, not domain tags.
SEED_DOMAIN_MIN_HEX_DIGITS = 5

# Identifiers that carry seed meaning: `seed`, `base_seed`, `fault_seed`...
SEED_IDENT_RE = re.compile(r"(?:^|_)seed(?:_|$)|^seed", re.IGNORECASE)

# Arithmetic operators that count as "mixing" when adjacent to a seed.
SEED_MIX_OPS = {"+", "-", "*", "/", "%", "^", "<<", ">>"}

# Inline suppression, one grammar for every rule:
#   // lint: allow(rule): reason
ALLOW_RE = re.compile(r"lint:\s*allow\(([a-z-]+)\)\s*:?\s*(.*)")
# A structural-rule allow suppresses findings up to this many lines below
# it (annotations are often multi-line comment blocks above the site) and
# must give a reason; a line-rule allow covers its own line and the next.
ALLOW_REACH_LINES = 4
# Hard cap on structural-rule allows across src/ — the escape hatch must
# stay an escape hatch (fewer than 15, each reasoned).
MAX_ALLOWS = 15

# Self-test fixture directive: check the fixture as if it sat at this
# repo-relative path (its first component picks the profile; the rest
# exercises the allowlist logic).
VIRTUAL_PATH_RE = re.compile(r"//\s*analyzer:\s*path\s+(\S+)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def raw_unit_allowlisted(rel_path: str) -> bool:
    return any(fnmatch.fnmatch(rel_path, g) for g in RAW_UNIT_ALLOWLIST)
