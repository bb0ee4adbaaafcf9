"""Fallback backend: a self-contained C++ lexer with a micro-AST.

No third-party dependencies — this is what runs when libclang is not
installed (the common case on a bare toolchain image).  It tokenizes the
translation unit, tracks brace scopes (namespace / class / function /
block / initializer) and paren frames (tagged with the callee name), and
emits the same FileFacts the clang backend produces.

Deliberate scope limits, shared with the clang backend so the two agree:

* raw-unit looks at PARAMETERS of declarations outside function bodies
  and at FIELDS of class/struct scope.  Locals (`const double avg_dbm`)
  and return types are legitimate raw-double territory — conversions in
  and out of the typed domain happen somewhere, and that somewhere is a
  local.
* seed facts are lexical by design: the rule enforces a *source-level*
  convention (all mixing goes through a deriver), so textual adjacency is
  the right level to check it at.
* the line rules see the source line by line with comments blanked and
  string literals kept, exactly as written.
"""

from __future__ import annotations

import re

from config import (SEED_DERIVERS, SEED_DOMAIN_MIN_HEX_DIGITS, SEED_IDENT_RE,
                    SEED_MIX_OPS, UNIT_SUFFIX_RE)
from ir import DomainLiteral, FileFacts, RngCtor, SeedMix, TimerArm, UnitDecl

TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<string>"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*')
  | (?P<number>(?:0[xX][0-9a-fA-F']+|\d[\d']*(?:\.\d*)?(?:[eE][+-]?\d+)?)\w*)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct><<=|>>=|<=>|->\*|<<|>>|\+\+|--|->|::|\+=|-=|\*=|/=|%=|\^=|&=|\|=|==|!=|<=|>=|&&|\|\||\.\.\.|.)
    """,
    re.VERBOSE | re.DOTALL,
)

COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?(?:\*/|\Z)", re.DOTALL)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return"}
FUNC_TAIL = {")", "const", "noexcept", "override", "final", "mutable"}


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.text!r}@{self.line})"


def strip_comments(text: str) -> list[str]:
    """The lines of `text.splitlines()` with comments removed; a block
    comment keeps its line breaks, so line numbers still match."""
    joined = "\n".join(text.splitlines())
    return COMMENT_RE.sub(lambda m: "\n" * m.group().count("\n"),
                          joined).split("\n")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    for m in TOKEN_RE.finditer(text):
        kind = m.lastgroup or "punct"
        s = m.group()
        if kind not in ("ws", "comment", "string"):
            tokens.append(Token(kind, s, line))
        line += s.count("\n")
    return tokens


class _Scope:
    __slots__ = ("kind", "name", "line", "token_bumped")

    def __init__(self, kind: str, name: str, line: int):
        self.kind = kind
        self.name = name
        self.line = line
        # Only meaningful on 'function': a token invalidation was seen.
        self.token_bumped = False


def _segment_function_name(segment: list[Token]) -> str:
    """Name of the function whose header `segment` is: the identifier
    before the top-level '(' (skipping template argument lists)."""
    depth = 0
    for i, tok in enumerate(segment):
        if tok.text == "(" and depth == 0:
            for j in range(i - 1, -1, -1):
                if segment[j].kind == "ident":
                    return segment[j].text
                if segment[j].text not in (">", "::"):
                    break
            return ""
        if tok.text in ("(", "[", "{"):
            depth += 1
        elif tok.text in (")", "]", "}"):
            depth -= 1
    return ""


def _classify_brace(segment: list[Token], stack: list[_Scope]) -> _Scope:
    """Classifies the scope opened by a '{' from the tokens since the last
    statement boundary at the same nesting level."""
    texts = [t.text for t in segment]
    line = segment[-1].line if segment else 1
    prev = texts[-1] if texts else ""
    enclosing = stack[-1].kind if stack else "namespace"

    if "namespace" in texts:
        return _Scope("namespace", "", line)
    if "enum" in texts:
        return _Scope("enum", "", line)
    if prev in ("else", "do", "try"):
        return _Scope("block", "", line)
    name = _segment_function_name(segment)
    if prev in FUNC_TAIL or (prev == "" and enclosing in ("function", "block")):
        if name in CONTROL_KEYWORDS or enclosing in ("function", "block"):
            return _Scope("block", "", line)
        return _Scope("function", name, line)
    if any(k in texts for k in ("class", "struct", "union")) and "(" not in texts:
        return _Scope("class", "", line)
    if prev in ("=", ",", "(", "{", "return") or enclosing in ("function", "block"):
        return _Scope("block" if enclosing in ("function", "block") else "init",
                      "", line)
    # Trailing-return / attribute-laden headers land here; a '(' in the
    # segment at namespace/class scope means a function header.
    if "(" in texts and enclosing in ("namespace", "class"):
        return _Scope("function", name, line)
    return _Scope("other", "", line)


def _balanced_args(tokens: list[Token], open_idx: int) -> tuple[str, int]:
    """Text of the balanced (...) starting at `open_idx`, and the index
    one past the closing paren."""
    depth = 0
    parts: list[str] = []
    i = open_idx
    while i < len(tokens):
        t = tokens[i].text
        if t == "(":
            depth += 1
            if depth > 1:
                parts.append(t)
        elif t == ")":
            depth -= 1
            if depth == 0:
                return " ".join(parts), i + 1
            parts.append(t)
        elif depth >= 1:
            parts.append(t)
        i += 1
    return " ".join(parts), i


RNG_NAME_RE = re.compile(r"(?:^|_)rng_?$|^rng")


def extract(text: str, rel_path: str) -> FileFacts:
    facts = FileFacts(lines=strip_comments(text))
    tokens = tokenize(text)
    n = len(tokens)

    stack: list[_Scope] = []
    segment: list[Token] = []  # tokens since last ; { } at this level
    # Paren frames: (callee_name, enclosing_function_name_at_open).
    paren_stack: list[str] = []

    def innermost_function() -> _Scope | None:
        for sc in reversed(stack):
            if sc.kind == "function":
                return sc
        return None

    def in_function_body() -> bool:
        return any(sc.kind in ("function", "block") for sc in stack)

    def class_depth_top() -> bool:
        return bool(stack) and stack[-1].kind == "class"

    i = 0
    while i < n:
        tok = tokens[i]
        t = tok.text

        if t == "{":
            stack.append(_classify_brace(segment, stack))
            segment = []
            i += 1
            continue
        if t == "}":
            if stack:
                stack.pop()
            segment = []
            i += 1
            continue
        if t == ";":
            segment = []
            i += 1
            continue
        if t == "(":
            callee = ""
            if segment and segment[-1].kind == "ident":
                callee = segment[-1].text
            paren_stack.append(callee)
        elif t == ")":
            if paren_stack:
                paren_stack.pop()

        # ---- raw-unit: double/float params and fields --------------------
        if tok.kind == "ident" and t in ("double", "float"):
            j = i + 1
            while j < n and tokens[j].text in ("const", "&", "*"):
                j += 1
            if j < n and tokens[j].kind == "ident":
                name = tokens[j].text
                nxt = tokens[j + 1].text if j + 1 < n else ""
                if UNIT_SUFFIX_RE.search(name) and nxt != "(":
                    if paren_stack and not in_function_body():
                        facts.unit_decls.append(
                            UnitDecl(tokens[j].line, "param", name))
                    elif (not paren_stack and class_depth_top()
                          and nxt in (";", "=", "{", ",")):
                        facts.unit_decls.append(
                            UnitDecl(tokens[j].line, "field", name))

        # ---- seed facts --------------------------------------------------
        if tok.kind == "ident" and (
                t == "Rng" or (RNG_NAME_RE.search(t) and t != "Rng")):
            # `Rng name(expr)`, `Rng(expr)`, or member-init `rng_(expr)`.
            j = i + 1
            if t == "Rng" and j < n and tokens[j].kind == "ident":
                j += 1
            prev_t = tokens[i - 1].text if i > 0 else ""
            if t == "Rng":
                constructs = prev_t not in (".", "->")
            else:
                # A member initialiser follows the constructor's `:` or a
                # `,`; elsewhere outside a body `*rng(` declares a function.
                constructs = not in_function_body() and prev_t in (":", ",")
            if j < n and tokens[j].text == "(" and constructs:
                expr, _ = _balanced_args(tokens, j)
                if expr.strip():
                    facts.rng_ctors.append(RngCtor(tok.line, expr))

        if tok.kind == "number" and t[:2].lower() == "0x":
            # A wide hex literal fed straight into a deriver call is an
            # ad-hoc seed-domain tag (the named ones live in the registry
            # header, behind its uniqueness static_assert).
            hex_digits = re.sub(r"[^0-9a-fA-F]", "", t[2:])
            if len(hex_digits) >= SEED_DOMAIN_MIN_HEX_DIGITS and any(
                    any(d in callee for d in SEED_DERIVERS)
                    for callee in paren_stack):
                facts.domain_literals.append(DomainLiteral(tok.line, t))

        if tok.kind == "ident" and SEED_IDENT_RE.search(t):
            nxt = tokens[i + 1].text if i + 1 < n else ""
            prv = tokens[i - 1].text if i > 0 else ""
            if nxt != "(" and (nxt in SEED_MIX_OPS or prv in SEED_MIX_OPS):
                fn = innermost_function()
                in_deriver_body = fn is not None and "seed" in fn.name.lower()
                in_deriver_args = any(
                    any(d in callee for d in SEED_DERIVERS)
                    for callee in paren_stack)
                if not in_deriver_body and not in_deriver_args:
                    facts.seed_mixes.append(SeedMix(tok.line, t))

        # ---- token lifecycle ---------------------------------------------
        if t in ("++", "+=") and in_function_body():
            # `++n.token`, `token++`, `n.token += 1`: a token-ish identifier
            # within a few tokens on either side of the mutation operator.
            lo = max(0, i - 4)
            hi = min(n, i + 5) if t == "++" else i
            near = tokens[lo:i] + (tokens[i + 1:hi] if t == "++" else [])
            if any(tk.kind == "ident" and "token" in tk.text.lower()
                   for tk in near):
                fn = innermost_function()
                if fn is not None:
                    fn.token_bumped = True

        if tok.kind == "ident" and t == "push" and i + 1 < n \
                and tokens[i + 1].text == "(":
            args, _ = _balanced_args(tokens, i + 1)
            if "kTimer" in args:
                fn = innermost_function()
                facts.timer_arms.append(TimerArm(
                    line=tok.line,
                    func_line=fn.line if fn else tok.line,
                    func_name=fn.name if fn else "",
                    guarded=bool(fn and fn.token_bumped)))

        segment.append(tok)
        i += 1

    return facts
