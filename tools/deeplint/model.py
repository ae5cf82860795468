"""deeplint semantic model: a micro-frontend for the repo's C++ subset.

deeplint's IR rules need facts a line regex (tools/deeplint/textrules.py)
cannot produce: which *function* a call site lives in, which *local variable* a
string_view was bound to, which container a capture refers to, whether a
mutation happens after a binding in the same scope. This module lowers a
C++ source file into a small intermediate representation (IR) carrying
exactly those facts:

    FileIR
      functions: [FunctionIR]          # every function *definition*
    FunctionIR
      qual_name                        # "NclFile::PostSuffix", "Helper"
      params: {name: type_str}
      locals_: [VarDecl]               # declaration-ordered
      calls: [CallSite]                # receiver.method(...) / free calls
      lambdas: [LambdaExpr]            # with parsed capture lists
      tokens, (start, end) token span

Both backends produce this IR: the lite backend (this module) lowers a
token stream with a heuristic scope parser, and tools/deeplint/
clang_backend.py lowers a libclang AST when clang.cindex is importable.
The rules in tools/deeplint/rules.py consume only the IR and the text
views (strip_views), so they are written (and self-tested) once.

The lite parser is deliberately a *recognizer*, not a compiler: constructs
it cannot classify simply produce no IR (and therefore no findings) rather
than wrong IR. Known blind spots — preprocessor conditionals are taken as
written, template metaprogramming is opaque, overload resolution is by
name only — are acceptable for a lint whose findings are human-triaged
and whose fixture corpus (tools/deeplint_fixtures/) pins the behavior.
"""

import bisect
import os
import re

# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"  # identifier / keyword
    r"|\d[\dA-Za-z_.']*"  # numeric literal (incl. hex / separators)
    r"|::|->\*?|\.\.\.|<<=|>>=|<=>"
    r"|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|="
    r"|[{}()\[\];,<>.*&+\-/%!?:~^|]"
)

_KEYWORDS = frozenset(
    """alignas alignof asm auto bool break case catch char char8_t char16_t
    char32_t class co_await co_return co_yield concept const consteval
    constexpr constinit const_cast continue decltype default delete do
    double dynamic_cast else enum explicit export extern false float for
    friend goto if inline int long mutable namespace new noexcept nullptr
    operator private protected public register reinterpret_cast requires
    return short signed sizeof static static_assert static_cast struct
    switch template this thread_local throw true try typedef typeid
    typename union unsigned using virtual void volatile wchar_t
    while""".split()
)

_CONTROL = frozenset(("if", "for", "while", "switch", "catch", "return"))


class Token:
    __slots__ = ("text", "line", "kind")

    def __init__(self, text, line):
        self.text = text
        self.line = line
        if text[0].isalpha() or text[0] == "_":
            self.kind = "kw" if text in _KEYWORDS else "id"
        elif text[0].isdigit():
            self.kind = "num"
        else:
            self.kind = "op"

    def __repr__(self):
        return "Token(%r, line=%d)" % (self.text, self.line)


# One lexeme scan finds every comment and literal, so "//" inside a string or
# a quote inside a comment cannot desynchronize the views. A quote right
# after a digit is a C++14 digit separator (1'000), not a char literal.
_LEXEMES = re.compile(
    r"(?P<comment>//[^\n]*|/\*.*?(?:\*/|\Z))"
    r'|(?P<raw>R"(?P<delim>[^(\s"]*)\(.*?\)(?P=delim)")'
    r'|(?P<closed>"(?:\\.|[^"\\\n])*"|(?<!\d)\'(?:\\.|[^\'\\\n])*\')'
    r'|(?P<open>"(?:\\.|[^"\\\n])*|(?<!\d)\'(?:\\.|[^\'\\\n])*)',
    re.S,
)


def _blank(s):
    if "\n" not in s:
        return " " * len(s)
    return "\n".join(" " * len(part) for part in s.split("\n"))


def strip_views(text):
    """Returns (code, literals), two views of `text` that keep its line
    structure so findings carry real line numbers.

    code: comments and string/char/raw-string literal contents blanked,
    quote characters kept. Token rules read this view, so prose and log
    strings never fire.
    literals: comments blanked, literal contents kept. Rules that inspect
    literal contents (metric-name) read this view.
    """
    code = []
    literals = []
    pos = 0
    for m in _LEXEMES.finditer(text):
        start, end = m.span()
        lex = m.group(0)
        code.append(text[pos:start])
        literals.append(text[pos:start])
        pos = end
        kind = m.lastgroup
        if kind == "comment":
            code.append(_blank(lex))
            literals.append(_blank(lex))
            continue
        literals.append(lex)
        if kind == "open":  # unterminated: the literal ends at the newline
            code.append(lex[0] + _blank(lex[1:]))
        else:  # a raw string's R prefix becomes its opening quote
            code.append(lex[-1] + _blank(lex[1:-1]) + lex[-1])
    code.append(text[pos:])
    literals.append(text[pos:])
    return "".join(code), "".join(literals)


def tokenize(code_text):
    tokens = []
    line_starts = [0]
    for m in re.finditer(r"\n", code_text):
        line_starts.append(m.end())
    for m in _TOKEN_RE.finditer(code_text):
        line = bisect.bisect_right(line_starts, m.start())
        tokens.append(Token(m.group(0), line))
    return tokens


# ---------------------------------------------------------------------------
# IR node types
# ---------------------------------------------------------------------------


class VarDecl:
    """A local variable (or parameter) with its declared type."""

    __slots__ = ("name", "type_str", "line", "tok", "init_span", "scope_end")

    def __init__(self, name, type_str, line, tok, init_span=None, scope_end=None):
        self.name = name
        self.type_str = type_str  # normalized: no spaces, e.g. std::vector<std::string>
        self.line = line
        self.tok = tok  # token index of the name
        self.init_span = init_span  # (start, end) token indices or None
        self.scope_end = scope_end  # token index where the decl's scope closes

    def __repr__(self):
        return "VarDecl(%s: %s @%d)" % (self.name, self.type_str, self.line)


class CallSite:
    """`recv.method(args)` / `recv->method(args)` / `method(args)`."""

    __slots__ = ("receiver", "callee", "line", "tok", "args_span", "in_lambda")

    def __init__(self, receiver, callee, line, tok, args_span, in_lambda):
        self.receiver = receiver  # "" for free calls; nested exprs collapse
        self.callee = callee
        self.line = line
        self.tok = tok
        self.args_span = args_span  # (open_paren_idx, close_paren_idx)
        self.in_lambda = in_lambda  # enclosing LambdaExpr or None

    def __repr__(self):
        return "CallSite(%s.%s @%d)" % (self.receiver, self.callee, self.line)


class Capture:
    __slots__ = ("kind", "name")

    def __init__(self, kind, name):
        self.kind = kind  # default_ref | default_val | this | star_this |
        #                   by_ref | by_val | init_val | init_ref
        self.name = name  # captured / introduced identifier ("" for defaults)


class LambdaExpr:
    __slots__ = (
        "captures",
        "param_names",
        "body_span",
        "line",
        "tok",
        "passed_to",
        "init_exprs",
        "exact_size",  # sizeof(closure) when the clang backend computed it
    )

    def __init__(self, captures, param_names, body_span, line, tok):
        self.captures = captures
        self.param_names = param_names
        self.body_span = body_span  # (open_brace_idx, close_brace_idx)
        self.line = line
        self.tok = tok  # index of the opening '['
        self.passed_to = None  # CallSite whose argument list contains it
        self.init_exprs = {}  # init-capture name -> root identifier of expr
        self.exact_size = None


class FunctionIR:
    __slots__ = ("qual_name", "params", "locals_", "calls", "lambdas", "span", "line")

    def __init__(self, qual_name, span, line):
        self.qual_name = qual_name
        self.params = {}
        self.locals_ = []
        self.calls = []
        self.lambdas = []
        self.span = span  # (body_open_idx, body_close_idx)
        self.line = line

    def local(self, name):
        for v in self.locals_:
            if v.name == name:
                return v
        return None


class FileIR:
    """One file's text views (strip_views), its token stream and the
    functions a backend lowered. The text rules read only the views, so
    every backend gives them the same input."""

    __slots__ = ("path", "code", "literals", "tokens", "functions")

    def __init__(self, path, text):
        self.path = path
        self.code, self.literals = strip_views(text)
        self.tokens = tokenize(self.code)
        self.functions = []


class RawFinding:
    """A rule hit before suppression; the driver applies allow() on top."""

    __slots__ = ("line", "rule", "message")

    def __init__(self, line, rule, message):
        self.line = line
        self.rule = rule
        self.message = message


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _match_forward(tokens, i, open_t, close_t):
    """Index of the token closing the bracket opened at i (or len)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


def _match_back(tokens, i, open_t, close_t):
    """Index of the token opening the bracket closed at i (or 0)."""
    depth = 0
    while i >= 0:
        t = tokens[i].text
        if t == close_t:
            depth += 1
        elif t == open_t:
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return 0


def _skip_template_args_back(tokens, i):
    """Given i at a closing '>', return index before the matching '<'.
    Heuristic: balanced <> with no ';' inside."""
    depth = 0
    j = i
    while j >= 0:
        t = tokens[j].text
        if t == ">" or t == ">>":
            depth += 2 if t == ">>" else 1
        elif t == "<" or t == "<<":
            depth -= 2 if t == "<<" else 1
            if depth <= 0:
                return j - 1
        elif t in (";", "{", "}"):
            return i  # not template args after all
        j -= 1
    return i


_FN_SPECIFIERS = frozenset(
    ("const", "noexcept", "override", "final", "mutable", "volatile", "&", "&&")
)


def _function_name_before(tokens, open_brace):
    """If the '{' at open_brace opens a function body, return
    (qual_name, param_span, name_line); else None.

    Recognized shapes, scanning back from '{':
        ... name ( params ) [specifiers] [-> ret] {
        ... Class::name ( params ) : init(a), init(b) {
    """
    j = open_brace - 1
    # Trailing return type: `) -> Type {` — skip back over the type.
    #   (types are short in this repo; bail at brackets/semicolons)
    k = j
    while k >= 0 and tokens[k].text not in (")", ";", "{", "}", ":"):
        k -= 1
    if k >= 0 and tokens[k].text == ")" and any(
        tokens[x].text == "->" for x in range(k + 1, j + 1)
    ):
        j = k
    # Constructor init list: `) : member_(x), other_(y) {`. Scan back over
    # balanced () groups separated by idents/commas until a ':' preceded by
    # ')' (but not '::').
    probe = j
    while probe > 0:
        t = tokens[probe].text
        if t == ")":
            probe = _match_back(tokens, probe, "(", ")") - 1
        elif t == "}":  # brace-init in the init list
            probe = _match_back(tokens, probe, "{", "}") - 1
        elif t == ":" and tokens[probe - 1].text == ")" and (
            probe + 1 >= len(tokens) or tokens[probe + 1].text != ":"
        ) and tokens[probe - 1 if probe else 0].text != ":":
            j = probe - 1
            break
        elif t in (",", ">") or tokens[probe].kind in ("id", "num") or t in ("{",):
            probe -= 1
        elif t == "::":
            probe -= 1
        else:
            break
    # Skip trailing specifiers.
    while j >= 0 and tokens[j].text in _FN_SPECIFIERS:
        j -= 1
    if j >= 1 and tokens[j].text == ")" and tokens[j - 1].text == "(":
        # could be `noexcept(...)` / `catch (...)`; the () here is the
        # specifier's — retry once more behind it.
        pass
    if j < 0 or tokens[j].text != ")":
        return None
    close_paren = j
    open_paren = _match_back(tokens, close_paren, "(", ")")
    i = open_paren - 1
    if i < 0:
        return None
    # `operator()` / `operator<` etc.
    if tokens[i].kind == "op" or tokens[i].text == "operator":
        # walk back over operator symbol to `operator`
        k = i
        while k >= 0 and tokens[k].text != "operator" and i - k <= 2:
            k -= 1
        if k >= 0 and tokens[k].text == "operator":
            name = "operator" + "".join(t.text for t in tokens[k + 1 : open_paren])
            qual = _qualify_back(tokens, k - 1, name)
            return (qual, (open_paren, close_paren), tokens[k].line)
        return None
    if tokens[i].kind != "id":
        return None
    if tokens[i].text in _CONTROL or tokens[i].text in ("while", "sizeof"):
        return None
    name = tokens[i].text
    qual = _qualify_back(tokens, i - 1, name)
    # Reject obvious non-definitions: a call used as a condition would be
    # inside a control statement and got filtered; an initializer like
    # `Foo x{...}` has '=' or a type right before — approximate by
    # requiring the token before the (possibly qualified) name to not be
    # one of . -> & * = ( ,
    first = i
    while first >= 2 and tokens[first - 1].text == "::":
        first -= 2
        if tokens[first].text == ">":
            first = _skip_template_args_back(tokens, first) + 1
    prev = tokens[first - 1].text if first >= 1 else ""
    if prev in (".", "->", "=", "(", ",", "return", "&", "*", "!"):
        return None
    return (qual, (open_paren, close_paren), tokens[i].line)


def _qualify_back(tokens, i, name):
    """Collects `Outer::Inner::` qualifiers ending at token i."""
    parts = [name]
    while i >= 1 and tokens[i].text == "::":
        j = i - 1
        if j >= 0 and tokens[j].text == ">":
            j = _skip_template_args_back(tokens, j)
        if j >= 0 and tokens[j].kind == "id":
            parts.insert(0, tokens[j].text)
            i = j - 1
        else:
            break
    return "::".join(parts)


_TYPE_HEAD = frozenset(
    (
        "const",
        "constexpr",
        "static",
        "unsigned",
        "signed",
        "long",
        "short",
        "auto",
        "bool",
        "char",
        "int",
        "float",
        "double",
        "void",
        "typename",
        "inline",
        "mutable",
        "struct",
        "class",
        "volatile",
        "thread_local",
    )
)


def _parse_type_forward(tokens, i, end):
    """Tries to read a type starting at token i. Returns (type_str, next_i)
    or (None, i). Accepts `const std::vector<std::string>&`-style shapes."""
    parts = []
    j = i
    saw_core = False
    while j < end:
        t = tokens[j]
        if t.text in _TYPE_HEAD:
            parts.append(t.text)
            if t.text not in ("const", "constexpr", "static", "typename", "inline",
                              "struct", "class", "volatile", "thread_local",
                              "mutable"):
                saw_core = True
            j += 1
            continue
        if t.kind == "id":
            if saw_core:
                break  # a complete type is behind us: this id is the name
            core = [t.text]
            j += 1
            while j < end and tokens[j].text == "::":
                j += 1
                if j < end and tokens[j].kind == "id":
                    core.append(tokens[j].text)
                    j += 1
                else:
                    return (None, i)
            if j < end and tokens[j].text == "<":
                depth = 0
                tpl = []
                while j < end:
                    tt = tokens[j].text
                    if tt == "<":
                        depth += 1
                    elif tt == ">":
                        depth -= 1
                    elif tt == ">>":
                        depth -= 2
                    elif tt in (";", "{"):
                        return (None, i)
                    tpl.append(tt)
                    j += 1
                    if depth <= 0:
                        break
                if depth > 0:
                    return (None, i)
                core[-1] += "".join(tpl)
            parts.append("::".join(core))
            saw_core = True
            break
        break
    if not saw_core:
        return (None, i)
    while j < end and tokens[j].text in ("*", "&", "&&", "const"):
        parts.append(tokens[j].text)
        j += 1
    return ("".join(p if p in ("*", "&", "&&") else p + " " for p in parts).strip(), j)


def _normalize_type(type_str):
    return type_str.replace(" ", "")


# ---------------------------------------------------------------------------
# File lowering
# ---------------------------------------------------------------------------

_STMT_STARTERS = frozenset((";", "{", "}", ",", "(", ":"))


def lower_file(path, text):
    """Lowers one file to a FileIR (lite backend)."""
    ir = FileIR(path, text)
    tokens = ir.tokens

    # Pass 1: find function bodies. We walk the token stream tracking brace
    # context; '{' that _function_name_before recognizes opens a FunctionIR
    # spanning to its matching '}'. Nested function-looking braces inside a
    # body (lambdas) are handled by the per-function lowering.
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].text == "{":
            fn = _function_name_before(tokens, i)
            if fn is not None:
                qual, param_span, line = fn
                close = _match_forward(tokens, i, "{", "}")
                fn_ir = FunctionIR(qual, (i, close), line)
                _parse_params(tokens, param_span, fn_ir)
                _lower_body(tokens, fn_ir)
                ir.functions.append(fn_ir)
                i = close + 1
                continue
        i += 1
    return ir


def _parse_params(tokens, span, ir):
    open_p, close_p = span
    j = open_p + 1
    depth = 0
    start = j
    segs = []
    while j < close_p:
        t = tokens[j].text
        if t in ("(", "<", "[", "{"):
            depth += 1
        elif t in (")", ">", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            segs.append((start, j))
            start = j + 1
        j += 1
    if close_p > start:
        segs.append((start, close_p))
    for s, e in segs:
        if e - s < 2:
            continue
        # name = last identifier not followed by :: and not a default value
        k = e - 1
        while k > s and (tokens[k].text == "=" or tokens[k - 1].text == "="):
            k -= 1  # skip `= default_value`
        eq = None
        for x in range(s, e):
            if tokens[x].text == "=":
                eq = x
                break
        k = (eq - 1) if eq is not None else (e - 1)
        if k >= s and tokens[k].kind == "id":
            tp, _ = _parse_type_forward(tokens, s, k)
            ir.params[tokens[k].text] = _normalize_type(tp or "")


def _lower_body(tokens, ir):
    """Extracts locals, calls, and lambdas from a function body."""
    open_b, close_b = ir.span
    scope_stack = []  # open-brace indices

    # lambda spans to attribute calls to their enclosing lambda
    lambda_spans = []

    i = open_b + 1
    while i < close_b:
        t = tokens[i]
        txt = t.text
        if txt == "[" and _is_lambda_intro(tokens, i):
            lam = _parse_lambda(tokens, i, close_b)
            if lam is not None:
                ir.lambdas.append(lam)
                lambda_spans.append(lam)
                # continue scanning inside the lambda body for calls/locals:
                i += 1
                continue
        if txt == "{":
            scope_stack.append(i)
        elif txt == "}":
            if scope_stack:
                opened = scope_stack.pop()
                for v in ir.locals_:
                    if v.scope_end is None and v.tok > opened:
                        v.scope_end = i
        elif t.kind == "id":
            nxt = tokens[i + 1].text if i + 1 < close_b else ""
            if nxt == "(" and txt not in _CONTROL and tokens[i].kind == "id":
                recv, recv_start = _receiver_before(tokens, i)
                close_paren = _match_forward(tokens, i + 1, "(", ")")
                in_lam = None
                for lam in lambda_spans:
                    if lam.body_span[0] < i < lam.body_span[1]:
                        in_lam = lam
                ir.calls.append(
                    CallSite(recv, txt, t.line, i, (i + 1, close_paren), in_lam)
                )
                # A call is also where a declaration could start (ctor call
                # syntax `Type name(args)`) — handled by decl scan below.
            # Local declaration scan: at statement starts only.
            prev = tokens[i - 1].text if i > 0 else ";"
            if prev in _STMT_STARTERS or prev in ("else", "do"):
                _try_decl(tokens, i, close_b, ir)
        elif t.kind == "kw" and txt in _TYPE_HEAD:
            # Declarations headed by a builtin/cv keyword (`int x`,
            # `const std::string& s`, `unsigned n`).
            prev = tokens[i - 1].text if i > 0 else ";"
            if prev in _STMT_STARTERS or prev in ("else", "do"):
                _try_decl(tokens, i, close_b, ir)
        i += 1
    for v in ir.locals_:
        if v.scope_end is None:
            v.scope_end = close_b


def _receiver_before(tokens, name_idx):
    """Returns (receiver_string, start_idx) for `x.y->name(`-style chains.
    Distant/nested receivers collapse to their root identifier chain."""
    i = name_idx - 1
    if i < 0 or tokens[i].text not in (".", "->"):
        return ("", name_idx)
    j = i - 1
    parts = []
    while j >= 0:
        t = tokens[j]
        if t.text == ")":
            # receiver is a call result: collapse to `f()`
            open_p = _match_back(tokens, j, "(", ")")
            j = open_p - 1
            parts.insert(0, "()")
            continue
        if t.text == "]":
            open_b = _match_back(tokens, j, "[", "]")
            j = open_b - 1
            parts.insert(0, "[]")
            continue
        if t.kind == "id" or t.text in ("this",):
            parts.insert(0, t.text)
            j -= 1
            if j >= 0 and tokens[j].text in (".", "->", "::"):
                parts.insert(0, tokens[j].text)
                j -= 1
                continue
            break
        break
    return ("".join(parts), j + 1)


def _is_lambda_intro(tokens, i):
    prev = tokens[i - 1].text if i > 0 else "("
    if prev in ("(", ",", "{", "=", "return", ";", "&&", "||", "?", ":"):
        return True
    return False


def _parse_lambda(tokens, i, limit):
    close_cap = _match_forward(tokens, i, "[", "]")
    if close_cap >= limit:
        return None
    captures, init_exprs = _parse_captures(tokens, i + 1, close_cap)
    j = close_cap + 1
    param_names = []
    if j < limit and tokens[j].text == "(":
        close_p = _match_forward(tokens, j, "(", ")")
        fake = FunctionIR("", (0, 0), 0)
        _parse_params(tokens, (j, close_p), fake)
        param_names = list(fake.params)
        j = close_p + 1
    # specifiers / trailing return
    while j < limit and tokens[j].text != "{":
        if tokens[j].text in (";", ")", ",", "]"):
            return None  # not a lambda after all (e.g. attribute, index)
        j += 1
    if j >= limit:
        return None
    close_body = _match_forward(tokens, j, "{", "}")
    lam = LambdaExpr(captures, param_names, (j, close_body), tokens[i].line, i)
    lam.init_exprs = init_exprs
    return lam


def _parse_captures(tokens, start, end):
    captures = []
    init_exprs = {}
    seg_start = start
    depth = 0
    segs = []
    for j in range(start, end):
        t = tokens[j].text
        if t in ("(", "{", "["):
            depth += 1
        elif t in (")", "}", "]"):
            depth -= 1
        elif t == "," and depth == 0:
            segs.append((seg_start, j))
            seg_start = j + 1
    if end > seg_start:
        segs.append((seg_start, end))
    for s, e in segs:
        toks = tokens[s:e]
        if not toks:
            continue
        texts = [t.text for t in toks]
        if texts == ["&"]:
            captures.append(Capture("default_ref", ""))
        elif texts == ["="]:
            captures.append(Capture("default_val", ""))
        elif texts == ["this"]:
            captures.append(Capture("this", ""))
        elif texts == ["*", "this"]:
            captures.append(Capture("star_this", ""))
        elif "=" in texts:
            eq = texts.index("=")
            by_ref = texts[0] == "&"
            name_idx = 1 if by_ref else 0
            if name_idx < eq and toks[name_idx].kind == "id":
                name = toks[name_idx].text
                captures.append(Capture("init_ref" if by_ref else "init_val", name))
                root = ""
                for k in range(eq + 1, len(toks)):
                    if toks[k].kind == "id" and toks[k].text not in (
                        "std",
                        "move",
                        "forward",
                    ):
                        root = toks[k].text
                        break
                init_exprs[name] = root
        elif texts[0] == "&" and len(toks) >= 2 and toks[1].kind == "id":
            captures.append(Capture("by_ref", toks[1].text))
        elif toks[0].kind == "id":
            captures.append(Capture("by_val", toks[0].text))
    return captures, init_exprs


def _try_decl(tokens, i, end, ir):
    """Tries to read `type name [= init | (init) | {init}] [, ...] ;`
    starting at token i; records VarDecls."""
    tp, j = _parse_type_forward(tokens, i, end)
    if tp is None or j >= end:
        return
    if tokens[j].kind != "id" or tokens[j].text in _KEYWORDS:
        return
    base = _normalize_type(tp)
    if base in ("return", "else"):
        return
    while j < end:
        if tokens[j].kind != "id":
            break
        name_tok = j
        name = tokens[j].text
        j += 1
        init_span = None
        if j < end and tokens[j].text in ("=", "(", "{"):
            if tokens[j].text == "=":
                k = j + 1
                depth = 0
                while k < end:
                    tt = tokens[k].text
                    if tt in ("(", "{", "["):
                        depth += 1
                    elif tt in (")", "}", "]"):
                        depth -= 1
                    elif tt in (";", ",") and depth == 0:
                        break
                    k += 1
                init_span = (j + 1, k)
                j = k
            else:
                open_t = tokens[j].text
                close_t = ")" if open_t == "(" else "}"
                k = _match_forward(tokens, j, open_t, close_t)
                init_span = (j + 1, k)
                j = k + 1
        ir.locals_.append(
            VarDecl(name, base, tokens[name_tok].line, name_tok, init_span)
        )
        if j < end and tokens[j].text == ",":
            j += 1
            continue
        break


# ---------------------------------------------------------------------------
# Cross-file index: functions returning std::string (for the view-lifetime
# binds-to-temporary check). Built once per run over every repo header and
# source in scope; cheap (one regex pass per file).
# ---------------------------------------------------------------------------

_STRING_RETURNER = re.compile(
    r"(?:^|\n)\s*(?:static\s+|inline\s+|constexpr\s+|virtual\s+)*"
    r"std::string\s+([A-Za-z_]\w*)\s*\("
)


def index_string_returners(paths):
    names = set()
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        code, _ = strip_views(text)
        for m in _STRING_RETURNER.finditer(code):
            name = m.group(1)
            # The regex also matches variable declarations with ctor args
            # (`std::string data(len, 'x');`), so names that collide with
            # universal container members would poison the index: `.data()`
            # on a local std::string returns a pointer tied to the
            # container, not a temporary. Keep those out.
            if name in ("if", "while", "for", "return", "switch"):
                continue
            if name in ("data", "at", "back", "front", "size", "str"):
                continue
            names.add(name)
    return frozenset(names)


def relpath_unix(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")
