"""deeplint rules: four repo contracts enforced over the model IR, plus
the five determinism text rules of tools/deeplint/textrules.py.

Each rule is a function (FileIR, RuleContext) -> [RawFinding]. Raw
findings are pre-suppression; the driver applies the shared
`// deeplint: allow(rule) why` idiom and the stale-allow pass on top.

    view-lifetime     string_view/span bound to a temporary or to an
                      element/data() of a container that is mutated while
                      the view is live (the PR 9 PostSuffix bug class).
    dangling-capture  by-reference capture of locals/parameters in a
                      callable handed to Schedule/ScheduleAt/
                      ScheduleCancelableAt — the frame dies before the
                      event fires. Functions that drain the simulator
                      in-frame (RunUntilIdle & friends) are exempt: the
                      locals provably outlive the deferred run.
    inline-budget     scheduled callables whose estimated capture
                      footprint exceeds the event arena's inline slab
                      (sim_internal::kEventInlineBytes, 192 B) — the
                      callable heap-spills on the hot path. The static
                      estimate is deliberately conservative (unknown
                      class types count pointer-size); the authoritative
                      gate is sim::assert_inline<F>() at the call site.
    epoch-fence       SetApMap / WriteApMap called outside the
                      allowlisted bump-then-write helpers. The controller
                      fences same-epoch membership rewrites at runtime
                      (DESIGN.md §13); this rule fences them at commit
                      time.
"""

import re

from deeplint import textrules
from deeplint.model import RawFinding

RULES = (
    "view-lifetime",
    "dangling-capture",
    "inline-budget",
    "epoch-fence",
    "wall-clock",
    "raw-random",
    "unordered-iter",
    "metric-name",
    "status-discard",
    "stale-allow",
)

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The event arena's inline-callable capacity. The driver re-reads the
# authoritative constant from src/sim/event_queue.h at startup so the lint
# cannot drift from the arena; this is only the fallback.
DEFAULT_INLINE_BUDGET = 192

# Deferred-execution sinks: a callable passed here outlives the caller's
# frame (fires from the event loop later).
DEFER_SINKS = frozenset(("Schedule", "ScheduleAt", "ScheduleCancelableAt"))

# Calls that drain the simulator before the enclosing frame returns: a
# by-ref capture scheduled and then drained in-frame is safe (tests and
# benches do this pervasively, and it is correct).
DRAIN_CALLS = frozenset(
    (
        "RunOne",
        "RunUntil",
        "RunUntilIdle",
        "RunUntilPredicate",
        "Drain",
        "WaitFor",
        "Quiesce",
    )
)

# Epoch-fence allowlist: the only functions that may touch the ap-map
# write path directly. Everything else must go through these helpers,
# which pair the write with a BumpAppEpoch (or are the fence itself).
EPOCH_FENCE_ALLOWED = {
    "SetApMap": frozenset(
        (
            "NclFile::WriteApMap",  # the single bump-then-write wrapper
            "Controller::SetApMap",  # the fence implementation itself
        )
    ),
    "WriteApMap": frozenset(
        (
            "NclClient::Create",  # fresh file: epoch 0 ap-map publish
            "NclClient::Recover",  # recovery: bump precedes (§4.5.1)
            # successor join (crash repair and planned migration):
            # bump-then-write
            "NclFile::JoinSuccessor",
            "NclFile::WriteApMap",  # the wrapper's own definition
        )
    ),
}

# Containers whose growth reallocates and therefore invalidates views of
# elements / data(). (std::array is fixed; std::deque never moves existing
# elements on push_back — excluded on purpose.)
_REALLOC_CONTAINER = re.compile(r"(?:^|[:<])(?:vector<|string$|string<)")
_VIEW_TYPE = re.compile(r"(?:^|:)(?:string_view|wstring_view|span<)")

# Mutators that may reallocate a vector/string's storage.
GROW_MUTATORS = frozenset(
    ("push_back", "emplace_back", "resize", "insert", "append", "assign")
)
# Mutators that invalidate views without necessarily growing.
ALL_MUTATORS = GROW_MUTATORS | frozenset(("clear", "erase", "pop_back",
                                          "reserve", "shrink_to_fit"))

# Element-access spellings that yield a pointer/reference/view into the
# container's storage.
ELEMENT_ACCESS = frozenset(("back", "front", "data", "at"))

# Known type sizes for the inline-budget estimate (x86-64 libstdc++).
_SIZE_TABLE = (
    (re.compile(r"^(?:std::)?(?:string)$"), 32),
    (re.compile(r"^(?:std::)?(?:vector|deque)<"), 24),
    (re.compile(r"^(?:std::)?function<"), 32),
    (re.compile(r"^(?:std::)?shared_ptr<"), 16),
    (re.compile(r"^(?:std::)?(?:unique_ptr)<"), 8),
    (re.compile(r"^(?:std::)?(?:string_view|span<)"), 16),
    (re.compile(r"^(?:std::)?optional<"), 16),
    (re.compile(r"(?:\*|&|&&)$"), 8),
    (re.compile(r"^(?:const)?(?:unsigned|signed)?(?:long|int64_t|uint64_t|"
                r"size_t|ptrdiff_t|double|SimTime|NodeId|RKey)"), 8),
    (re.compile(r"^(?:const)?(?:int|unsigned|uint32_t|int32_t|float)$"), 4),
    (re.compile(r"^(?:const)?(?:bool|char|uint8_t|int8_t)$"), 1),
    (re.compile(r"^(?:const)?(?:uint16_t|int16_t)$"), 2),
)

_ARRAY_TYPE = re.compile(r"^(?:std::)?array<(.+),(\d+)>$")
_ELEM_SIZES = {
    "char": 1, "signedchar": 1, "unsignedchar": 1, "uint8_t": 1, "int8_t": 1,
    "bool": 1, "uint16_t": 2, "int16_t": 2, "int": 4, "uint32_t": 4,
    "int32_t": 4, "float": 4, "uint64_t": 8, "int64_t": 8, "double": 8,
    "size_t": 8, "SimTime": 8,
}


def sizeof_type(type_str):
    """Conservative size estimate; unknown class types count pointer-size
    (8) so the rule under- rather than over-reports."""
    t = type_str.replace("const", "")
    m = _ARRAY_TYPE.match(t)
    if m:
        elem = m.group(1)
        return _ELEM_SIZES.get(elem, 8) * int(m.group(2))
    for pat, size in _SIZE_TABLE:
        if pat.search(t):
            return size
    return 8


class RuleContext:
    def __init__(self, string_returners=frozenset(), inline_budget=None,
                 extra_allowed=None):
        self.string_returners = string_returners
        self.inline_budget = inline_budget or DEFAULT_INLINE_BUDGET
        self.epoch_fence_allowed = dict(EPOCH_FENCE_ALLOWED)
        if extra_allowed:
            for callee, funcs in extra_allowed.items():
                self.epoch_fence_allowed[callee] = (
                    self.epoch_fence_allowed.get(callee, frozenset()) | funcs
                )


# ---------------------------------------------------------------------------
# view-lifetime
# ---------------------------------------------------------------------------


def _tokens_text(tokens, span):
    return [t.text for t in tokens[span[0] : span[1]]]


def check_view_lifetime(file_ir, ctx):
    findings = []
    for fn in file_ir.functions:
        findings.extend(_view_lifetime_fn(file_ir, fn, ctx))
    return findings


def _view_lifetime_fn(file_ir, fn, ctx):
    findings = []
    tokens = file_ir.tokens
    realloc_locals = {
        v.name: v for v in fn.locals_ if _REALLOC_CONTAINER.search(v.type_str)
    }

    # --- (a) view bound to a temporary -----------------------------------
    # A view local whose initializer calls a function known to return
    # std::string by value: the string dies at the end of the full
    # expression and the view dangles immediately.
    view_locals = [v for v in fn.locals_ if _VIEW_TYPE.search(v.type_str)]
    for v in view_locals:
        if v.init_span is None:
            continue
        init = tokens[v.init_span[0] : v.init_span[1]]
        for k, t in enumerate(init):
            nxt = init[k + 1].text if k + 1 < len(init) else ""
            if t.kind != "id" or nxt != "(":
                continue
            prev = init[k - 1].text if k > 0 else ""
            if t.text in ctx.string_returners and prev in (".", "->", "", "(", "=",
                                                           ","):
                findings.append(RawFinding(
                    v.line, "view-lifetime",
                    "%s '%s' is bound to the temporary std::string returned "
                    "by %s(); the temporary dies at the end of this "
                    "statement and the view dangles" % (
                        v.type_str, v.name, t.text)))
                break

    # --- (b) view of a local container, container mutated while live -----
    bindings = []  # (view VarDecl, container VarDecl)
    for v in view_locals:
        if v.init_span is None:
            continue
        init = tokens[v.init_span[0] : v.init_span[1]]
        for k, t in enumerate(init):
            if t.kind == "id" and t.text in realloc_locals:
                nxt = init[k + 1].text if k + 1 < len(init) else ""
                prev = init[k - 1].text if k > 0 else ""
                if prev in (".", "->"):
                    continue  # member of something else
                if nxt in (".", "[", ")", "", ",", ";") or nxt == "":
                    bindings.append((v, realloc_locals[t.text]))
                    break
    for view, cont in bindings:
        # Mutation of `cont` after the binding, inside the view's scope,
        # with a use of the view after the mutation.
        for call in fn.calls:
            if call.receiver != cont.name or call.callee not in ALL_MUTATORS:
                continue
            if call.tok <= view.tok or call.tok >= (view.scope_end or fn.span[1]):
                continue
            used_after = any(
                t.kind == "id" and t.text == view.name
                for t in tokens[call.tok : view.scope_end or fn.span[1]]
            )
            if used_after:
                findings.append(RawFinding(
                    call.line, "view-lifetime",
                    "'%s.%s()' may reallocate while view '%s' (bound to it "
                    "at line %d) is still live and used afterwards" % (
                        cont.name, call.callee, view.name, view.line)))
                break

    # --- (c) loop-carried element retention (the PostSuffix shape) -------
    # Inside one loop body: the container grows AND an element reference
    # (back()/data()/front()/[i]) escapes into another statement — e.g.
    # pushed into a second container as a string_view. Iteration i+1's
    # growth invalidates iteration i's escaped reference. A reserve() in
    # the same function is the sanctioned fix and silences the pattern.
    reserved = {
        c.receiver for c in fn.calls if c.callee == "reserve"
    }
    for loop_span in _loop_bodies(tokens, fn):
        lo, hi = loop_span
        grown = {}
        for call in fn.calls:
            if lo < call.tok < hi and call.callee in GROW_MUTATORS and \
                    call.receiver in realloc_locals and \
                    call.receiver not in reserved:
                grown.setdefault(call.receiver, call)
        if not grown:
            continue
        for call in fn.calls:
            if not (lo < call.tok < hi):
                continue
            if call.receiver in grown and call.callee in ELEMENT_ACCESS:
                mut = grown[call.receiver]
                if call.tok == mut.tok:
                    continue
                # same statement as the growth call? (e.g. the argument of
                # push_back itself) — find statement bounds via ';'
                if _same_statement(tokens, call.tok, mut.tok):
                    continue
                if not _escapes(tokens, fn, call):
                    continue
                findings.append(RawFinding(
                    call.line, "view-lifetime",
                    "reference into '%s' (via .%s()) escapes inside a loop "
                    "that also grows '%s' (line %d); a later iteration's "
                    "reallocation invalidates it — reserve() up front or "
                    "copy the bytes" % (call.receiver, call.callee,
                                        call.receiver, mut.line)))
    # Deduplicate per line+rule.
    seen = set()
    out = []
    for f in findings:
        key = (f.line, f.message)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def _loop_bodies(tokens, fn):
    spans = []
    lo, hi = fn.span
    i = lo
    while i < hi:
        if tokens[i].kind == "kw" and tokens[i].text in ("for", "while"):
            j = i + 1
            if j < hi and tokens[j].text == "(":
                close_p = _match_fwd(tokens, j, "(", ")")
                k = close_p + 1
                if k < hi and tokens[k].text == "{":
                    close_b = _match_fwd(tokens, k, "{", "}")
                    spans.append((k, close_b))
                    i = k + 1
                    continue
        i += 1
    return spans


def _match_fwd(tokens, i, open_t, close_t):
    depth = 0
    n = len(tokens)
    while i < n:
        if tokens[i].text == open_t:
            depth += 1
        elif tokens[i].text == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


def _same_statement(tokens, a, b):
    lo, hi = min(a, b), max(a, b)
    depth = 0
    for i in range(lo, hi):
        t = tokens[i].text
        if t in ("(", "{", "["):
            depth += 1
        elif t in (")", "}", "]"):
            depth -= 1
        elif t == ";" and depth <= 0:
            return False
    return True


def _escapes(tokens, fn, access_call):
    """Does the element access feed something that outlives the statement?
    Recognized escapes: a string_view/span construction in the same
    statement, storage via push_back/emplace_back on another container, or
    address-of on the access."""
    # statement bounds
    start = access_call.tok
    while start > fn.span[0] and tokens[start - 1].text not in (";", "{", "}"):
        start -= 1
    end = access_call.tok
    limit = fn.span[1]
    depth = 0
    while end < limit:
        t = tokens[end].text
        if t in ("(", "{", "["):
            depth += 1
        elif t in (")", "}", "]"):
            depth -= 1
        elif t == ";" and depth <= 0:
            break
        end += 1
    stmt = tokens[start:end]
    texts = [t.text for t in stmt]
    if "string_view" in texts or "span" in texts:
        return True
    for k, t in enumerate(texts):
        if t in ("push_back", "emplace_back") and k >= 2:
            recv = texts[k - 2]
            if recv != access_call.receiver:
                return True
    for k, t in enumerate(texts):
        if t == "&" and k + 1 < len(texts) and texts[k + 1] == \
                access_call.receiver:
            # address-of the container element: &cont.back()
            if k == 0 or texts[k - 1] in ("(", ",", "=", "return"):
                return True
    return False


# ---------------------------------------------------------------------------
# dangling-capture
# ---------------------------------------------------------------------------


def check_dangling_capture(file_ir, ctx):
    findings = []
    for fn in file_ir.functions:
        drains_in_frame = any(c.callee in DRAIN_CALLS for c in fn.calls)
        if drains_in_frame:
            # The frame provably outlives the deferred run: the simulator
            # is drained before the function returns.
            continue
        frame_names = set(fn.params) | {v.name for v in fn.locals_}
        for lam in fn.lambdas:
            sink = _defer_sink_for(fn, lam)
            if sink is None:
                continue
            bad = _ref_captured_frame_names(file_ir, fn, lam, frame_names)
            if bad:
                findings.append(RawFinding(
                    lam.line, "dangling-capture",
                    "lambda passed to %s() captures %s by reference; the "
                    "enclosing frame of %s() is gone when the event fires — "
                    "capture by value (or move)" % (
                        sink.callee,
                        ", ".join("'%s'" % b for b in sorted(bad)),
                        fn.qual_name)))
    return findings


def _defer_sink_for(fn, lam):
    for call in fn.calls:
        if call.callee in DEFER_SINKS and \
                call.args_span[0] < lam.tok < call.args_span[1]:
            return call
    return None


def _ref_captured_frame_names(file_ir, fn, lam, frame_names):
    tokens = file_ir.tokens
    bad = set()
    has_default_ref = any(c.kind == "default_ref" for c in lam.captures)
    for c in lam.captures:
        if c.kind == "by_ref" and c.name in frame_names:
            bad.add(c.name)
        elif c.kind == "init_ref":
            root = lam.init_exprs.get(c.name, "")
            if root in frame_names:
                bad.add(c.name)
    if has_default_ref:
        # [&]: every frame name the body mentions is captured by ref.
        body_names = set()
        declared_inside = set(lam.param_names)
        i = lam.body_span[0] + 1
        while i < lam.body_span[1]:
            t = tokens[i]
            if t.kind == "id":
                body_names.add(t.text)
            i += 1
        bad |= (body_names & frame_names) - declared_inside
    return bad


# ---------------------------------------------------------------------------
# inline-budget
# ---------------------------------------------------------------------------


def check_inline_budget(file_ir, ctx):
    findings = []
    for fn in file_ir.functions:
        types = dict(fn.params)
        for v in fn.locals_:
            types.setdefault(v.name, v.type_str)
        for lam in fn.lambdas:
            sink = _defer_sink_for(fn, lam)
            if sink is None:
                continue
            total, breakdown = _estimate_captures(lam, types)
            if total > ctx.inline_budget:
                findings.append(RawFinding(
                    lam.line, "inline-budget",
                    "scheduled callable captures an estimated %d B (%s) > "
                    "%d B arena slab; it heap-spills on the hot path — trim "
                    "the captures or schedule a pointer to preallocated "
                    "state" % (total, breakdown, ctx.inline_budget)))
    return findings


def _estimate_captures(lam, types):
    if getattr(lam, "exact_size", None):
        return lam.exact_size, "sizeof(closure), clang-exact"
    total = 0
    parts = []
    for c in lam.captures:
        if c.kind in ("this", "default_ref", "default_val"):
            total += 8
            parts.append("%s=8" % (c.kind if not c.name else c.name))
        elif c.kind in ("by_ref", "init_ref"):
            total += 8
            parts.append("&%s=8" % c.name)
        elif c.kind == "by_val":
            size = sizeof_type(types.get(c.name, ""))
            total += size
            parts.append("%s=%d" % (c.name, size))
        elif c.kind == "init_val":
            root = lam.init_exprs.get(c.name, "")
            t = types.get(root, "")
            if t.endswith("*"):
                t = t[:-1]  # `w = std::move(*wr)` captures the pointee
            size = sizeof_type(t)
            total += size
            parts.append("%s=%d" % (c.name, size))
        elif c.kind == "star_this":
            total += 64  # unknown object copied wholesale; assume a line
            parts.append("*this=64")
    return total, ", ".join(parts) if parts else "no captures"


# ---------------------------------------------------------------------------
# epoch-fence
# ---------------------------------------------------------------------------


def check_epoch_fence(file_ir, ctx):
    findings = []
    for fn in file_ir.functions:
        for call in fn.calls:
            allowed = ctx.epoch_fence_allowed.get(call.callee)
            if allowed is None:
                continue
            if fn.qual_name in allowed:
                continue
            findings.append(RawFinding(
                call.line, "epoch-fence",
                "%s() called from %s, which is not an allowlisted "
                "bump-then-write helper (%s); route the ap-map write "
                "through one of them so the epoch fence holds" % (
                    call.callee, fn.qual_name, ", ".join(sorted(allowed)))))
    return findings


ALL_CHECKS = (
    check_view_lifetime,
    check_dangling_capture,
    check_inline_budget,
    check_epoch_fence,
) + textrules.TEXT_CHECKS


def run_rules(file_ir, ctx):
    findings = []
    for check in ALL_CHECKS:
        findings.extend(check(file_ir, ctx))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings
