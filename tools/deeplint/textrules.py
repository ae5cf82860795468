"""deeplint text rules: the determinism & error-handling contract.

The simulator's headline property is byte-for-byte reproducibility: one
seed, one history. tests/determinism_test.cc enforces it dynamically;
these five line rules enforce it statically. They read only the text
views of model.strip_views (never the IR), so every backend reports the
same text findings.

    wall-clock      any wall-clock time source (system_clock /
                    steady_clock / high_resolution_clock, gettimeofday,
                    clock_gettime, time(nullptr), clock()). All time must
                    come from the simulated clock (src/sim).
    raw-random      any randomness outside src/common/rng.{h,cc}
                    (std::rand, srand, random_device, mt19937,
                    minstd_rand, drand48/lrand48/mrand48). All randomness
                    must flow through splitft::Rng so it is seed-derived.
    unordered-iter  range-for over a std::unordered_map/unordered_set
                    declared in the same file or its companion header.
                    Hash order is not part of the determinism contract and
                    silently ruins byte-for-byte exports.
    metric-name     counter()/gauge()/histogram() literals must be
                    `layer.component.metric` (>= 3 lowercase dot-separated
                    segments); span names (ObsSpan, Begin, AddAsyncSpan)
                    need >= 2. Only direct string literals are checked.
    status-discard  a bare `(void)` / `static_cast<void>` cast of a call.
                    [[nodiscard]] Status makes dropped errors loud; use
                    DiscardStatus(obs, expr, "where") or CHECK_OK(expr).
"""

import os
import re

from deeplint import model

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# The one place allowed to implement raw randomness.
_RNG_FILES = frozenset(("src/common/rng.h", "src/common/rng.cc"))

_WALL_CLOCK = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    r"|\bclock\s*\(\s*\)"
)

_RAW_RANDOM = re.compile(
    r"\bstd::rand\b"
    r"|\bsrand\s*\("
    r"|\brandom_device\b"
    r"|\bmt19937(?:_64)?\b"
    r"|\bminstd_rand0?\b"
    r"|\b(?:drand48|lrand48|mrand48)\s*\("
)

# `(void)expr(...)` or `static_cast<void>(expr(...))` where expr is a
# call. `(void)0` and `(void)variable;` are fine (nothing discardable).
_VOID_DISCARD = re.compile(
    r"\(\s*void\s*\)\s*[A-Za-z_:][A-Za-z0-9_:.\[\]>-]*\s*\("
    r"|static_cast\s*<\s*void\s*>\s*\(\s*[A-Za-z_:][A-Za-z0-9_:.\[\]>-]*\s*\("
)

_METRIC_CALL = re.compile(r"\b(counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
_SPAN_CALL = re.compile(
    r"\b(?:Begin|AddAsyncSpan)\s*\(\s*\"([^\"]*)\""
    r"|\bObsSpan\s+\w+\s*\([^()\"]*,\s*\"([^\"]*)\""
)
_METRIC_NAME_OK = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+){2,}$")
_SPAN_NAME_OK = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+)+$")

_UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s*([A-Za-z_]\w*)\s*[;={]", re.S
)
_RANGE_FOR = re.compile(r"\bfor\s*\([^;()]*?:\s*([^)]+)\)")
_TRAILING_IDENT = re.compile(r"([A-Za-z_]\w*)\s*$")


def _first_match_per_line(file_ir, pattern, rule, message):
    """One finding per code line; `{}` in message is the matched text."""
    findings = []
    for lineno, line in enumerate(file_ir.code.split("\n"), 1):
        m = pattern.search(line)
        if m:
            findings.append(model.RawFinding(
                lineno, rule, message.format(m.group(0).strip())))
    return findings


def check_wall_clock(file_ir, ctx):
    return _first_match_per_line(
        file_ir, _WALL_CLOCK, "wall-clock",
        "wall-clock source '{}'; use the simulated clock (Simulation::Now)")


def check_raw_random(file_ir, ctx):
    if model.relpath_unix(file_ir.path, _REPO_ROOT) in _RNG_FILES:
        return []
    return _first_match_per_line(
        file_ir, _RAW_RANDOM, "raw-random",
        "raw randomness '{}'; use splitft::Rng (src/common/rng.h) so draws "
        "are seed-derived")


def check_status_discard(file_ir, ctx):
    return _first_match_per_line(
        file_ir, _VOID_DISCARD, "status-discard",
        "bare void cast discards a call result; use "
        "DiscardStatus(obs, expr, \"where\") or CHECK_OK(expr)")


def _unordered_names(file_ir):
    names = set(_UNORDERED_DECL.findall(file_ir.code))
    base, ext = os.path.splitext(file_ir.path)
    if ext == ".cc" and os.path.exists(base + ".h"):
        with open(base + ".h", "r", encoding="utf-8", errors="replace") as f:
            header_code, _ = model.strip_views(f.read())
        names |= set(_UNORDERED_DECL.findall(header_code))
    return names


def check_unordered_iter(file_ir, ctx):
    unordered = _unordered_names(file_ir)
    if not unordered:
        return []
    findings = []
    for lineno, line in enumerate(file_ir.code.split("\n"), 1):
        m = _RANGE_FOR.search(line)
        if not m:
            continue
        ident = _TRAILING_IDENT.search(m.group(1).strip())
        if ident and ident.group(1) in unordered:
            findings.append(model.RawFinding(
                lineno, "unordered-iter",
                "range-for over unordered container '%s'; iteration order is "
                "not covered by the determinism contract — emit via a sorted "
                "container" % ident.group(1)))
    return findings


def check_metric_name(file_ir, ctx):
    findings = []
    for lineno, line in enumerate(file_ir.literals.split("\n"), 1):
        for m in _METRIC_CALL.finditer(line):
            if not _METRIC_NAME_OK.match(m.group(2)):
                findings.append(model.RawFinding(
                    lineno, "metric-name",
                    "metric name \"%s\" does not follow layer.component.metric "
                    "(>= 3 lowercase dot-separated segments)" % m.group(2)))
        for m in _SPAN_CALL.finditer(line):
            name = m.group(1) or m.group(2)
            if not _SPAN_NAME_OK.match(name):
                findings.append(model.RawFinding(
                    lineno, "metric-name",
                    "span name \"%s\" does not follow layer.component "
                    "(>= 2 lowercase dot-separated segments)" % name))
    return findings


TEXT_CHECKS = (
    check_wall_clock,
    check_raw_random,
    check_unordered_iter,
    check_metric_name,
    check_status_discard,
)
