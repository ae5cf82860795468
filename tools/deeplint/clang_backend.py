"""libclang backend: lowers real Clang ASTs to the deeplint IR.

Only imported when clang.cindex is importable AND a libclang shared
object can be dlopen'd; otherwise the driver stays on the lite backend.
The lowering intentionally produces the *same IR shapes* as
tools/deeplint/model.py, so the rule engine (tools/deeplint/rules.py)
never needs to know which backend parsed the file. What the clang
backend adds over lite:

  * exact types for locals/params (typedefs and `auto` resolved), which
    sharpens view-lifetime container classification;
  * exact `sizeof` for scheduled lambdas via Type.get_size(), replacing
    the lite backend's capture-size table for the inline-budget rule;
  * macro-expanded token positions, so contracts hold through macros.

Cost: parsing every TU through libclang takes ~30-60 s for this repo
(measured on the CI runner class; see .github/workflows/ci.yml). The
lite backend runs the same rule set in ~2 s, which is why local
pre-commit runs default to whatever is available rather than requiring
clang.
"""

import os

import clang.cindex as ci

from deeplint import model


def load(compile_commands):
    """Returns (Index, CompilationDatabase-or-None). Raises on any
    missing-library condition; the driver catches and falls back."""
    if not ci.Config.loaded:
        # Try the common distro sonames before giving up; Config.set_* is
        # a no-op if the default resolution already works.
        try:
            ci.Config().get_cindex_library()
        except Exception:
            for name in ("libclang.so", "libclang-14.so.1", "libclang.so.1",
                         "libclang-15.so.1", "libclang-16.so.1"):
                try:
                    ci.Config.set_library_file(name)
                    ci.Config().get_cindex_library()
                    break
                except Exception:
                    ci.Config.loaded = False
                    continue
    index = ci.Index.create()
    db = None
    if compile_commands:
        db = ci.CompilationDatabase.fromDirectory(
            os.path.dirname(os.path.abspath(compile_commands)))
    return index, db


def _args_for(db, path):
    args = []
    if db is not None:
        cmds = db.getCompileCommands(path)
        if cmds:
            raw = list(cmds[0].arguments)[1:]  # drop the compiler argv[0]
            skip_next = False
            for a in raw:
                if skip_next:
                    skip_next = False
                    continue
                if a in ("-c", "-o"):
                    skip_next = a == "-o"
                    continue
                if a == path or a.endswith(os.path.basename(path)):
                    continue
                args.append(a)
    if not any(a.startswith("-std=") for a in args):
        args.append("-std=c++20")
    return args


def lower_file(index, db, path, text):
    """Parses `path` and lowers every function definition spelled in that
    file into a model.FileIR. Returns None on parse failure (driver then
    uses the lite backend for this file)."""
    tu = index.parse(path, args=_args_for(db, path),
                     unsaved_files=[(path, text)],
                     options=ci.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES
                     & 0)  # bodies required
    if tu is None:
        return None
    fatal = [d for d in tu.diagnostics
             if d.severity >= ci.Diagnostic.Fatal]
    if fatal:
        return None

    # The rules index tokens for scope math; FileIR reuses the lite
    # tokenizer so token spans are comparable across backends.
    ir = model.FileIR(path, text)
    for cur in tu.cursor.walk_preorder():
        if cur.kind in (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                        ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR):
            if not cur.is_definition():
                continue
            loc = cur.location
            if loc.file is None or os.path.abspath(loc.file.name) != \
                    os.path.abspath(path):
                continue
            ir.functions.append(_lower_function(cur))
    return ir


def _qual_name(cur):
    parts = [cur.spelling]
    p = cur.semantic_parent
    while p is not None and p.kind in (ci.CursorKind.CLASS_DECL,
                                       ci.CursorKind.STRUCT_DECL,
                                       ci.CursorKind.CLASS_TEMPLATE):
        parts.insert(0, p.spelling)
        p = p.semantic_parent
    return "::".join(parts)


def _lower_function(cur):
    ext = cur.extent
    ir = model.FunctionIR(_qual_name(cur), (0, 0), ext.start.line)
    for arg in cur.get_arguments():
        ir.params[arg.spelling] = arg.type.spelling.replace(" ", "")
    _walk_body(cur, ir, lam=None)
    return ir


def _walk_body(cur, ir, lam):
    for child in cur.get_children():
        kind = child.kind
        if kind == ci.CursorKind.VAR_DECL:
            ir.locals_.append(model.VarDecl(
                child.spelling, child.type.spelling.replace(" ", ""),
                child.location.line, child.extent.start.offset,
                None, child.extent.end.offset))
        elif kind == ci.CursorKind.CALL_EXPR and child.spelling:
            recv = ""
            kids = list(child.get_children())
            if kids and kids[0].kind == ci.CursorKind.MEMBER_REF_EXPR:
                sub = list(kids[0].get_children())
                if sub:
                    recv = sub[0].spelling or ""
            ir.calls.append(model.CallSite(
                recv, child.spelling, child.location.line,
                child.extent.start.offset,
                (child.extent.start.offset, child.extent.end.offset), lam))
        elif kind == ci.CursorKind.LAMBDA_EXPR:
            lam2 = _lower_lambda(child)
            ir.lambdas.append(lam2)
            _walk_body(child, ir, lam2)
            continue
        _walk_body(child, ir, lam)


def _lower_lambda(cur):
    captures = []
    # cindex exposes captures only through tokens; reparse the intro.
    toks = [t.spelling for t in cur.get_tokens()]
    intro = []
    depth = 0
    for t in toks:
        intro.append(t)
        if t == "[":
            depth += 1
        elif t == "]":
            depth -= 1
            if depth == 0:
                break
    fake_tokens = model.tokenize(" ".join(intro))
    if fake_tokens and fake_tokens[0].text == "[":
        close = len(fake_tokens) - 1
        captures, init_exprs = model._parse_captures(fake_tokens, 1, close)
    else:
        init_exprs = {}
    lam = model.LambdaExpr(captures, [],
                           (cur.extent.start.offset, cur.extent.end.offset),
                           cur.location.line, cur.extent.start.offset)
    lam.init_exprs = init_exprs
    # Exact closure size when clang can compute it: stash it so the
    # inline-budget rule can prefer it over the estimate table.
    size = cur.type.get_size()
    if isinstance(size, int) and size > 0:
        lam.exact_size = size  # noqa: attribute added dynamically
    return lam
