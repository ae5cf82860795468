#!/usr/bin/env python3
"""Resolves an alloc_census report to call sites (DESIGN.md §15).

    python3 tools/alloc_census/symbolize.py alloc_census.<pid>.txt [--top N]
        [--depth D] [--stacks]

The report (written by tools/alloc_census/alloc_census.cc at process exit)
holds one line per distinct stack of >= 1 MiB malloc/realloc calls. Each
return address is resolved with addr2line, inlined frames included, and the
stack is charged to its call site: its innermost D (default 2) frames whose
source file is not a system header or library (not under /usr/, not
unresolved), callee first. Prints one row per call site, largest total
first: calls, total MB, site. --stacks also prints one stack of each site.
"""

import argparse
import collections
import os
import subprocess
import sys


def parse_report(path):
    header = None
    stacks = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header = line
                continue
            if not line:
                continue
            calls, size, frames = line.split("\t")
            parsed = []
            for frame in frames.split(";") if frames else []:
                module, _, offset = frame.rpartition("+0x")
                parsed.append((module, int(offset, 16)))
            stacks.append((int(calls), int(size), parsed))
    return header, stacks


def resolve(stacks):
    """Maps (module, offset) to its inline chain, innermost first: a list
    of (function, file:line)."""
    by_module = collections.defaultdict(set)
    for _, _, frames in stacks:
        for module, offset in frames:
            by_module[module].add(offset)
    resolved = {}
    for module, offsets in by_module.items():
        ordered = sorted(offsets)
        # A return address points past its call: look up the call itself.
        args = ["addr2line", "-C", "-f", "-i", "-a", "-e", module]
        args += ["0x%x" % max(0, off - 1) for off in ordered]
        try:
            out = subprocess.run(args, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL,
                                 universal_newlines=True).stdout
        except OSError:
            out = ""
        chains = []
        for line in out.splitlines():
            if line.startswith("0x"):
                chains.append([])
            elif chains and (not chains[-1] or len(chains[-1][-1]) == 2):
                chains[-1].append((line,))
            elif chains:
                chains[-1][-1] = (chains[-1][-1][0], line)
        for off, chain in zip(ordered, chains):
            resolved[(module, off)] = [c for c in chain if len(c) == 2]
        for off in ordered[len(chains):]:
            resolved[(module, off)] = []
    return resolved


def is_project(location):
    path = location.rsplit(":", 1)[0]
    return not (path.startswith("??") or path.startswith("/usr/"))


def short_name(function):
    """Drops a demangled name's parameter list."""
    if not function.endswith(")"):
        return function
    depth = 0
    for i in range(len(function) - 1, -1, -1):
        if function[i] == ")":
            depth += 1
        elif function[i] == "(":
            depth -= 1
            if depth == 0:
                stripped = function[:i]
                return function if stripped.endswith("operator") else stripped
    return function


def call_site(frames, resolved, depth):
    """The innermost `depth` project frames, callee first."""
    parts = []
    for module, offset in frames:
        for function, location in resolved.get((module, offset), []):
            if is_project(location) and len(parts) < depth:
                file_line = os.path.basename(location.split(" ")[0])
                parts.append("%s (%s)" % (short_name(function), file_line))
    if parts:
        return " <- ".join(parts)
    if frames:
        return "%s+0x%x" % frames[0]
    return "<no stack>"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report")
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--depth", type=int, default=2,
                        help="project frames that name a call site")
    parser.add_argument("--stacks", action="store_true")
    args = parser.parse_args()

    header, stacks = parse_report(args.report)
    resolved = resolve(stacks)
    sites = collections.defaultdict(lambda: [0, 0, []])
    for calls, size, frames in stacks:
        site = sites[call_site(frames, resolved, args.depth)]
        site[0] += calls
        site[1] += size
        site[2].append(frames)
    if header:
        print(header)
    print("%8s %10s  %s" % ("calls", "MB", "call site"))
    ranked = sorted(sites.items(), key=lambda kv: -kv[1][1])
    for name, (calls, size, frame_lists) in ranked[:args.top]:
        print("%8d %10.1f  %s" % (calls, size / 1e6, name))
        if args.stacks:
            for module, offset in frame_lists[0]:
                for function, location in resolved.get((module, offset), []):
                    print("%21s%s (%s)" % ("", function, location))
    return 0


if __name__ == "__main__":
    sys.exit(main())
