#!/usr/bin/env python3
"""Checks that no file under src/ includes a header from a higher layer.

The layers are the `rwdt_layer(<name> <dir>...)` lines of
src/CMakeLists.txt, lowest first; each directory under src/ is in
exactly one. A file may include "<dir>/..." only when <dir> is in its
own layer or one below. Only direct includes are read: every file is
checked, so an upward include reached through another header is a direct
one in that header. src/rwdt.h, the umbrella over every layer, is in
none and is not checked.

    python3 tools/check_layers.py             # check the tree
    python3 tools/check_layers.py --selftest  # the check reports each
                                              # upward edge the layering
                                              # removed, put back

Exits 1 and prints one line per problem when the check fails.
"""

import argparse
import os
import re
import shutil
import sys
import tempfile

LAYER_RE = re.compile(r"^\s*rwdt_layer\(\s*(\w+)([^)]*)\)", re.M)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"/]+)/', re.M)

# The upward edges the four layers removed: (file, line put back into
# it). A file that no longer exists is created with just that line.
REMOVED_EDGES = [
    ("core/log_study.cc", '#include "engine/engine.h"'),
    ("obs/admin_server.h", '#include "serve/http_server.h"'),
    ("obs/profiler.cc", '#include "serve/http_server.h"'),
]


def read_layers(src):
    """Returns the layer names, lowest first, and {dir: layer rank}."""
    with open(os.path.join(src, "CMakeLists.txt")) as f:
        text = f.read()
    names, rank_of, problems = [], {}, []
    for rank, match in enumerate(LAYER_RE.finditer(text)):
        names.append(match.group(1))
        for directory in match.group(2).split():
            if directory in rank_of:
                problems.append(f"src/{directory} is in two layers")
            rank_of[directory] = rank
    if not names:
        problems.append("no rwdt_layer lines in src/CMakeLists.txt")
    return names, rank_of, problems


def check(src):
    """Returns one line per upward include or unlayered directory."""
    names, rank_of, problems = read_layers(src)
    for directory in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, directory)):
            continue
        if directory not in rank_of:
            problems.append(f"src/{directory} is in no layer")
            continue
        rank = rank_of[directory]
        for name in sorted(os.listdir(os.path.join(src, directory))):
            if not name.endswith((".h", ".cc")):
                continue
            with open(os.path.join(src, directory, name)) as f:
                text = f.read()
            for match in INCLUDE_RE.finditer(text):
                target = match.group(1)
                if rank_of.get(target, -1) > rank:
                    line = text.count("\n", 0, match.start()) + 1
                    problems.append(
                        f"src/{directory}/{name}:{line}: the "
                        f"{names[rank]} layer includes \"{target}/...\" "
                        f"from the {names[rank_of[target]]} layer")
    return problems


def selftest(src):
    """Puts each removed edge back into a copy of src/; each must be
    reported, and the unchanged copy must pass."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for path, include in [(None, None)] + REMOVED_EDGES:
            copy = os.path.join(tmp, "src")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(src, copy)
            if path is None:
                problems = check(copy)
                if problems:
                    failures.append("the unchanged tree fails: " +
                                    "; ".join(problems))
                continue
            target = os.path.join(copy, path)
            text = ""
            if os.path.exists(target):
                with open(target) as f:
                    text = f.read()
            with open(target, "w") as f:
                f.write(include + "\n" + text)
            problems = check(copy)
            if not any(p.startswith(f"src/{path}:1:") for p in problems):
                failures.append(f"{path} with {include} was not reported")
            else:
                print(f"reported: {path} with {include}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--selftest", action="store_true",
                        help="check that each removed edge is reported")
    args = parser.parse_args()
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    problems = selftest(src) if args.selftest else check(src)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("layering selftest: ok" if args.selftest else "layering: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
