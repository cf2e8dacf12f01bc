#!/usr/bin/env python3
"""Line counts of the C++ sources at a git revision, and their delta.

Every change reports its net line delta; this script fixes the counting
rule so two reports agree:

  * files: the tracked *.h, *.cc and *.cpp files under each src/<dir>,
    under tests/ and under examples/ (one group each);
  * total lines: every line of those files;
  * code lines: lines that are not blank and are not only a `//`
    comment. A cut made by deleting comments moves the total, not the
    code count.

It prints each group, plus the serving stack (src/router + src/net +
src/server) as one extra row. With --base it also prints each group's
delta against the base revision and the delta of every changed file.

Usage: line_count.py [--rev=REV] [--base=REV] [--self-test]
Exit status: 0, or 1 when a revision cannot be read.
"""

import argparse
import subprocess
import sys

EXTENSIONS = (".h", ".cc", ".cpp")
SERVING_STACK = ("src/router", "src/net", "src/server")
SERVING_ROW = "src/router+net+server"


def group_of(path):
    """The group a tracked path counts in, or None when it does not."""
    if not path.endswith(EXTENSIONS):
        return None
    parts = path.split("/")
    if parts[0] == "src" and len(parts) >= 3:
        return "src/" + parts[1]
    if parts[0] in ("tests", "examples") and len(parts) >= 2:
        return parts[0]
    return None


def count_lines(text):
    """(total, code) lines of one file's text."""
    total = 0
    code = 0
    for line in text.splitlines():
        total += 1
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            code += 1
    return total, code


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def file_counts(rev):
    """{path: (group, total, code)} for every counted file at `rev`."""
    counts = {}
    for path in git("ls-tree", "-r", "--name-only", rev).splitlines():
        group = group_of(path)
        if group is None:
            continue
        text = git("show", f"{rev}:{path}")
        counts[path] = (group,) + count_lines(text)
    return counts


def group_counts(files):
    """{group: [total, code]}, plus the serving-stack row."""
    groups = {}
    for group, total, code in files.values():
        row = groups.setdefault(group, [0, 0])
        row[0] += total
        row[1] += code
    stack = [0, 0]
    for group in SERVING_STACK:
        for i, value in enumerate(groups.get(group, [0, 0])):
            stack[i] += value
    groups[SERVING_ROW] = stack
    return groups


def row_order(groups):
    src = sorted(g for g in groups
                 if g.startswith("src/") and g != SERVING_ROW)
    rest = [g for g in ("tests", "examples") if g in groups]
    return src + [SERVING_ROW] + rest


def print_report(rev, files, base=None, base_files=None):
    groups = group_counts(files)
    print(f"C++ line counts at {rev} (code = non-blank, not only a // comment)")
    if base is None:
        print(f"{'group':<24}{'total':>8}{'code':>8}")
        for group in row_order(groups):
            total, code = groups[group]
            print(f"{group:<24}{total:>8}{code:>8}")
        return
    base_groups = group_counts(base_files)
    print(f"delta against {base}")
    print(f"{'group':<24}{'total':>8}{'code':>8}"
          f"{'base total':>12}{'base code':>11}{'d total':>9}{'d code':>8}")
    for group in row_order({**base_groups, **groups}):
        total, code = groups.get(group, [0, 0])
        base_total, base_code = base_groups.get(group, [0, 0])
        print(f"{group:<24}{total:>8}{code:>8}{base_total:>12}{base_code:>11}"
              f"{total - base_total:>+9}{code - base_code:>+8}")
    print("changed files (d total, d code)")
    for path in sorted(set(files) | set(base_files)):
        _, total, code = files.get(path, (None, 0, 0))
        _, base_total, base_code = base_files.get(path, (None, 0, 0))
        if (total, code) != (base_total, base_code):
            print(f"  {path:<40}{total - base_total:>+7}{code - base_code:>+7}")


def self_test():
    text = "\n".join([
        "// a file comment",
        "",
        "   ",
        "#include <x>",
        "  // an indented comment",
        "int a = 1;  // code with a trailing comment",
        "/* a block comment counts as code */",
        'const char* s = "//";',
        "}",
    ])
    assert count_lines(text) == (9, 5), count_lines(text)
    assert count_lines("") == (0, 0)
    assert group_of("src/router/replica_set.cc") == "src/router"
    assert group_of("src/server/request.h") == "src/server"
    assert group_of("src/router/README.md") is None
    assert group_of("tests/net_test.cc") == "tests"
    assert group_of("examples/hub_server.cpp") == "examples"
    assert group_of("perfbench/main.cc") is None
    assert group_of("src/top_level.cc") is None
    files = {
        "src/router/a.cc": ("src/router", 10, 7),
        "src/net/b.h": ("src/net", 5, 3),
        "src/server/c.cc": ("src/server", 2, 2),
        "src/core/d.cc": ("src/core", 4, 4),
        "tests/e.cc": ("tests", 1, 1),
    }
    groups = group_counts(files)
    assert groups[SERVING_ROW] == [17, 12], groups[SERVING_ROW]
    assert row_order(groups) == ["src/core", "src/net", "src/router",
                                 "src/server", SERVING_ROW, "tests"]
    print("line_count self-test: OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--base")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    try:
        files = file_counts(args.rev)
        base_files = file_counts(args.base) if args.base else None
    except subprocess.CalledProcessError as error:
        print(f"line_count: {error.stderr.strip()}", file=sys.stderr)
        return 1
    print_report(args.rev, files, args.base, base_files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
