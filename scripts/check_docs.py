#!/usr/bin/env python3
"""Documentation gates for CI.

1. Intra-repo markdown link check: every relative link target in a *.md
   file must exist (http/mailto/pure-anchor links are skipped).
2. Code-to-doc references: every *.md file a `//` comment in src/, bench/,
   examples/ or tests/ names must exist, relative to the repo root or to
   the commented file's directory.
3. Doc-comment coverage over the public headers: every public function
   declaration in src/{core,exec,serve,simd,replication,rtree,kdtree,
   bptree}/*.h must be preceded by a `///` contract comment.

Exit code 0 when every gate passes; 1 with a listing of violations.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {"build", ".git", ".claude"}

# ----------------------------------------------------------------- links --

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_markdown_links():
    errors = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        for name in files:
            if not name.endswith(".md"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            # Drop fenced code blocks: sample snippets are not links.
            text = re.sub(r"```.*?```", "", text, flags=re.S)
            for target in MD_LINK.findall(text):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = os.path.normpath(
                    os.path.join(root, target.split("#", 1)[0]))
                if not os.path.exists(resolved):
                    rel = os.path.relpath(path, REPO)
                    errors.append(f"{rel}: broken link -> {target}")
    return errors


# ------------------------------------------------- code-to-doc references --

CODE_DIRS = ("src", "bench", "examples", "tests")
CODE_SUFFIXES = (".h", ".cc", ".cpp")
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def check_code_doc_references():
    errors = []
    for top in CODE_DIRS:
        for root, dirs, files in os.walk(os.path.join(REPO, top)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith(CODE_SUFFIXES):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    lines = f.read().splitlines()
                for lineno, line in enumerate(lines, 1):
                    comment = line.partition("//")[2]
                    for doc in MD_NAME.findall(comment):
                        if not any(os.path.exists(os.path.join(base, doc))
                                   for base in (REPO, root)):
                            rel = os.path.relpath(path, REPO)
                            errors.append(f"{rel}:{lineno}: comment names "
                                          f"{doc}, which does not exist")
    return errors


# -------------------------------------------------------- doc coverage ----

HEADER_GLOBS = ("src/core", "src/exec", "src/serve", "src/simd",
                "src/replication", "src/rtree", "src/kdtree", "src/bptree")

# A line that starts a function declaration/definition at class-public or
# namespace scope in this codebase's style (2-space members, 0-space free
# functions; bodies are indented deeper and get filtered by the keyword
# and assignment checks below).
DECL = re.compile(
    r"^(?P<indent> {0,2})"
    r"(?:template\s*<[^>]*>\s*)?"
    r"(?:(?:virtual|static|explicit|constexpr|inline|friend)\s+)*"
    r"[A-Za-z_][\w:<>,&*\s]*?"
    r"\s[~A-Za-z_]\w*\s*\("
)
NOT_DECL = re.compile(
    r"^\s*(?:if|for|while|switch|return|assert|sizeof|do|else|case|catch|"
    r"DBLSH_|EXPECT_|ASSERT_|TEST)\b"
    r"|^\s*//"
    # Assignment statements (`foo = Bar(x);`), but NOT default arguments —
    # anchored so an `=` later in a declaration line doesn't exempt it.
    r"|^\s*[\w.\[\]>-]+\s*[+\-*/|&^]?=[^=]"
)


def code_braces(line):
    """Net brace count of a line, ignoring comments and literals."""
    code = re.sub(r"//.*", "", line)
    code = re.sub(r"\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*'", "", code)
    return code.count("{") - code.count("}")


def public_decl_lines(lines):
    """Yield (index, line) for public declarations needing a /// comment."""
    # One entry per enclosing class body: [access, brace depth inside it].
    # Namespace scope counts as public; a member is public only when every
    # enclosing class body is, so a nested class's end restores the outer
    # class's access instead of resetting to file scope.
    scopes = []
    depth = 0
    pending = None  # access of a class head whose "{" is still to come
    for i, line in enumerate(lines):
        stripped = line.strip()
        opens_class = (re.match(r"^(class|struct)\s+\w+", stripped)
                       and not stripped.endswith(";"))
        if opens_class:
            # Class bodies default private, struct bodies public.
            pending = "private" if stripped.startswith("class") else "public"
        if scopes and stripped in ("public:", "protected:", "private:"):
            scopes[-1][0] = "public" if stripped == "public:" else "private"
        visible = all(access == "public" for access, _ in scopes)
        delta = code_braces(line)
        if pending is not None and "{" in re.sub(r"//.*", "", line):
            if delta > 0:  # else the whole body sits on this line
                scopes.append([pending, depth + 1])
            pending = None
        depth += delta
        while scopes and depth < scopes[-1][1]:
            scopes.pop()
        if opens_class or not visible:
            continue
        if not DECL.match(line) or NOT_DECL.search(line):
            continue
        # Constructors/operators/defaulted members don't need a contract.
        if "operator" in line or "= default" in line or "= delete" in line:
            continue
        yield i, line


def has_doc_above(lines, i):
    j = i - 1
    while j >= 0:
        s = lines[j].strip()
        if s.startswith("///"):
            return True
        if s == "" or s.endswith("&&") or s.startswith(")"):
            j -= 1
            continue
        # Multi-line declaration: walk up through its continuation lines.
        if not s.endswith((";", "{", "}")) and j > 0:
            j -= 1
            continue
        return False
    return False


def check_doc_coverage():
    errors = []
    for rel_dir in HEADER_GLOBS:
        full = os.path.join(REPO, rel_dir)
        for name in sorted(os.listdir(full)):
            if not name.endswith(".h"):
                continue
            path = os.path.join(full, name)
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            for i, line in public_decl_lines(lines):
                if not has_doc_above(lines, i):
                    rel = os.path.relpath(path, REPO)
                    errors.append(
                        f"{rel}:{i + 1}: public declaration lacks a /// "
                        f"contract comment: {line.strip()[:70]}")
    return errors


def main():
    errors = (check_markdown_links() + check_code_doc_references()
              + check_doc_coverage())
    if errors:
        print(f"docs check FAILED ({len(errors)} problem(s)):")
        for e in errors:
            print("  " + e)
        return 1
    print("docs check passed: markdown links and the code's doc "
          "references resolve, the headers of "
          + "/".join(d.split("/")[1] for d in HEADER_GLOBS)
          + " are documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
