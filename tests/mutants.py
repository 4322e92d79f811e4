"""Mutation testing of the source lines that a diff touches.

    python tests/mutants.py BASE [PATH ...]

Run from anywhere inside the repository.  ``git diff BASE -- PATH ...``
names the lines of the PATHs (relative to the repository root; ``src`` if
none is given) that the working tree adds or changes against the commit
``BASE``; only Python files under ``src/`` are mutated.  On those lines a
mutation site is a comparison operator to swap (``<``/``<=``, ``>``/``>=``,
``==``/``!=``) or an int literal from 0 to 64 to raise by one; sites are
found with ``ast`` and each mutant differs from its file in that one token.
Against git's empty tree (``git hash-object -t tree /dev/null``) every line
counts as touched, so ``python tests/mutants.py $(git hash-object -t tree
/dev/null) src/quantlab/montecarlo.py`` sweeps a whole module.

The working tree's files, those git tracks or would track, are copied
into a temporary directory, and each mutant is written there in turn,
never into the working tree.  Its module's test files -- every ``tests/test_*.py``
that imports it, its own ``test_<module>.py`` first -- run with ``-x -q``
against the copy, once unmutated first (which must pass).  Each site prints
as ``file:line``, the mutation and ``killed`` (with the first failing test)
or ``survived``; the exit status is 1 if any survived.  A mutant that runs
past TIMEOUT_S counts as killed.  pytest does not collect this file, and CI
does not run it: a sweep takes minutes.
"""

import ast
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOKENS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!="}
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
TIMEOUT_S = 600
# Address space of one test run: a mutant that asks for a huge array fails
# with MemoryError instead of taking the machine's memory.
ADDRESS_SPACE = 6 << 30


def touched_lines(base, paths=("src",)):
    """{path: set of line numbers} of the Python lines under ``src/`` and
    ``paths`` that the working tree adds or changes against ``base``."""
    diff = subprocess.run(["git", "diff", "-U0", base, "--", *paths], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout
    lines, path = {}, None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = line[6:] if line.startswith("+++ b/") else None
        elif (line.startswith("@@") and path and path.startswith("src/")
              and path.endswith(".py")):
            start, count = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", line).groups()
            start = int(start)
            lines.setdefault(path, set()).update(
                range(start, start + int(1 if count is None else count)))
    return lines


def sites(source, lines):
    """Mutation sites of ``source`` (bytes) on ``lines``: (line, start byte,
    end byte, original token, replacement), in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(lineno, col):  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) not in TOKENS or not lines.intersection(
                        range(left.end_lineno, right.lineno + 1)):
                    continue
                # only brackets, spaces and the operator lie between operands
                lo = at(left.end_lineno, left.end_col_offset)
                m = re.search(rb"[<>!=]=|[<>]", source[lo:at(right.lineno,
                                                          right.col_offset)])
                token = TOKENS[type(op)]
                assert m and m[0].decode() == token, (node.lineno, token)
                found.append((source[:lo].count(b"\n") + 1, lo + m.start(),
                              lo + m.end(), token, SWAPS[token]))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and 0 <= node.value <= 64 and node.lineno in lines):
            lo, hi = (at(node.lineno, node.col_offset),
                      at(node.end_lineno, node.end_col_offset))
            found.append((node.lineno, lo, hi, source[lo:hi].decode(),
                          str(node.value + 1)))
    return sorted(found)


def test_files(path):
    """The test files that import the module at ``path`` (under src/),
    its own test_<module>.py first."""
    module = os.path.splitext(os.path.relpath(path, "src"))[0].split(os.sep)
    if module[-1] == "__init__":
        module.pop()
    dotted = re.escape(".".join(module))
    pattern = (rf"\b{dotted}\b" if len(module) == 1 else
               rf"\b{dotted}\b|^\s*from {re.escape('.'.join(module[:-1]))} "
               rf"import\b.*\b{re.escape(module[-1])}\b")
    tests = os.path.join(ROOT, "tests")
    names = sorted(n for n in os.listdir(tests)
                   if n.startswith("test_") and n.endswith(".py")
                   and re.search(pattern, open(os.path.join(tests, n)).read(), re.M))
    own = f"test_{module[-1]}.py"
    return [os.path.join("tests", n) for n in sorted(names, key=lambda n: n != own)]


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tests(copy, files):
    """(pytest exit status, first failing test) of ``files`` in ``copy``;
    status None on a timeout."""
    # No bytecode: a mutant of the same size, written within the same
    # second, would otherwise import the last mutant's cached code.
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *files], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S,
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return done.returncode, failed[1] if failed else done.stdout.strip()[-200:]


def main(argv):
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    touched = touched_lines(argv[0], argv[1:] or ("src",))
    survived = 0
    with tempfile.TemporaryDirectory() as copy:
        for name in subprocess.run(
                ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout.split("\0"):
            if os.path.isfile(os.path.join(ROOT, name)):
                os.makedirs(os.path.join(copy, os.path.dirname(name)), exist_ok=True)
                shutil.copy(os.path.join(ROOT, name), os.path.join(copy, name))
        for path in sorted(touched):
            with open(os.path.join(ROOT, path), "rb") as fh:
                source = fh.read()
            found = sites(source, touched[path])
            if not found:
                continue
            files = test_files(path)
            status, detail = run_tests(copy, files)
            if status != 0:
                print(f"{path}: the unmutated tests fail ({detail})", file=sys.stderr)
                return 2
            print(f"{path}: {len(found)} sites, tests {' '.join(files)}", flush=True)
            target = os.path.join(copy, path)
            try:
                for line, lo, hi, token, new in found:
                    with open(target, "wb") as fh:
                        fh.write(source[:lo] + new.encode() + source[hi:])
                    status, detail = run_tests(copy, files)
                    verdict = "survived" if status == 0 else f"killed ({detail})"
                    survived += status == 0
                    print(f"{path}:{line} {token} -> {new} {verdict}", flush=True)
            finally:
                with open(target, "wb") as fh:
                    fh.write(source)
    print(f"{survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
