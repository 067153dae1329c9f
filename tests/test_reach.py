"""The functions of src/historiographer that no CLI run enters, pinned.

A fresh interpreter runs the CLI under sys.setprofile on the inputs and
arguments of test_output_digests.py, and on the flags those cases leave at
their defaults. Every def that no run enters, methods and nested functions
included, must be listed in UNENTERED with its reason. A new function that
no run enters fails here until it is declared or deleted, and a listed one
that a run now enters fails until it is taken off the list. Error paths
inside functions that a run enters are out of scope.

Run as a script (python tests/test_reach.py OUT_DIR), this file is that
interpreter: it prints the (file, first line, name) of every code object the
runs entered, as JSON.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "historiographer"

# runs past the digest cases, each with a flag they leave at its default
EXTRA_RUNS = [
    ["reconstruct", "{gen}", "{plan}", "--max-depth", "3"],
    ["eval", "{gen}", "--workers", "2", "--seed", "3"],
]

REFUSED = "runs only on input the CLI refuses"
HEAP_LOOP = "the heap loop: the reference for _walk, and the path of any callable oracle"
ACCEPTANCE = "an acceptance name (ROADMAP's hard constraints)"
VOLUNTEERS = "read by bundled_volunteers, an acceptance name"
PERFBENCH = "called or patched only by perfbench/ (ROADMAP item 7 retires it)"
RANKING = (
    "the independent ranking reference of brute_force_recoverable and of two tests; "
    "no loop calls it (ROADMAP item 7)"
)
RECORD = "a record's value equality or repr, which the tests use and no CLI run does"

# qualified name under historiographer: why no CLI run enters it
UNENTERED = {
    "attack.ReconstructionAborted.__init__": REFUSED,
    "cookies._trace_problem": REFUSED,
    "history.RankedHistory.__setattr__": REFUSED,
    "planner.PrefixPlan.__setattr__": REFUSED,
    "attack.reconstruct.<locals>.priority": HEAP_LOOP,
    "oracle.SuggestIndex.__call__": HEAP_LOOP,
    "oracle.SuggestionResponse.__init__": HEAP_LOOP,
    "oracle._check_prefix": HEAP_LOOP,
    "oracle.suggest": HEAP_LOOP,
    "cookies.parse_set_cookie": ACCEPTANCE,
    "cookies._parse_expires": ACCEPTANCE,
    "harness.brute_force_recoverable": ACCEPTANCE,
    "harness.bundled_volunteers": ACCEPTANCE,
    "history.SearchHistory.clicked_queries": ACCEPTANCE,
    "history.load_histories": VOLUNTEERS,
    "history.iter_histories": VOLUNTEERS,
    "history._history": VOLUNTEERS,
    "history.SearchHistory.from_dict": VOLUNTEERS,
    "cookies.load_trace": PERFBENCH,
    "cookies.iter_trace": PERFBENCH,
    "cookies.count_users": PERFBENCH,
    "cookies.harvest_accounts": PERFBENCH,
    "cookies.audit_trace": PERFBENCH,
    "cookies.TraceTally.add": PERFBENCH,
    "oracle.SuggestionResponse.history_count": PERFBENCH,
    "harness.recall_curve": PERFBENCH,
    "oracle.default_ranking": RANKING,
    "history.Record.__eq__": RECORD,
    "history.Record.__repr__": RECORD,
}


def defined_functions():
    """Every def in the package, nested ones and methods included, as
    {(file, first line with decorators, name): qualified name}."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first, child.name] = ".".join([*scope, child.name])
                visit(child, path, [*scope, child.name, "<locals>"])
            elif isinstance(child, ast.ClassDef):
                visit(child, path, [*scope, child.name])
            else:
                visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [path.stem])
    return found


def entered_functions(out_dir):
    """The (file, first line, name) of every package code object that the
    CLI runs enter, from a fresh interpreter: a function cached in an
    earlier test's process would not be entered again."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, __file__, str(out_dir)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {tuple(key) for key in json.loads(proc.stdout)}


def test_unentered_functions_are_declared(tmp_path):
    defined = defined_functions()
    undefined = UNENTERED.keys() - set(defined.values())
    assert not undefined, f"listed, but no def has these names: {sorted(undefined)}"
    # a reason whose last entry was deleted goes with it
    reasons = {value for name, value in globals().items() if name.isupper() and type(value) is str}
    assert not reasons - set(UNENTERED.values()), "a reason names no entry"
    entered = entered_functions(tmp_path)
    unentered = {name for key, name in defined.items() if key not in entered}
    problems = [
        f"{name}: no CLI run enters it; declare it with a reason, or delete it"
        for name in sorted(unentered - UNENTERED.keys())
    ] + [
        f"{name}: a CLI run enters it; remove it from the list"
        for name in sorted(UNENTERED.keys() - unentered)
    ]
    assert not problems, "\n".join(problems)


def _run_cli(out_dir):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    # what the import runs counts; the input writers do not
    sys.setprofile(profile)
    from historiographer.cli import main

    sys.setprofile(None)
    from test_output_digests import CASES, write_inputs

    inputs = write_inputs(out_dir)
    runs = [args for args, _ in CASES.values()] + EXTRA_RUNS
    for i, args in enumerate(runs):
        argv = [arg.format(**inputs) for arg in args] + ["-o", str(out_dir / f"out{i}.json")]
        sys.setprofile(profile)
        code = main(argv)
        sys.setprofile(None)
        assert code == 0, argv
    files = {f: Path(f).resolve() for f, _, _ in entered}
    return sorted(
        (str(files[f]), line, name) for f, line, name in entered if files[f].parent == PACKAGE
    )


if __name__ == "__main__":
    print(json.dumps(_run_cli(Path(sys.argv[1]))))
