"""Command-line pipeline: plan building, single-user reconstruction, batch
evaluation, trace auditing and synthetic-data generation."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .attack import AttackConfig, AttackError, reconstruct, score, write_reports_csv
from .cookies import (
    CookieError,
    TraceTally,
    bundled_catalog,
    load_catalog,
    write_audit_csv,
)
# unused here, but perfbench/tracing.py looks these up on this module to patch them
from .cookies import audit_trace, count_users, load_trace  # noqa: F401
from .harness import HarnessError, gen_synthetic, ingest_query_log_counted, run_batch
from .history import HistoryError, iter_histories, save_histories
# unused here, but perfbench/tracing.py looks it up on this module to patch it
from .history import load_histories  # noqa: F401
from .oracle import MIN_PREFIX_LEN, SuggestIndex
from .planner import (
    PLANNER_ALPHABET, PlannerError, PrefixPlan, build_plan, bundled_wordlist, load_corpus,
    query_alphabet_problem,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class InputError(Exception):
    pass


def _write_manifest(output: Path, args, **fixed) -> None:
    """Record the subcommand's resolved configuration: each of its
    arguments, the output path as written and, where it takes none, a seed
    of None."""
    config = {"seed": None, **vars(args), **fixed, "output": str(output)}
    del config["command"], config["func"]
    manifest = {"subcommand": args.command, "config": config, "version": __version__}
    path = output.with_suffix("")
    manifest_path = Path(str(path) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _input_file(path: str, what: str) -> Path:
    """The path of an input file that must exist."""
    if not Path(path).is_file():
        raise InputError(f"{what} not found: {path}")
    return Path(path)


def _load_corpus_arg(corpus: str):
    if corpus == "bundled":
        return bundled_wordlist()
    return load_corpus(_input_file(corpus, "corpus file"))


def cmd_plan(args) -> int:
    problem = query_alphabet_problem(args.alphabet)
    if problem:
        raise InputError(f"--alphabet: {problem}")
    corpus = _load_corpus_arg(args.corpus)
    plan = build_plan(
        corpus,
        mass_fraction=args.mass,
        lengths=(args.length, args.length + 1),
        alphabet=args.alphabet,
    )
    out = Path(args.output)
    plan.save(out)
    stem = out.with_suffix("")
    for n, stats in plan.stats_by_length.items():
        stats.write_csv(Path(f"{stem}.stats{n}.csv"))
    Path(f"{stem}.seeds.txt").write_text("\n".join(plan.seeds) + "\n")
    # the manifest names the one seed selection there is
    _write_manifest(out, args, selection="mass")
    return EXIT_OK


def _load_single_history(path: str, user: str | None):
    """The history of the given user, or with no user the smallest user
    id's; of lines with that id, the last one's. The file is read one line
    at a time and only the chosen history is kept, but it is read to its
    end, so a bad line anywhere is reported."""
    chosen = None
    empty = True
    for hist in iter_histories(_input_file(path, "history file")):
        empty = False
        if user is None:
            better = chosen is None or hist.user_id <= chosen.user_id
        else:
            better = hist.user_id == user
        if better:
            chosen = hist
    if empty:
        raise InputError(f"no histories in {path}")
    if chosen is None:
        raise InputError(f"user {user!r} not in {path}")
    return chosen


def cmd_reconstruct(args) -> int:
    _at_least("--budget", args.budget)
    _at_least("--max-depth", args.max_depth, MIN_PREFIX_LEN)
    hist = _load_single_history(args.history_file, args.user)
    plan = PrefixPlan.load(_input_file(args.plan_file, "plan file"))
    config = AttackConfig(
        plan=plan,
        budget=args.budget,
        max_depth=args.max_depth,
    )
    result = reconstruct(SuggestIndex(hist), config)
    report = score(result, hist)
    out = Path(args.output)
    out.write_text(result.to_json() + "\n")
    stem = out.with_suffix("")
    write_reports_csv([report], Path(f"{stem}.report.csv"))
    _write_manifest(out, args)
    return EXIT_OK


def _dataset_histories(path: str):
    """The histories of a dataset file that exists. An AOL-format TSV is
    loaded whole, since one user's rows may appear anywhere in the log. A
    history JSON-lines file is read one history at a time, as the batch
    asks for the next one."""
    p = Path(path)
    with open(p, "rb") as fh:
        first = fh.readline()
    if first.startswith(b"AnonID\t"):
        histories, skipped = ingest_query_log_counted(p)
        if skipped:
            print(f"{path}: skipped {skipped} malformed rows", file=sys.stderr)
        return histories
    return iter_histories(p)


def _at_least(flag: str, value: int | None, low: int = 1) -> None:
    """A flag's integer value, when given, is at least low."""
    if value is not None and value < low:
        raise InputError(f"{flag} must be >= {low}, got {value}")


def cmd_eval(args) -> int:
    _at_least("--workers", args.workers)
    _at_least("--budget", args.budget)
    # a missing dataset is reported first, then a bad plan, and a bad record
    # only when the batch reaches it
    _input_file(args.dataset, "dataset")
    if args.plan_file is not None:
        plan = PrefixPlan.load(_input_file(args.plan_file, "plan file"))
        if not plan.seeds:
            # reconstruct would refuse it for every user, and eval would
            # write a report of failures only
            raise InputError(f"{args.plan_file}: seeds: empty")
    else:
        plan = build_plan(bundled_wordlist(), mass_fraction=0.9)
    config = AttackConfig(plan=plan, budget=args.budget)
    report = run_batch(_dataset_histories(args.dataset), config)
    out = Path(args.output)
    out.write_text(report.to_json() + "\n")
    stem = out.with_suffix("")
    write_reports_csv(report.per_user, Path(f"{stem}.per_user.csv"))
    _write_manifest(out, args)
    return EXIT_OK


def cmd_audit(args) -> int:
    # the whole trace is read, and any bad record reported, before the catalog
    tally = TraceTally.read(_input_file(args.trace_file, "trace file"))
    if args.catalog_file is not None:
        catalog = load_catalog(_input_file(args.catalog_file, "catalog file"))
    else:
        catalog = bundled_catalog()
    reports = tally.reports(
        catalog, enforce_ip_binding=args.enforce_ip_binding, replay_ip=args.replay_ip
    )
    out = Path(args.output)
    # an account is every field of its HijackReport
    audit = {"user_counts": tally.user_counts(), "accounts": [vars(r) for r in reports]}
    out.write_text(json.dumps(audit, sort_keys=True) + "\n")
    stem = out.with_suffix("")
    write_audit_csv(reports, catalog, Path(f"{stem}.services.csv"))
    _write_manifest(out, args)
    return EXIT_OK


def _parse_entries(raw: str):
    """A count, or a low:high range, of entries per user: integers with
    1 <= low <= high."""
    low, sep, high = raw.partition(":")
    try:
        bounds = (int(low), int(high if sep else low))
    except ValueError:
        raise InputError(f"--entries must be a count or low:high, got {raw!r}") from None
    if not 1 <= bounds[0] <= bounds[1]:
        raise InputError(f"--entries needs 1 <= low <= high, got {raw!r}")
    return bounds if sep else bounds[0]


def cmd_gen(args) -> int:
    _at_least("--users", args.users)
    if args.vocab is not None:
        vocabulary = _load_corpus_arg(args.vocab)
    else:
        vocabulary = bundled_wordlist()
    histories = gen_synthetic(
        n_users=args.users,
        entries_per_user=_parse_entries(args.entries),
        clicked_fraction=args.clicked_fraction,
        vocabulary=vocabulary,
        seed=args.seed,
    )
    out = Path(args.output)
    save_histories((histories[uid] for uid in sorted(histories)), out)
    _write_manifest(out, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="historiographer",
        description="Search-history reconstruction and session-exposure audit toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build a prefix plan from a reference corpus")
    p.add_argument("corpus", help="word-list path, or 'bundled'")
    p.add_argument("--mass", type=float, default=0.9)
    p.add_argument("--length", type=int, default=2)
    p.add_argument("--alphabet", default=PLANNER_ALPHABET)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("reconstruct", help="reconstruct one user's history")
    p.add_argument("history_file")
    p.add_argument("plan_file")
    p.add_argument("--user")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("eval", help="batch attack simulation over a dataset")
    p.add_argument("dataset", help="history JSON-lines or AOL-format TSV")
    p.add_argument("plan_file", nargs="?", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument(
        "--workers", type=int, default=1,
        help="at least 1; recorded in the manifest; the batch runs serially at any value",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the manifest; eval has no randomness",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="count users and audit hijack exposure")
    p.add_argument("trace_file")
    p.add_argument("catalog_file", nargs="?", default=None)
    p.add_argument("--enforce-ip-binding", action="store_true")
    p.add_argument("--replay-ip", default="")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--entries", default="20", help="count, or low:high range")
    p.add_argument("--clicked-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InputError,
        FileNotFoundError,
        CookieError,
        HarnessError,
        HistoryError,
        PlannerError,
        AttackError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
