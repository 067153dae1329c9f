"""Output checks run on every timed repeat.

Each function returns ``(checks_made, failures)``: the number of checks it
evaluated and one message per failed check. The ground truth comes from the
generator's ``meta.json``, never from the code under test.
"""

from __future__ import annotations

FIXTURE_RECALL = 0.65
FIXTURE_TOLERANCE = 0.01


def check_eval(report: dict, truth: dict):
    """Per user: the clicked count equals the ground truth, and no more
    queries are recovered than brute force says are recoverable (zero false
    positives). The report covers every user, fails none, and its mean
    recall is the mean over users with a clicked query."""
    failures = []
    made = 2
    if report["failures"]:
        failures.append(f"users failed: {sorted(report['failures'])}")
    rows = {row["user_id"]: row for row in report["per_user"]}
    if set(rows) != set(truth):
        failures.append(f"report covers {len(rows)} users, expected {len(truth)}")
    for user_id, expected in sorted(truth.items()):
        made += 2
        row = rows.get(user_id)
        if row is None:
            failures.append(f"{user_id}: missing from the report")
            failures.append(f"{user_id}: recovered count unchecked")
            continue
        if row["n_c"] != expected["n_c"]:
            failures.append(f"{user_id}: n_c {row['n_c']} != ground truth {expected['n_c']}")
        if row["n_s"] > expected["recoverable"]:
            failures.append(
                f"{user_id}: n_s {row['n_s']} exceeds the "
                f"{expected['recoverable']} brute-force recoverable queries"
            )
    made += 1
    scored = [row["recall"] for row in report["per_user"] if row["n_c"] > 0]
    mean = sum(scored) / len(scored) if scored else 0.0
    if report["mean_recall"] != mean:
        failures.append(f"mean_recall {report['mean_recall']} != per-user mean {mean}")
    return made, failures


def check_curve(points: list, budgets, skipped: int, meta: dict):
    """Recall does not fall as the budget grows, each budget bounds the mean
    requests, and the loader skipped exactly the generator's malformed rows."""
    failures = []
    made = 2
    if [p["budget"] for p in points] != list(budgets):
        failures.append(f"curve budgets {[p['budget'] for p in points]} != {list(budgets)}")
    if skipped != meta["malformed_rows"]:
        failures.append(f"skipped {skipped} rows, generator wrote {meta['malformed_rows']} malformed")
    for before, after in zip(points, points[1:]):
        made += 1
        if after["mean_recall"] < before["mean_recall"]:
            failures.append(
                f"recall fell from {before['mean_recall']} at {before['budget']} "
                f"to {after['mean_recall']} at {after['budget']}"
            )
    for point in points:
        made += 1
        if point["mean_requests"] > point["budget"]:
            failures.append(f"mean_requests {point['mean_requests']} > budget {point['budget']}")
    return made, failures


def check_audit(output: dict, meta: dict, catalog):
    """The accounts are exactly the SIDs the generator sent over http, the
    user counts agree with the generator, and no account reaches an
    HTTPS-mandatory service."""
    failures = []
    made = 3
    sids = [account["sid"] for account in output["accounts"]]
    if sorted(sids) != meta["http_sids"]:
        missing = set(meta["http_sids"]) - set(sids)
        extra = set(sids) - set(meta["http_sids"])
        failures.append(f"accounts differ from http SIDs: {len(missing)} missing, {len(extra)} extra")
    counts = output["user_counts"]
    if counts["signed_in"] != len(meta["http_sids"]):
        failures.append(f"signed_in {counts['signed_in']} != {len(meta['http_sids'])} http SIDs")
    if counts["history_enabled"] != len(meta["history_sids"]):
        failures.append(
            f"history_enabled {counts['history_enabled']} != {len(meta['history_sids'])}"
        )
    mandatory = {e.service for e in catalog if e.https_support == "mandatory"}
    for account in output["accounts"]:
        made += 1
        reached = mandatory.intersection(account["services_accessible"])
        if reached:
            failures.append(f"{account['sid']} reaches HTTPS-mandatory {sorted(reached)}")
    return made, failures


def check_fixture(mean_recall: float):
    """The calibrated 12-user fixture's mean recall under the default plan."""
    if abs(mean_recall - FIXTURE_RECALL) <= FIXTURE_TOLERANCE:
        return 1, []
    return 1, [f"fixture mean recall {mean_recall} outside {FIXTURE_RECALL} +/- {FIXTURE_TOLERANCE}"]
