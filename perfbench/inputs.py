"""Seeded input generators for the benchmark workloads.

Each writer turns a seed into the exact files the program reads, and returns
what the generator knows about them (ground truth for the output checks).
The same seed always gives the same bytes.

Run as a script to write one workload's inputs and a ``meta.json``:

    python3 perfbench/inputs.py --workload curve-aol --seed 3 --out DIR

The script needs the package importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from historiographer.cookies import HISTORY_LINK_FLAG
from historiographer.harness import AOL_COLUMNS, brute_force_recoverable, gen_synthetic
from historiographer.history import save_histories
from historiographer.planner import bundled_wordlist

# eval-synth: the synthetic set named in the roadmap.
SYNTH_USERS = 200
SYNTH_ENTRIES = (200, 1000)
SYNTH_CLICKED = 0.6

# curve-aol: many users with short histories.
AOL_USERS = 600
AOL_SEARCHES = (10, 60)
AOL_MALFORMED_SHARE = 0.01
AOL_START = 1_141_171_200  # 2006-03-01 00:00:00 UTC, inside the AOL log period

# audit-trace: a mixed http/https capture.
TRACE_RECORDS = 40_000
TRACE_RECORDS_PER_CLIENT = 25

# (host, path, https only). The https-only pages are the HTTPS-mandatory
# services of the bundled catalog.
TRACE_PAGES = [
    ("www.google.com", "/search", False),
    ("www.google.com", "/search", False),
    ("www.google.com", "/search", False),
    ("maps.google.com", "/maps", False),
    ("news.google.com", "/news", False),
    ("www.google.com", "/reader/view", False),
    ("www.google.com", "/history/lookup", False),
    ("books.google.com", "/books", False),
    ("docs.google.com", "/doc", False),
    ("mail.google.com", "/mail", True),
    ("www.google.com", "/accounts/ServiceLogin", True),
]


def _zipf_weights(n: int):
    return [1.0 / (i + 1) for i in range(n)]


def write_synthetic(path, seed: int, users: int = SYNTH_USERS, entries=SYNTH_ENTRIES) -> dict:
    """History JSON lines from ``gen_synthetic`` on the bundled word list.

    User i gets its own ``gen_synthetic`` draw with a search count spaced
    evenly over ``entries``, so every seed has the same total searches and
    seeds differ in content, not in size. (With one draw per user the total
    varies by a few percent between seeds, and the oracle's cost grows
    faster than that.) Returns per-user ground truth: the clicked-query count
    and the number of brute-force recoverable queries, with the brute
    force's time per user.
    """
    rng = random.Random(seed)
    vocabulary = bundled_wordlist()
    low, high = entries
    histories = {}
    for i in range(users):
        hist = gen_synthetic(
            n_users=1,
            entries_per_user=low + (high - low) * i // max(1, users - 1),
            clicked_fraction=SYNTH_CLICKED,
            vocabulary=vocabulary,
            seed=rng.getrandbits(64),
        )["user0000"]
        hist.user_id = f"user{i:04d}"
        histories[hist.user_id] = hist
    save_histories(histories.values(), path)
    start = time.perf_counter()
    recoverable = {uid: len(brute_force_recoverable(h)) for uid, h in histories.items()}
    bf_s = time.perf_counter() - start
    return {
        "users": {
            uid: {"n_c": h.n_c, "recoverable": recoverable[uid]} for uid, h in histories.items()
        },
        "brute_force_s_per_user": bf_s / len(histories),
    }


def _raw_query(query: str, rng: random.Random) -> str:
    """Surface noise that ``normalize`` removes: case, spacing, punctuation."""
    words = []
    for word in query.split(" "):
        roll = rng.random()
        if roll < 0.15:
            word = word.upper()
        elif roll < 0.35:
            word = word.capitalize()
        elif roll < 0.40 and len(word) > 2:
            word = word[:-1] + "'" + word[-1]
        words.append(word)
    text = rng.choice([" ", " ", " ", "  "]).join(words)
    return rng.choice(["", "", "", " "]) + text + rng.choice(["", "", "", "?", "."])


def _malformed_row(anon_id: str, stamp: str, rng: random.Random) -> list:
    """One row that ``ingest_query_log_counted`` must skip and count."""
    kind = rng.randrange(4)
    if kind == 0:
        return [anon_id, "lost column", stamp, ""]
    if kind == 1:
        return [anon_id, "extra column", stamp, "", "", "junk"]
    if kind == 2:
        return [anon_id, "bad time", "2006-03-xx 10:00:00", "", ""]
    return [anon_id, rng.choice(["?!", "...", "-", "'"]), stamp, "", ""]


def write_aol(
    path,
    seed: int,
    users: int = AOL_USERS,
    searches=AOL_SEARCHES,
    malformed_share: float = AOL_MALFORMED_SHARE,
) -> dict:
    """An AOL-format query log: short per-user histories with repeated queries,
    raw text that needs normalizing, unclicked rows and malformed rows.

    Search counts and query-pool sizes are spread evenly over the users, so
    seeds differ in content, not in size. Returns the user count, the
    data-row count and the malformed-row count.
    """
    rng = random.Random(seed)
    words = bundled_wordlist()
    weights = _zipf_weights(len(words))
    lines = ["\t".join(AOL_COLUMNS)]
    rows = malformed = 0
    low, high = searches
    for i in range(users):
        anon_id = str(1000 + i)
        pool = [
            " ".join(rng.choices(words, weights=weights, k=rng.choice((1, 1, 2, 2, 3))))
            for _ in range(4 + (7 * i) % 17)
        ]
        pool_weights = _zipf_weights(len(pool))
        t = AOL_START + rng.randrange(30 * 86_400)
        for _ in range(low + (high - low) * i // max(1, users - 1)):
            t += rng.randint(1, 7_200)
            stamp = datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
            rows += 1
            if rng.random() < malformed_share:
                malformed += 1
                lines.append("\t".join(_malformed_row(anon_id, stamp, rng)))
                continue
            query = rng.choices(pool, weights=pool_weights)[0]
            roll = rng.random()
            if roll < 0.5:
                rank, url = str(rng.randint(1, 10)), f"http://www.{query.split(' ')[0]}.com"
            elif roll < 0.6:
                rank, url = "", f"http://{query.split(' ')[-1]}.org/"
            else:
                rank, url = "", ""
            lines.append("\t".join([anon_id, _raw_query(query, rng), stamp, rank, url]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"users": users, "rows": rows, "malformed_rows": malformed}


def write_trace(path, seed: int, records: int = TRACE_RECORDS) -> dict:
    """A JSON-lines traffic capture mixing http and https.

    Clients are signed in (SID, NID and secondary crumbs), anonymous (NID
    only) or cookieless. Some signed-in clients use https only, so their SID
    never travels in cleartext. Returns the record counts, the SIDs seen on
    http records and the SIDs seen on http records with the history link.
    """
    rng = random.Random(seed)
    clients = []
    for i in range(max(1, records // TRACE_RECORDS_PER_CLIENT)):
        ip = f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}"
        roll = rng.random()
        crumbs = {}
        if roll < 0.85:
            crumbs["NID"] = f"{i}-{rng.getrandbits(48):012x}"
        if roll < 0.5:
            crumbs["SID"] = f"S{i}-{rng.getrandbits(64):016x}"
            crumbs["HSID"] = f"H{rng.getrandbits(32):08x}"
            if rng.random() < 0.5:
                crumbs["PREF"] = f"ID={rng.getrandbits(32):08x}:TM={rng.randrange(10**9)}"
        https_share = rng.choice((0.0, 0.2, 0.5, 1.0))
        clients.append((ip, crumbs, https_share))
    weights = _zipf_weights(len(clients))

    lines = []
    http_sids, history_sids = set(), set()
    http_records = redacted = 0
    t = 1_262_304_000
    for _ in range(records):
        ip, crumbs, https_share = rng.choices(clients, weights=weights)[0]
        host, page, https_only = rng.choice(TRACE_PAGES)
        scheme = "https" if https_only or rng.random() < https_share else "http"
        t += rng.randint(0, 3)
        headers = {"User-Agent": "Mozilla/5.0"}
        sent = dict(crumbs)
        if scheme == "https" and "SID" in sent:
            sent["SSID"] = "secure-" + sent["SID"]
        if sent:
            pairs = [f"{name}={value}" for name, value in sent.items()]
            if len(pairs) > 2 and rng.random() < 0.2:
                headers["Cookie"] = ["; ".join(pairs[:2]), "; ".join(pairs[2:])]
            else:
                headers["Cookie"] = "; ".join(pairs)
        flags = []
        if "SID" in crumbs and page == "/search" and rng.random() < 0.3:
            flags.append(HISTORY_LINK_FLAG)
        if scheme == "http":
            http_records += 1
            if "SID" in crumbs:
                http_sids.add(crumbs["SID"])
                if flags:
                    history_sids.add(crumbs["SID"])
        elif "Cookie" in headers:
            redacted += 1
        record = {
            "time": t,
            "scheme": scheme.upper() if rng.random() < 0.05 else scheme,
            "client_ip": ip,
            "host": host,
            "path": page + rng.choice(("", "?q=1", "?hl=en")),
            "headers": headers,
            "body_flags": flags,
        }
        lines.append(json.dumps(record, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "records": records,
        "http_records": http_records,
        "redacted_records": redacted,
        "http_sids": sorted(http_sids),
        "history_sids": sorted(history_sids),
    }


# Input file name and writer for each workload.
WRITERS = {
    "eval-synth": ("users.jsonl", write_synthetic),
    "curve-aol": ("queries.tsv", write_aol),
    "audit-trace": ("trace.jsonl", write_trace),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WRITERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input and meta.json")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name, writer = WRITERS[args.workload]
    meta = writer(out / name, args.seed)
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
