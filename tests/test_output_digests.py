"""The outputs of plan, gen, eval, reconstruct and audit, and the recall
curve, pinned byte for byte.

Each case runs the CLI in a temporary directory and compares the SHA-256 of
every file it writes with the table below. A change that means to alter an
output updates that digest and names the file and the reason in
CHANGES.md. Manifests are left out: they hold the input and output paths.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import pytest

import historiographer
from historiographer.attack import AttackConfig
from historiographer.cli import main
from historiographer.harness import AOL_COLUMNS, ingest_query_log_counted, recall_curve
from historiographer.planner import build_plan, bundled_wordlist

FIXTURE = str(resources.files("historiographer.data").joinpath("volunteers.jsonl"))

# case: (arguments, with {plan}, {plan3}, {gen}, {mixed}, {aol} and {trace}
# for the files the inputs fixture writes; {output file suffix: SHA-256})
CASES = {
    "plan-bundled": (
        ["plan", "bundled", "--mass", "0.9"],
        {
            ".json": "122188380d65c45f36c6e513d441a2b6225393a2b5fdf2b768f2e6734dfab194",
            ".stats2.csv": "892b22a81f2730f6a174cda86150a347ecf7aa6f387def89a84df701a4e1fa37",
            ".stats3.csv": "0be2571707b7a05f2b8133620b750176930cbe674da841cf1162a118b5d67c8c",
            ".seeds.txt": "0d3d96ff113289d20b4c33f5fb6eadbbcab87908a05e4dc3f31b2867aea77ae6",
        },
    ),
    "plan-bundled-length-3": (
        ["plan", "bundled", "--length", "3", "--mass", "0.5"],
        {
            ".json": "22485cf265def2d01f03c728e2fae9fc747f7983caa0ca3d19452350aa70f907",
            ".stats3.csv": "0be2571707b7a05f2b8133620b750176930cbe674da841cf1162a118b5d67c8c",
            ".stats4.csv": "b2e7cb5fde34963de9502f5f778af20f5c20c1bf9d7f2216b1726a1aafcefca4",
            ".seeds.txt": "fc4d7b213e864c4731fa2c2345b4f7fae365ed95ea4b90c52e7f8d564522b83f",
        },
    ),
    "gen-20": (
        ["gen", "--users", "20", "--entries", "10:80", "--seed", "7"],
        {".json": "14914eb15810574277fa6c29dda253a92b92d18f244783f9ccfedf8d8c6597ce"},
    ),
    "eval-fixture": (
        ["eval", FIXTURE],
        {
            ".json": "365cce706557ed309a95e03ff648ec5fb9c63409e45cf157237d31d1f73f42f9",
            ".per_user.csv": "bcd727568f1181af696fb0b1e1103e74abb51e494747c09cad08e313489b4868",
        },
    ),
    "eval-fixture-plan-file": (
        ["eval", FIXTURE, "{plan}"],
        {
            ".json": "365cce706557ed309a95e03ff648ec5fb9c63409e45cf157237d31d1f73f42f9",
            ".per_user.csv": "bcd727568f1181af696fb0b1e1103e74abb51e494747c09cad08e313489b4868",
        },
    ),
    "eval-fixture-plan-length-3": (
        ["eval", FIXTURE, "{plan3}"],
        {
            ".json": "fa92828b3f9298f81387bfd6db82d182306b363a60d67e403eb1a573019fa0ed",
            ".per_user.csv": "137ef326c5a3fe4473926cbc93cd6bac9008720e8bbf4ca5807e91ba62d22d4c",
        },
    ),
    "eval-fixture-budget-150": (
        ["eval", FIXTURE, "--budget", "150"],
        {
            ".json": "f72b78de5f3af4575d69ba81368abc0f8992e8baeb258f88e36a519ce1232103",
            ".per_user.csv": "35aed560a12e8c5af5cf55cbad28ea896ec7379669e5bb487ebe5af4e2a5a63b",
        },
    ),
    "eval-gen-20": (
        ["eval", "{gen}"],
        {
            ".json": "5dbb0267075f167ac4afc01b3771b20569de98fae6a8bc2ad72b162efdb60c13",
            ".per_user.csv": "6e35169789d4854ecb8b48b36df37cb7f5c4a436e219d280a394142e728f768e",
        },
    ),
    "reconstruct-fixture-first-user": (
        ["reconstruct", FIXTURE, "{plan}"],
        {
            ".json": "46b5b1957f656ab471a995d3b4e4cdfff6c07fb479de02065153e44db3b4e9d4",
            ".report.csv": "6287b63eb55281d3e20f8f146f0294a89e473d969da7d8523baf5d1dd7bc747c",
        },
    ),
    "reconstruct-fixture-user-budget-200": (
        ["reconstruct", FIXTURE, "{plan}", "--user", "vol07", "--budget", "200"],
        {
            ".json": "0a5ddbdd553aa1777e522fb0c4c97e20a18bb6ae0827b5ef912c24af22f81d12",
            ".report.csv": "c9d1a4a59296eadc7cde1fd913d0d15288178522bccf916b660fb4844c22beb3",
        },
    ),
    "eval-mixed": (
        ["eval", "{mixed}"],
        {
            ".json": "c59444c0ab3778cf7d3dd7420451562990d8e21a19bb6379e221306c79155c1a",
            ".per_user.csv": "8b228efa212905ee458481d5570fbac7fdbb19ff07694129677056a293bee932",
        },
    ),
    "reconstruct-mixed-first-user": (
        ["reconstruct", "{mixed}", "{plan}"],
        {
            ".json": "4f620ab0456ca5a4be5def41a14920634351b42d66eabf5f5c6f062d63de6adf",
            ".report.csv": "fddddaa3a636770bd85d448b39554d4af9f71aea8f16303b23c0bb4d15749d9c",
        },
    ),
    "reconstruct-mixed-repeated-user": (
        ["reconstruct", "{mixed}", "{plan}", "--user", "user0002"],
        {
            ".json": "0c5986192846ddf6a2e98fc72a544ef8f5ca9cda4a71b6e5c8bf533b9a4c43f2",
            ".report.csv": "8a7d6359cd96700bac2240690c77306174ecb092cfe1be84a8f1fd7290d6d07a",
        },
    ),
    "eval-aol": (
        ["eval", "{aol}"],
        {
            ".json": "a5cc36a7531e3af16434c8382ff83bd30e5a020a1c79923751016d98b29043b6",
            ".per_user.csv": "a55323585ae216fa9fbfaf11b1cd55f0ef4125eda69917c25e4550a73fba7509",
        },
    ),
    "audit-trace": (
        ["audit", "{trace}"],
        {
            ".json": "bec8e4c346542cdce1a68d3c2e7d1c5f6796d6a28b81aea819ef3d75495addc2",
            ".services.csv": "a56b4e36b9d200ce70d1f05ce0a7d80cedfff1e973ec68b64beb897e010458fc",
        },
    ),
    "audit-trace-ip-binding": (
        ["audit", "{trace}", "--enforce-ip-binding", "--replay-ip", "10.0.0.1"],
        {
            ".json": "4f2c6cd86044e4655ea97dd09e7368fcab7661baebc0ea9605ee1d729b63ca5f",
            ".services.csv": "95d933471a9a684c9bc83a6aacdc173f50f561c1f436604d68a9b7a19e7092ae",
        },
    ),
}

# json.dumps(recall_curve(...)) at the paper's budgets on the AOL log
CURVE_DIGEST = "b456be64a54ffd667b2dd7cb26485c68b144c9aa85ab989adf2326bfa3174435"

# 2006-03-01 00:00:00 UTC, inside the AOL log period
AOL_START = 1_141_171_200


def write_aol(path, seed=5, users=30):
    """An AOL-format query log: per-user pools of bundled words, raw text
    that normalizes to them, clicked and unclicked rows, and a few malformed
    rows that ingestion skips."""
    rng = random.Random(seed)
    words = bundled_wordlist()
    lines = ["\t".join(AOL_COLUMNS)]
    for i in range(users):
        pool = [" ".join(rng.sample(words, rng.choice((1, 1, 2)))) for _ in range(4 + 7 * i % 20)]
        t = AOL_START + rng.randrange(86_400)
        for _ in range(rng.randint(10, 60)):
            t += rng.randint(1, 3_600)
            stamp = datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
            query = rng.choice(pool)
            raw = query.upper() if rng.random() < 0.2 else query + rng.choice(["", "", "?"])
            roll = rng.random()
            if roll < 0.02:
                lines.append("\t".join([str(100 + i), raw, stamp, ""]))
                continue
            clicked = roll < 0.6
            rank = str(rng.randint(1, 9)) if clicked else ""
            url = f"http://{query.split()[0]}.com" if clicked else ""
            lines.append("\t".join([str(100 + i), raw, stamp, rank, url]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace(path, seed=6, records=300):
    """A JSON-lines capture mixing http and https: signed-in clients (some
    at 10.0.0.1), anonymous ones and cookieless ones, some search pages
    flagged with the history link."""
    rng = random.Random(seed)
    pages = [
        ("www.google.com", "/search"), ("www.google.com", "/history/lookup"),
        ("maps.google.com", "/maps"), ("news.google.com", "/news"),
        ("docs.google.com", "/doc"), ("mail.google.com", "/mail"),
    ]
    clients = []
    for i in range(24):
        crumbs = {}
        roll = rng.random()
        if roll < 0.8:
            crumbs["NID"] = f"n{i}"
        if roll < 0.5:
            crumbs["SID"] = f"s{i}-{rng.getrandbits(32):08x}"
            crumbs["HSID"] = f"h{i}"
        ip = "10.0.0.1" if i % 4 == 0 else f"10.0.1.{i}"
        clients.append((ip, crumbs, rng.choice((0.0, 0.3, 1.0))))
    lines = []
    for t in range(records):
        ip, crumbs, https_share = rng.choice(clients)
        host, page = rng.choice(pages)
        scheme = "https" if rng.random() < https_share else "http"
        headers = {"Cookie": "; ".join(f"{k}={v}" for k, v in crumbs.items())} if crumbs else {}
        linked = "SID" in crumbs and page == "/search" and rng.random() < 0.4
        flags = ["has_history_link"] if linked else []
        record = {
            "time": 1_262_304_000 + t, "scheme": scheme, "client_ip": ip, "host": host,
            "path": page, "headers": headers, "body_flags": flags,
        }
        lines.append(json.dumps(record, sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(tmp):
    """Into the directory tmp, the bundled plan files and a generated
    dataset, written by the CLI; that dataset's lines in reverse user order
    with user0005's history repeated last under the id user0002; a seeded
    AOL log and trace. Their paths by the names CASES uses."""
    paths = {
        "plan": tmp / "plan.json", "plan3": tmp / "plan3.json", "gen": tmp / "gen.jsonl",
        "mixed": tmp / "mixed.jsonl", "aol": tmp / "aol.tsv", "trace": tmp / "trace.jsonl",
    }
    assert main(["plan", "bundled", "--mass", "0.9", "-o", str(paths["plan"])]) == 0
    plan3_args = ["plan", "bundled", "--length", "3", "--mass", "0.5"]
    assert main([*plan3_args, "-o", str(paths["plan3"])]) == 0
    write_aol(paths["aol"])
    write_trace(paths["trace"])
    gen_args = ["gen", "--users", "20", "--entries", "10:80", "--seed", "7"]
    assert main([*gen_args, "-o", str(paths["gen"])]) == 0
    lines = paths["gen"].read_text().splitlines(keepends=True)
    repeated = json.loads(lines[5])
    assert repeated["user_id"] == "user0005"
    repeated["user_id"] = "user0002"
    paths["mixed"].write_text("".join(reversed(lines)) + json.dumps(repeated) + "\n")
    return {name: str(path) for name, path in paths.items()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(tmp_path, inputs, case):
    args, digests = CASES[case]
    out = tmp_path / "out.json"
    assert main([arg.format(**inputs) for arg in args] + ["-o", str(out)]) == 0
    written = {p.name[len("out"):] for p in tmp_path.iterdir()}
    assert written == {*digests, ".manifest.json"}
    assert {suffix: sha256(tmp_path / f"out{suffix}") for suffix in digests} == digests


def test_recall_curve_digest(inputs):
    histories, skipped = ingest_query_log_counted(inputs["aol"])
    assert skipped
    config = AttackConfig(plan=build_plan(bundled_wordlist(), 0.9))
    curve = json.dumps(recall_curve(histories, config, (110, 440, 2000)))
    assert hashlib.sha256(curve.encode()).hexdigest() == CURVE_DIGEST


@pytest.mark.parametrize("case, loads_cookies", [("eval-gen-20", False), ("audit-trace", True)])
def test_only_audit_loads_cookies(tmp_path, inputs, case, loads_cookies):
    """A digest case run by main in a fresh interpreter: eval leaves
    historiographer.cookies unloaded, audit loads it, and each writes the
    bytes its digests pin."""
    args, digests = CASES[case]
    argv = [arg.format(**inputs) for arg in args] + ["-o", str(tmp_path / "out.json")]
    code = (
        "import sys\n"
        "from historiographer.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'historiographer.cookies' in sys.modules)\n"
    )
    src = str(Path(historiographer.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == f"0 {loads_cookies}\n"
    assert {suffix: sha256(tmp_path / f"out{suffix}") for suffix in digests} == digests
