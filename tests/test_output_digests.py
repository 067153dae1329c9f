"""The outputs of plan, gen, eval and reconstruct, pinned byte for byte.

Each case runs the CLI in a temporary directory and compares the SHA-256 of
every file it writes with the table below. A change that means to alter an
output updates that digest and names the file and the reason in
CHANGES.md. Manifests are left out: they hold the input and output paths.
"""

import hashlib
import json
from importlib import resources

import pytest

from historiographer.cli import main

FIXTURE = str(resources.files("historiographer.data").joinpath("volunteers.jsonl"))

# case: (arguments, with {plan}, {gen} and {mixed} for the files the inputs
# fixture writes; {output file suffix: SHA-256})
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
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The bundled plan file and a generated dataset, written by the CLI,
    and that dataset's lines in reverse user order with user0005's history
    repeated last under the id user0002."""
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {"plan": tmp / "plan.json", "gen": tmp / "gen.jsonl", "mixed": tmp / "mixed.jsonl"}
    assert main(["plan", "bundled", "--mass", "0.9", "-o", str(paths["plan"])]) == 0
    gen_args = ["gen", "--users", "20", "--entries", "10:80", "--seed", "7"]
    assert main([*gen_args, "-o", str(paths["gen"])]) == 0
    lines = paths["gen"].read_text().splitlines(keepends=True)
    repeated = json.loads(lines[5])
    assert repeated["user_id"] == "user0005"
    repeated["user_id"] = "user0002"
    paths["mixed"].write_text("".join(reversed(lines)) + json.dumps(repeated) + "\n")
    return {name: str(path) for name, path in paths.items()}


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
