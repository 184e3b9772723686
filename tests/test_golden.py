"""Byte identity of the command line: the exit code, stdout and stderr of
fixed commands, pinned by sha256. A change that moves one of these outputs
on purpose updates its digests and says why in CHANGES.md.

The digests hold for the numpy and scipy versions pinned in the CI install
step."""

import hashlib

import pytest

from uplink_noma.cli import main

TWELVE = "0.31 1.7 0.05 2.2 0.9 0.44 3.1 1.05 0.62 0.2 1.3 4.4".split()
FINE_GRID = ("--snr-start", "-12", "--snr-stop", "30", "--snr-step", "1.5", "--trials", "1000")
EMPTY = hashlib.sha256(b"").hexdigest()  # no output at all
BAD_BASELINE = "gains = 0.3 0.8 2.0 5.0\nsnr_db = 10\noracle = true\noma_baseline = half\n"

# id: (argv, exit code, sha256 of stdout, sha256 of stderr); "{config}" in
# argv is replaced by the path of a file holding BAD_BASELINE. The tests run
# in a fresh directory where that path is pair.cfg, so an error naming the
# file reads the same on every run.
GOLDEN = {
    "sweep-two-user-rates": (
        ["sweep", "--mode", "two-user-rates", "--seed", "42"],
        0,
        "7c5736ac17bb924b50a0382006117a1d194021eeb1eca2c9677f7d3a643e9434",
        EMPTY,
    ),
    "sweep-two-user-sum": (
        ["sweep", "--mode", "two-user-sum", "--seed", "42"],
        0,
        "c5d8ca751fcbde7023c49f6cbe3e6f5851f379c0d885742ef7d661a3dcb21690",
        EMPTY,
    ),
    "sweep-four-user-cases": (
        ["sweep", "--mode", "four-user-cases", "--seed", "42"],
        0,
        "2549a59ce1ec2fd0e91acd3e37ad6d51462974a5c366bffd0208644ec7f933bf",
        EMPTY,
    ),
    "sweep-m-user-group": (
        ["sweep", "--mode", "m-user-group", "--seed", "42"],
        0,
        "72b0f133464fed63a83bca0f9f3d9448cd1dceee1117d37dd00dba72c8a5363c",
        EMPTY,
    ),
    "sweep-two-user-rates-fine-json": (
        ["sweep", "--mode", "two-user-rates", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "6fb84a8e2b4208fa3a6b378471a2c1960fcdfe428f2f80d8de94a354957a598a",
        EMPTY,
    ),
    "sweep-two-user-sum-fine-json": (
        ["sweep", "--mode", "two-user-sum", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "59f7ed8b78bef1ceb9b70bbaab39d8c12db006d7dbf0ba167067b0cd77742f14",
        EMPTY,
    ),
    "sweep-four-user-cases-fine-json": (
        ["sweep", "--mode", "four-user-cases", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "037153deb85b47c52dbe8b326a663fa48bfffb471e3a36859a4cfb7f9a6734d5",
        EMPTY,
    ),
    "sweep-m-user-group-fine-json": (
        ["sweep", "--mode", "m-user-group", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "7b0a73335c1d0f913bfc6d353738bc1bc1e9768dac9c45b1fa5ad86fb05b9407",
        EMPTY,
    ),
    "sweep-group-32-json": (
        ["sweep", "--mode", "m-user-group", "--users", "32", "--snr-start", "-10",
         "--snr-stop", "30", "--snr-step", "0.25", "--trials", "500", "--seed", "11",
         "--format", "json"],
        0,
        "15e564feb3d5ca4922470dbc6451d8f26253e37874508f46f62f6abb86edd157",
        EMPTY,
    ),
    "sweep-group-3": (
        ["sweep", "--mode", "m-user-group", "--users", "3", "--trials", "2000", "--seed", "42"],
        0,
        "2cce28846de464edae38d43319bdc21efc352a553cfe7386680572a8d614dbdc",
        EMPTY,
    ),
    "sweep-four-user-cases-31-points": (
        ["sweep", "--mode", "four-user-cases", "--snr-start", "-30", "--snr-stop", "60",
         "--snr-step", "3"],
        0,
        "2bdffaa9f36426fb25fa476ba4dfa17775bf6b76646171c44ed1553d876a32d8",
        EMPTY,
    ),
    "pair-oracle-12": (
        ["pair", "--gains", *TWELVE, "--snr-db", "10", "--oracle"],
        0,
        "462012da43d63d17394f36ab3badc90688802cb4238938237954766f14a19128",
        EMPTY,
    ),
    "pair-oracle-12-json": (
        ["pair", "--gains", *TWELVE, "--snr-db", "10", "--oracle", "--format", "json"],
        0,
        "433595b255d243e939a1d5932d8ee02846040150dcadcc11ecc27d6fef8ee7ba",
        EMPTY,
    ),
    "pair-near-far-12": (
        ["pair", "--gains", *TWELVE, "--snr-db", "10"],
        0,
        "1bf50c6cf1f41c7bb48b90039c1bde5cb5277d71246423996513bae48a01d80e",
        EMPTY,
    ),
    "pair-oracle-14-cap": (
        ["pair", "--gains", *TWELVE, "2.7", "0.12", "--snr-db", "10", "--oracle"],
        2,
        EMPTY,
        "92d4226a6783a234c71b0628a60551d5c99d3cb1a31316cbdcee070eee7091fc",
    ),
    "pair-oracle-4-json": (
        ["pair", "--gains", "0.3", "0.8", "2.0", "5.0", "--snr-db", "10", "--oracle",
         "--format", "json"],
        0,
        "d8868218067aa6b15434ecf1d30fd95feb30c8ea931dab3b79ef86f067040d99",
        EMPTY,
    ),
    "pair-oracle-6-ties": (
        ["pair", "--gains", "1", "1", "1", "1", "1", "1", "--snr-db", "10", "--oracle"],
        0,
        "755e6f5fa9d7d91059204969b61c9422a6cfe80e3c12dab25791d1080c5a125a",
        EMPTY,
    ),
    "pair-oracle-400-db": (
        ["pair", "--gains", "1", "2", "3", "4", "--snr-db", "400", "--oracle"],
        0,
        "2fc90889dac0a31880610712fb399f8c693cd5dac8ecd521c40188360f8f08b5",
        EMPTY,
    ),
    "pair-oracle-8-pair-ties": (
        ["pair", "--gains", "1", "1", "2", "2", "3", "3", "4", "4", "--snr-db", "10", "--oracle"],
        0,
        "a8af924f14e6f96dac237a32d0c1e5bd91469832cca6aaa86050d20c91db72e8",
        EMPTY,
    ),
    "pair-oracle-12-equal-json": (
        ["pair", "--gains", *["1"] * 12, "--snr-db", "10", "--oracle", "--format", "json"],
        0,
        "ace9afac4a20031fed77b1620b515d061df5b829d81837081f29f5259af7159a",
        EMPTY,
    ),
    "pair-bad-baseline-config": (
        ["pair", "--config", "{config}"],
        2,
        EMPTY,
        "c5af0dbe54b08e80154bea4ce4dfd7e21703b41142a052f4e7bd302d7f70da9c",
    ),
    "alloc-5": (
        ["alloc", "--snr-db", "10", "--g1", "0.3", "--m", "5"],
        0,
        "5f001d1234ec70e0a1ea121a89b4e19d2b7f66a63b911a1c5dc5fb0806fc3be6",
        EMPTY,
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_golden(argv, config_path, capsys):
    """(exit code, stdout digest, stderr digest) of one command."""
    code = main([str(config_path) if arg == "{config}" else arg for arg in argv])
    captured = capsys.readouterr()
    return code, _sha256(captured.out), _sha256(captured.err)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_is_pinned(name, tmp_path, monkeypatch, capsys):
    argv, code, out_digest, err_digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair.cfg").write_text(BAD_BASELINE, encoding="utf-8")
    assert run_golden(argv, "pair.cfg", capsys) == (code, out_digest, err_digest)
