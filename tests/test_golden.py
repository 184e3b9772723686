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
        "9d7d681542b8cf5c6080059ac242ecffb3d4762f7309f04805648ae81122bce1",
        EMPTY,
    ),
    "sweep-two-user-sum": (
        ["sweep", "--mode", "two-user-sum", "--seed", "42"],
        0,
        "1ef8257f17002183a981eafce4f4aaf4877bbabec95461901513b50f8c3aece7",
        EMPTY,
    ),
    "sweep-four-user-cases": (
        ["sweep", "--mode", "four-user-cases", "--seed", "42"],
        0,
        "6681b5debb95ef613e9b8ae17e3d71ec932cb15e9a41831ba4b3e9d7cb3e1aa0",
        EMPTY,
    ),
    "sweep-m-user-group": (
        ["sweep", "--mode", "m-user-group", "--seed", "42"],
        0,
        "638c6529ff4325dc05cc0d79197896ff0c59725a19719f9a656b5c2885ad44ca",
        EMPTY,
    ),
    "sweep-two-user-rates-fine-json": (
        ["sweep", "--mode", "two-user-rates", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "a5b5bfb0bf7063f02533097f25a24e874fda3d2d690b09fa7c3f5f481fd4cccb",
        EMPTY,
    ),
    "sweep-two-user-sum-fine-json": (
        ["sweep", "--mode", "two-user-sum", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "24007ddad3a85e0a57c7d96548ccd304e0b0908d712837b0de282d9e2b009f3e",
        EMPTY,
    ),
    "sweep-four-user-cases-fine-json": (
        ["sweep", "--mode", "four-user-cases", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "34833f1ed4898a1e05d797c1c6a05faf0d781dc3ac27b8bbcfd2e9b8a6ed03e0",
        EMPTY,
    ),
    "sweep-m-user-group-fine-json": (
        ["sweep", "--mode", "m-user-group", *FINE_GRID, "--seed", "7", "--format", "json"],
        0,
        "82e27328f9b61a00ae201f63f08ec921f015ead7b704c27583d5e7d79b351b4a",
        EMPTY,
    ),
    "sweep-group-32-json": (
        ["sweep", "--mode", "m-user-group", "--users", "32", "--snr-start", "-10",
         "--snr-stop", "30", "--snr-step", "0.25", "--trials", "500", "--seed", "11",
         "--format", "json"],
        0,
        "ad04b5146f76589c272a61d588e43e40d57701339f5ab4ab63f6744ba7ca8339",
        EMPTY,
    ),
    "sweep-group-3": (
        ["sweep", "--mode", "m-user-group", "--users", "3", "--trials", "2000", "--seed", "42"],
        0,
        "9c021ca7192ddd08896b4213a5ea4e565fc9548713336bfb6dc7c802fd02dfc8",
        EMPTY,
    ),
    "sweep-four-user-cases-31-points": (
        ["sweep", "--mode", "four-user-cases", "--snr-start", "-30", "--snr-stop", "60",
         "--snr-step", "3"],
        0,
        "192f85bb8d4e59632b235ca3dc6243c02b78351374268ec1fb9359f1adfe6557",
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
    "pair-oracle-12-network": (
        ["pair", "--gains", *TWELVE, "--snr-db", "10", "--oracle", "--oma-baseline", "network"],
        0,
        "462012da43d63d17394f36ab3badc90688802cb4238938237954766f14a19128",
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
        "b1443662fcfbe3d56acff477173eb1893d077d253f1cfaac9c58bbf91db880d7",
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
        "9bfd8fb489de7321935af79138288db0b8efab329e0f61f109055db7a4361aa9",
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
