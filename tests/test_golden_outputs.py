"""Seeded CLI outputs pinned by the SHA-256 of their stdout.

Every subcommand derives its randomness from --seed, so each call below
prints the same bytes on every run.  A change that moves any of these
digests changes a seeded output: update the digest and say so in
CHANGES.md.
"""

import hashlib

import pytest

from ivpoq.cli import main

GOLDEN = {
    "run-hm2-l8": (
        ["run", "--scheme", "hm2", "--ell", "8", "--seed", "3"],
        "87859a814a0345cea6992b1076adf09e31597da033f410e8e1c215d04f7b4535",
    ),
    "completeness-hm2-l8": (
        ["completeness", "--scheme", "hm2", "--ell", "8", "--trials", "2000", "--seed", "5"],
        "e11790ef88649d34993ea09631e2895683604ad2fb6bd2ca097c35a6ee695a9c",
    ),
    "completeness-hm2-l12-oracle": (
        ["completeness", "--scheme", "hm2", "--ell", "12", "--grid", "oracle",
         "--trials", "300", "--seed", "7"],
        "515cf57234e71abf6a5656592f4b3cacf2c95ac0a9ee44e6fd5360ccf1211aad",
    ),
    "completeness-const-l6": (
        ["completeness", "--scheme", "const", "--ell", "6", "--epsilon", "0.5",
         "--trials", "1000", "--seed", "2"],
        "e668a7a44a9d141390b1599373a2aa68ba9e7355b565b984c4dec560053bc841",
    ),
    "completeness-ident-l6": (
        ["completeness", "--scheme", "ident", "--ell", "6", "--epsilon", "0.5",
         "--trials", "1000", "--seed", "2"],
        "4e74eb9e26391853b9085791c4609d0f444a44e836544ca232dad722f7943385",
    ),
    "run-ident-l6": (
        ["run", "--scheme", "ident", "--ell", "6", "--epsilon", "0.5", "--seed", "2"],
        "6197cf43ccf1818102a022468a04b8a353cf0de61c4552e9f3fcc55eff88cb01",
    ),
    "soundness-classical-honest-hm2-l6": (
        ["soundness", "--scheme", "hm2", "--ell", "6", "--a", "3", "--trials", "400",
         "--seed", "2", "--prover", "classical-honest", "--r-grid", "4"],
        "52df39cc5244aa68d0c3a6c30b2c9b3fcdf2695d697123f915c2daefb0409f20",
    ),
    "soundness-classical-honest-ident-l5": (
        ["soundness", "--scheme", "ident", "--ell", "5", "--epsilon", "0.5", "--trials", "400",
         "--seed", "4", "--prover", "classical-honest", "--r-grid", "4"],
        "b8fda8d025fb47af553a3c0399c8711b63dd94b05be72930dfb55f793f03100f",
    ),
    "soundness-unbounded-claw-hm2-l6": (
        ["soundness", "--scheme", "hm2", "--ell", "6", "--a", "3", "--trials", "200",
         "--seed", "3", "--prover", "unbounded-claw", "--r-grid", "4"],
        "aea989747686ae90ca9ca713c0ee08296773f365f689b7f077d3745196cd4c2c",
    ),
    "soundness-unbounded-claw-const-l5": (
        ["soundness", "--scheme", "const", "--ell", "5", "--epsilon", "0.5", "--trials", "200",
         "--seed", "6", "--prover", "unbounded-claw", "--r-grid", "4"],
        "2b2ed49a2fdb2f710ca24a7f8d6a04e86de9541b55699da373311bdd7efdd97d",
    ),
    "reduce-const-l5": (
        ["reduce", "--scheme", "const", "--ell", "5", "--epsilon", "0.5",
         "--trials", "10", "--seed", "0"],
        "f4d2e8008de14098613a80a6ab1358a745235874f384f9cedc04ba4004f38fe7",
    ),
    "reduce-hm2-l7": (
        ["reduce", "--scheme", "hm2", "--ell", "7", "--a", "3", "--epsilon", "0.5",
         "--trials", "5", "--seed", "1"],
        "63b5f8e16687be1b9e55ff207caf06a9b44a4c9e99f78e5f3db505fa3267c607",
    ),
    "lemmas-hm2-l6": (
        ["lemmas", "--scheme", "hm2", "--ell", "6", "--a", "3", "--trials", "250", "--seed", "1"],
        "ea7feab2881921d89e313e99e93b738ba8faafe8320fc420170776dca06e0072",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_stdout_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
