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
        "758529ac3479521db25db8fd119c15734e51223ed8244926fa413839928ddf32",
    ),
    "completeness-hm2-l8": (
        ["completeness", "--scheme", "hm2", "--ell", "8", "--trials", "2000", "--seed", "5"],
        "c00daae67f2467867fe7f791dbf9d2a69763400a10ae4ae9d7140b6831cb85cf",
    ),
    "completeness-hm2-l12-oracle": (
        ["completeness", "--scheme", "hm2", "--ell", "12", "--grid", "oracle",
         "--trials", "300", "--seed", "7"],
        "807d3a48af8520dae8a44b2af31e1d638b28cda6d27e85f186259a4934063e9b",
    ),
    "completeness-const-l6": (
        ["completeness", "--scheme", "const", "--ell", "6", "--epsilon", "0.5",
         "--trials", "1000", "--seed", "2"],
        "b920cee9b5b47f192a4f1c3eb0f0dbfd57a8a5f70821ced86442ba0cbf80be12",
    ),
    "soundness-classical-honest-hm2-l6": (
        ["soundness", "--scheme", "hm2", "--ell", "6", "--a", "3", "--trials", "400",
         "--seed", "2", "--prover", "classical-honest", "--r-grid", "4"],
        "3c07d4f00fe3920845ea415fe3d60cc82f9faac24f30e9660d6dfff759473d15",
    ),
    "soundness-classical-honest-ident-l5": (
        ["soundness", "--scheme", "ident", "--ell", "5", "--epsilon", "0.5", "--trials", "400",
         "--seed", "4", "--prover", "classical-honest", "--r-grid", "4"],
        "6a0b582db81669925cb5c265c9720daa615c4aa7e7a1fe8f6470334995ba735f",
    ),
    "soundness-unbounded-claw-hm2-l6": (
        ["soundness", "--scheme", "hm2", "--ell", "6", "--a", "3", "--trials", "200",
         "--seed", "3", "--prover", "unbounded-claw", "--r-grid", "4"],
        "1e05d5a69d13717a2f4cfd46314f57a0d495d8438d169684c8ba1d178ffcc0ea",
    ),
    "soundness-unbounded-claw-const-l5": (
        ["soundness", "--scheme", "const", "--ell", "5", "--epsilon", "0.5", "--trials", "200",
         "--seed", "6", "--prover", "unbounded-claw", "--r-grid", "4"],
        "59733205bd55acd5361b7f835772cbb64b84123d576ce5e80be7a5dd97508011",
    ),
    "reduce-const-l5": (
        ["reduce", "--scheme", "const", "--ell", "5", "--epsilon", "0.5",
         "--trials", "10", "--seed", "0"],
        "f2b0550f6526c30753e1aa0f97e6ac0c0684fd3ae276cbdef0bf5f4ac74ac378",
    ),
    "reduce-hm2-l7": (
        ["reduce", "--scheme", "hm2", "--ell", "7", "--a", "3", "--epsilon", "0.5",
         "--trials", "5", "--seed", "1"],
        "be93ad8c82ae3e632cd9206812efc78d8701fd6a0e452a1d3c7c9015271840cd",
    ),
    "lemmas-hm2-l6": (
        ["lemmas", "--scheme", "hm2", "--ell", "6", "--a", "3", "--trials", "250", "--seed", "1"],
        "fd6ff900371df55b0dbcf8e06da7aa0e379a5192f0c13a4cfd1a438e1b045282",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_stdout_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
