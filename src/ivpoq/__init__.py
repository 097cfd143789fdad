"""Desk-scale lab for a two-phase proof-of-quantumness protocol.

The protocol commits to a superposition of both branches of a classical
bit commitment, shrinks the surviving seed sets to a claw with a
pairwise-independent hash pair, and runs a preimage/measurement
challenge whose honest conditional acceptance is 1/2 + cos^2(pi/8)/2.
The second-phase decider is unbounded (brute force here) and every
measurement is sampled from its exact distribution: from integer counts
wherever its probabilities are rational.

The package namespace holds only the four names the benchmark imports;
everything else is imported from its module.
"""

from .adversaries import unbounded_claw_prover
from .coherent_prover import HonestProver
from .commitment import make_scheme
from .verifier import ProtocolParams

__all__ = ["HonestProver", "ProtocolParams", "make_scheme", "unbounded_claw_prover"]
