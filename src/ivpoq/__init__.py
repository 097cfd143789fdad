"""Desk-scale lab for a two-phase proof-of-quantumness protocol.

The protocol commits to a superposition of both branches of a classical
bit commitment, shrinks the surviving seed sets to a claw with a
pairwise-independent hash pair, and runs a preimage/measurement
challenge whose honest conditional acceptance is 1/2 + cos^2(pi/8)/2.
The second-phase decider is unbounded (brute force here) and every
measurement is sampled from its exact distribution: from integer counts
wherever its probabilities are rational.
"""

from .amplification import (
    RepetitionPlan,
    hoeffding_tail,
    required_N,
    run_sequential,
)
from .adversaries import (
    binding_attack,
    ClassicalHonestProver,
    goldreich_levin,
    predict_claw_parity,
    PredictionOracle,
    unbounded_claw_prover,
)
from .coherent_prover import (
    HONEST_UNIQUE_RATE,
    HonestProver,
    SupportState,
    answer_v0,
    measure_hash,
    measure_rotated,
    run_coherent_commit,
    sample_d,
)
from .commitment import (
    CommitScheme,
    hiding_distance,
    make_scheme,
)
from .hashing import (
    AFFINE_MOD_PRIME,
    HashFn,
    pairwise_bias_bound,
    sample_hash,
)
from .lemma_harness import (
    LemmaReport,
    check_branch_balance,
    check_hash_lemmas,
    check_transcript_identity,
    check_unique_claw_prob,
    find_grid_index,
)
from .verifier import (
    ProtocolParams,
    SessionRecord,
    count_consistent_preimages,
    estimate_acceptance,
    run_session,
    v2_decide,
)

__all__ = [name for name in dir() if not name.startswith("_")]
