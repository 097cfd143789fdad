"""Experiment runner: one reproducible entry point over all modules.

Every subcommand takes only the flags it reads (_COMMANDS lists them),
resolves a config (flags override an optional key=value file whose keys
are flag names), derives all randomness from --seed, and emits JSON or
CSV with the resolved config embedded.  Identical (config, seed) pairs
produce byte-identical output.

Exit codes: 0 ok, 1 usage error, 2 a lemma or criterion check reported
a violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import adversaries
from .bits import check_ell, parity_u32
from .commitment import CommitScheme, make_scheme
from .coherent_prover import HonestProver
from .verifier import (
    GRID_ORACLE,
    GRID_UNIFORM,
    ProtocolParams,
    decide_block,
    estimate_acceptance,
    run_block,
)


def _count(text: str) -> int:
    """A count flag's value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """The --seed value: a non-negative integer, as numpy's SeedSequence needs."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# Every flag, by name; each subcommand takes the ones _COMMANDS lists.
_FLAGS = {
    "scheme": dict(choices=["hm2", "ident", "const"], default="hm2"),
    "ell": dict(type=int, default=12),
    "a": dict(type=int, default=None, help="hm2 hiding parameter (default ell/2 capped at 8)"),
    "epsilon": dict(type=float, default=0.01),
    "grid": dict(choices=[GRID_UNIFORM, GRID_ORACLE], default=GRID_UNIFORM),
    "trials": dict(type=_count, default=1000),
    "workers": dict(type=_count, default=1),
    "format": dict(choices=["json", "csv"], default="json"),
    "prover": dict(choices=["classical-honest", "unbounded-claw"], default="classical-honest"),
    "r-grid": dict(type=_count, default=16),
    "margin": dict(type=float, default=0.02),
    "c": dict(type=float, default=0.93),
    "s": dict(type=float, default=0.875),
    "lambda": dict(dest="lam", type=int, default=40),
    "advantage": dict(type=float, default=0.25),
    "confidence": dict(type=float, default=0.05),
    "seed": dict(type=_seed, default=0),
    "out": dict(type=str, default=None),
    "config": dict(type=str, default=None, help="key=value file; flags win"),
}
# The flags that set up a protocol run.
_PROTOCOL = ("scheme", "ell", "a", "epsilon", "grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivpoq",
        description="Exact-distribution lab for a commitment-based proof-of-quantumness protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag in flags + ("seed", "out", "config"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """A config file's key=value lines as --key=value flags."""
    try:
        with open(path) as fh:
            lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    except OSError as exc:
        parser.error(f"bad config file: {exc}")
    return [f"--{line}" for line in lines]


def _make_scheme(args) -> CommitScheme:
    kwargs = {}
    if args.scheme == "hm2":
        kwargs["a"] = args.a if args.a is not None else min(8, max(1, args.ell // 2))
    elif args.a is not None:
        raise ValueError("--a applies to --scheme hm2 only")
    return make_scheme(args.scheme, args.ell, **kwargs)


def _make_params(args) -> ProtocolParams:
    return ProtocolParams(scheme=_make_scheme(args), epsilon=args.epsilon, grid_mode=args.grid)


def _resolved_config(args) -> dict:
    skip = {"config", "out", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, payload: dict, csv_rows: list[dict] | None = None) -> None:
    if csv_rows is not None and args.format == "csv":
        buf = io.StringIO()
        config = _resolved_config(args)
        fields = list(csv_rows[0]) + sorted(set(config) - set(csv_rows[0]))
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({**config, **row})
        text = buf.getvalue()
    else:
        text = json.dumps(
            {"config": _resolved_config(args), "result": payload},
            sort_keys=True,
            indent=2,
            allow_nan=False,  # NaN is not JSON: a ValueError, so exit 1
        ) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    """run one session end to end and print its record"""
    params = _make_params(args)
    # Session 0 of seed args.seed: run_session's record on default_rng([args.seed, 0]).
    block = run_block(params, HonestProver(params.scheme), args.seed, 0, 1)
    record = block.records()[0]
    record.verdict, record.verdict_reason = decide_block(params, block)[0]
    _emit(args, {"record": record.to_json_dict()})
    return 0


def cmd_completeness(args) -> int:
    """estimate the honest prover's acceptance rate"""
    params = _make_params(args)
    prover = HonestProver(params.scheme)
    report = estimate_acceptance(params, prover, args.trials, args.seed, args.workers)
    _emit(args, report.to_json_dict(), [report.csv_row(params, "honest")])
    return 0


def cmd_soundness(args) -> int:
    """estimate a cheating prover's acceptance rate and per-randomness profile"""
    from . import amplification
    params = _make_params(args)
    if args.prover == "classical-honest":
        factory = lambda r: adversaries.ClassicalHonestProver(
            params.scheme, 0, int.from_bytes(r, "big") % (1 << params.ell)
        )
    else:
        factory = lambda r: adversaries.UnboundedClawProver(params.scheme, r)
    prover = factory(b"\x00")
    report = estimate_acceptance(params, prover, args.trials, args.seed, args.workers)
    profile = amplification.per_randomness_profile(
        params,
        factory,
        n_r=args.r_grid,
        trials=max(1, args.trials // args.r_grid),
        threshold=args.s + args.margin,
        seed=args.seed,
    )
    payload = {"acceptance": report.to_json_dict(), "per_randomness": profile}
    _emit(args, payload, [report.csv_row(params, args.prover)])
    return 0


def cmd_lemmas(args) -> int:
    """run the lemma harness"""
    from . import lemma_harness
    if not 0 < args.epsilon < 1:  # ProtocolParams checks it for the other commands
        raise ValueError("epsilon must lie in (0, 1)")
    rng = np.random.default_rng([args.seed, 1])
    scheme = _make_scheme(args)
    reports = [
        lemma_harness.check_hash_lemmas(),
        lemma_harness.check_unique_claw_prob(8, args.epsilon, min(args.trials, 4000), rng),
        lemma_harness.check_branch_balance(scheme, min(args.trials, 400), max(args.epsilon, 0.5), rng),
    ]
    if args.ell <= 6:
        reports.append(lemma_harness.check_transcript_identity(scheme))
    payload = {"reports": [r.to_json_dict() for r in reports]}
    _emit(args, payload)
    for r in reports:
        line = f"{r.lemma}: {r.verdict}"
        print(line, file=sys.stderr)
    return 2 if any(not r.ok for r in reports) else 0


def cmd_reduce(args) -> int:
    """run the binding attack repeatedly"""
    params = _make_params(args)
    prover = adversaries.UnboundedClawProver(params.scheme)
    successes = 0
    queries = 0
    for i in range(args.trials):
        rng = np.random.default_rng([args.seed, i])
        result = adversaries.binding_attack(params, prover, rng)
        successes += result.success
        queries += result.gl_queries
    payload = {
        "scheme": params.scheme.name,
        "ell": params.ell,
        "trials": args.trials,
        "success_rate": successes / args.trials,
        "mean_gl_queries": queries / args.trials,
        "seed": args.seed,
    }
    _emit(args, payload, [payload])
    return 0


def cmd_amplify(args) -> int:
    """sequential-repetition separation experiment"""
    from . import amplification
    plan = amplification.RepetitionPlan(c=args.c, s=args.s, lam=args.lam)
    report = amplification.separation_experiment(plan, args.trials, args.seed)
    _emit(args, report.to_json_dict(), [report.to_json_dict()])
    return 0


def cmd_gl(args) -> int:
    """list-decoding experiment against a synthetic noisy oracle"""
    rng = np.random.default_rng([args.seed, 2])
    ell = args.ell
    check_ell(ell)  # before the 2^ell noise table
    hits = 0
    for _ in range(args.trials):
        planted = int(rng.integers(1 << ell))
        oracle = _noisy_parity_oracle(planted, ell, args.advantage, rng)
        out = adversaries.goldreich_levin(oracle, ell, args.advantage, args.confidence, rng)
        hits += planted in out
    payload = {
        "ell": ell,
        "advantage": args.advantage,
        "trials": args.trials,
        "recovered": hits,
        "rate": hits / args.trials,
        "seed": args.seed,
    }
    _emit(args, payload, [payload])
    return 0


def _noisy_parity_oracle(planted, ell, advantage, rng) -> adversaries.PredictionOracle:
    n = 1 << ell
    wrong = np.zeros(n, dtype=bool)
    n_wrong = round((0.5 - advantage) * n)
    wrong[rng.permutation(n)[:n_wrong]] = True
    return adversaries.PredictionOracle(fn=lambda xis: parity_u32(planted & xis) ^ wrong[xis])


# name: (handler, whose docstring is its help, the flags it reads besides
# --seed, --out and --config)
_COMMANDS = {
    "run": (cmd_run, _PROTOCOL),
    "completeness": (cmd_completeness, _PROTOCOL + ("trials", "workers", "format")),
    "soundness": (
        cmd_soundness,
        _PROTOCOL + ("trials", "workers", "s", "prover", "r-grid", "margin", "format"),
    ),
    "lemmas": (cmd_lemmas, ("scheme", "ell", "a", "epsilon", "trials")),
    "reduce": (cmd_reduce, _PROTOCOL + ("trials", "format")),
    "amplify": (cmd_amplify, ("c", "s", "lambda", "trials", "format")),
    "gl": (cmd_gl, ("ell", "advantage", "confidence", "trials", "format")),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # The top-level parser takes no flags, so argv[0] is the command;
            # the file's flags go before the command line's, which win.
            args = parser.parse_args(argv[:1] + _config_flags(args.config, parser) + argv[1:])
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
