"""Experiment runner: one reproducible entry point over all modules.

Every subcommand resolves a config (flags override an optional
key=value file), derives all randomness from --seed, and emits JSON or
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

from . import adversaries, amplification, lemma_harness
from .commitment import make_scheme
from .coherent_prover import HonestProver
from .verifier import (
    GRID_ORACLE,
    GRID_UNIFORM,
    ProtocolParams,
    estimate_acceptance,
    run_session,
    v2_decide,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=["hm2", "ident", "const"], default="hm2")
    p.add_argument("--ell", type=int, default=12)
    p.add_argument("--a", type=int, default=None, help="hm2 hiding parameter (default ell/2 capped at 8)")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--grid", choices=[GRID_UNIFORM, GRID_ORACLE], default=GRID_UNIFORM)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=int, default=40)
    p.add_argument("--c", type=float, default=0.93)
    p.add_argument("--s", type=float, default=0.875)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--config", type=str, default=None, help="key=value file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivpoq",
        description="Exact-distribution lab for a commitment-based proof-of-quantumness protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, description in [
        ("run", "run one session end to end and print its record"),
        ("completeness", "estimate the honest prover's acceptance rate"),
        ("soundness", "estimate a cheating prover's acceptance rate and per-randomness profile"),
        ("lemmas", "run the lemma harness"),
        ("reduce", "run the binding attack repeatedly"),
        ("amplify", "sequential-repetition separation experiment"),
        ("gl", "list-decoding experiment against a synthetic noisy oracle"),
    ]:
        p = sub.add_parser(name, help=description)
        _add_common(p)
        if name == "soundness":
            p.add_argument(
                "--prover",
                choices=["classical-honest", "unbounded-claw"],
                default="classical-honest",
            )
            p.add_argument("--r-grid", type=int, default=16)
            p.add_argument("--margin", type=float, default=0.02)
        if name == "gl":
            p.add_argument("--advantage", type=float, default=0.25)
            p.add_argument("--confidence", type=float, default=0.05)
    return parser


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            pairs = dict(
                line.strip().split("=", 1)
                for line in fh
                if line.strip() and not line.startswith("#")
            )
    except (OSError, ValueError) as exc:
        parser.error(f"bad config file: {exc}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    for key, raw in pairs.items():
        dest = key.replace("-", "_")
        if dest == "lambda":
            dest = "lam"
        action = actions.get(dest)
        if action is None or not hasattr(args, dest):
            parser.error(f"unknown config key {key!r}")
        if getattr(args, dest) == action.default:
            cast = action.type or str
            try:
                setattr(args, dest, cast(raw))
            except ValueError as exc:
                parser.error(f"bad config value for {key!r}: {exc}")


def _make_params(args) -> ProtocolParams:
    kwargs = {}
    if args.scheme == "hm2":
        kwargs["a"] = args.a if args.a is not None else min(8, max(1, args.ell // 2))
    scheme = make_scheme(args.scheme, args.ell, **kwargs)
    return ProtocolParams(scheme=scheme, epsilon=args.epsilon, grid_mode=args.grid)


def _resolved_config(args) -> dict:
    skip = {"config", "out", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, payload: dict, csv_rows: list[dict] | None = None) -> None:
    if args.format == "csv" and csv_rows is not None:
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
        ) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    params = _make_params(args)
    prover = HonestProver(params.scheme)
    rng = np.random.default_rng([args.seed, 0])
    record = run_session(params, prover, rng)
    record.verdict, record.verdict_reason = v2_decide(params, record)
    _emit(args, {"record": record.to_json_dict()})
    return 0


def cmd_completeness(args) -> int:
    params = _make_params(args)
    prover = HonestProver(params.scheme)
    report = estimate_acceptance(params, prover, args.trials, args.seed, args.workers)
    _emit(args, report.to_json_dict(), [report.csv_row(params, "honest")])
    return 0


def cmd_soundness(args) -> int:
    params = _make_params(args)
    if args.prover == "classical-honest":
        factory = lambda r: adversaries.ClassicalHonestProver(
            params.scheme, 0, int.from_bytes(r, "big") % (1 << params.ell)
        )
    else:
        factory = lambda r: adversaries.unbounded_claw_prover(params.scheme, r)
    prover = factory(b"\x00")
    report = estimate_acceptance(params, prover, args.trials, args.seed, args.workers)
    profile = amplification.per_randomness_profile(
        params,
        factory,
        n_r=args.r_grid,
        trials=max(1, args.trials // max(1, args.r_grid)),
        threshold=args.s + args.margin,
        seed=args.seed,
    )
    payload = {"acceptance": report.to_json_dict(), "per_randomness": profile}
    _emit(args, payload, [report.csv_row(params, args.prover)])
    return 0


def cmd_lemmas(args) -> int:
    rng = np.random.default_rng([args.seed, 1])
    scheme = _make_params(args).scheme
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
    params = _make_params(args)
    prover = adversaries.unbounded_claw_prover(params.scheme)
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
    plan = amplification.RepetitionPlan(c=args.c, s=args.s, lam=args.lam)
    report = amplification.separation_experiment(plan, args.trials, args.seed)
    _emit(args, report.to_json_dict(), [report.to_json_dict()])
    return 0


def cmd_gl(args) -> int:
    rng = np.random.default_rng([args.seed, 2])
    ell = args.ell
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

    def fn(xi: int) -> int:
        true_bit = (planted & xi).bit_count() & 1
        return true_bit ^ int(wrong[xi])

    return adversaries.PredictionOracle(ell=ell, fn=fn)


_COMMANDS = {
    "run": cmd_run,
    "completeness": cmd_completeness,
    "soundness": cmd_soundness,
    "lemmas": cmd_lemmas,
    "reduce": cmd_reduce,
    "amplify": cmd_amplify,
    "gl": cmd_gl,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, parser)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
