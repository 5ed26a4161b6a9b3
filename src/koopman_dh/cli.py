"""Command-line front end: simulation, theorem sweeps, recovery, EDMD fits,
complexity reports, and config-driven experiment runs.

All reports are JSON with a schema_version field, deterministic key order,
exact rationals as num/den string pairs, and floats at 15 significant
digits. Exit codes: 0 success, 2 invalid parameters, 3 malformed input
data, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass

from . import __version__
from .complexity import (
    RATIONAL,
    SequenceSample,
    berlekamp_massey,
    compare_koopman_vs_lfsr,
)
from .dynamics import (
    DhParams,
    all_primitive_roots,
    discrete_log_bruteforce,
    full_period_trajectory,
    is_prime,
    mod_pow,
    shared_secret_intersection,
    simulate,
)
from .edmd import (
    RankLawViolation,
    build_dataset,
    check_assumption,
    compare_on_values,
    compare_operators,
    dataset_from_values,
    edmd_fit,
    edmd_underparameterized,
    operator_to_json,
    underparameterized_from_values,
)
from .lifting import (
    CompanionSystem,
    canonical_alpha,
    index_lookup_attack,
    lift_ciphertext,
    lift_shift,
    minimal_lifting_dimension,
)
from .serialize import (
    MalformedDataError,
    dumps_report,
    float15,
    frac_json,
    read_integer_csv,
    read_integer_series,
)
from .spectral import RecoveryError, eigen_canonical, parity, recover_exponent

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "KOOPMAN_DH_OUT_DIR"

EXIT_OK = 0
EXIT_INVALID_PARAMS = 2
EXIT_MALFORMED_DATA = 3
EXIT_INTERNAL = 4


class InternalConsistencyError(RuntimeError):
    """A cross-check against an independent oracle failed."""


def _report_envelope(command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "koopman-dh",
        "tool_version": __version__,
        "command": command,
    }


def _emit(report: dict, out: str | None) -> None:
    text = dumps_report(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_primes(text: str) -> list[int]:
    """Accept '5..61', a comma list '5,7,11', or a single prime '23'."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        return [p for p in range(lo, hi + 1) if is_prime(p)]
    return [int(tok) for tok in text.split(",") if tok.strip()]


# --- subcommands -----------------------------------------------------------


def cmd_simulate(args) -> int:
    params = DhParams(args.p, args.m)
    traj = simulate(args.m, params, args.x0, args.steps)
    lines = "\n".join(str(v) for v in traj.values) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    primes = _parse_primes(args.primes)
    rows = []
    skipped = []
    for p in sorted(set(primes)):
        if not is_prime(p):
            skipped.append({"p": p, "reason": "not prime"})
            continue
        if p <= 3:
            skipped.append({"p": p, "reason": "requires p > 3"})
            continue
        roots = all_primitive_roots(p) if args.generators == "all" else [DhParams.with_smallest_root(p).m]
        for m in roots:
            params = DhParams(p, m)
            dim = minimal_lifting_dimension(params)
            expected = (p - 1) // 2 + 1
            rows.append(
                {
                    "p": p,
                    "m": m,
                    "minimal_dimension": dim,
                    "expected_dimension": expected,
                    "match": dim == expected,
                }
            )
    report = _report_envelope("verify-theorem")
    report.update({"rows": rows, "skipped": skipped, "all_match": all(r["match"] for r in rows)})
    _emit(report, args.out)
    if not report["all_match"]:
        raise InternalConsistencyError("a minimal dimension deviated from (p-1)/2 + 1")
    return EXIT_OK


def cmd_recover(args) -> int:
    params = DhParams(args.p, args.m)
    if (args.c is None) == (args.e is None):
        raise ValueError("provide exactly one of --c (ciphertext) or --e (self-test exponent)")
    c = args.c if args.c is not None else mod_pow(params.m, args.e, params.p)
    q = params.q_tilde
    dec = eigen_canonical(params.p, q)
    traj = full_period_trajectory(params)
    z0 = lift_shift(traj, q, 0)
    ze = lift_ciphertext(c, params, q)
    report = _report_envelope("recover")
    report.update({"p": params.p, "m": params.m, "c": c, "q": q})
    if args.parity_only:
        report["parity"] = parity(ze, z0, dec)
        _emit(report, args.out)
        return EXIT_OK
    estimate = recover_exponent(ze, z0, dec, params.p)
    oracle = discrete_log_bruteforce(c, params)
    report.update(
        {
            "e_recovered": estimate.e,
            "e_oracle": oracle,
            "oracle_match": estimate.e == oracle,
            "parity": estimate.parity,
            "per_eigenvalue": [
                {"eigenvalue_index": j, "matched_power": t, "match_error": float15(err)}
                for j, t, err in estimate.per_eigenvalue_residues
            ],
        }
    )
    _emit(report, args.out)
    if not report["oracle_match"]:
        raise InternalConsistencyError(
            f"spectral recovery returned {estimate.e}, oracle says {oracle}"
        )
    return EXIT_OK


def cmd_shared_secret(args) -> int:
    params = DhParams(args.p, args.m)
    result = shared_secret_intersection(args.c_e, args.c_d, params)
    expected = mod_pow(params.m, result.e * result.d, params.p)
    report = _report_envelope("shared-secret")
    report.update(
        {
            "p": params.p,
            "m": params.m,
            "c_e": args.c_e,
            "c_d": args.c_d,
            "secret": result.secret,
            "e": result.e,
            "d": result.d,
            "verified": result.secret == expected,
        }
    )
    _emit(report, args.out)
    if not report["verified"]:
        raise InternalConsistencyError("intersection secret fails the power cross-check")
    return EXIT_OK


def cmd_edmd(args) -> int:
    params = DhParams(args.p, args.m)
    q_tilde = params.q_tilde
    if args.data:
        values = read_integer_csv(args.data)
        if len(values) < args.q + 2:
            raise MalformedDataError(
                f"{args.data}: {len(values)} values cannot form one snapshot pair at "
                f"order {args.q}; need at least {args.q + 2}"
            )
        n = args.n if args.n is not None else len(values) - args.q - 1
        # predictions run as far as the data reaches
        under_horizon, compare_horizon = len(values) - 1, len(values) - args.q - 1
        source = {"data_file": args.data}
    else:
        if args.n is None:
            raise ValueError("provide --n (snapshot pairs) or --data (trajectory CSV)")
        n = args.n
        under_horizon, compare_horizon = params.period, 2 * params.period
        traj = full_period_trajectory(params)
        values = [traj.value_at(i) for i in range(max(n, compare_horizon) + args.q + 1)]
        source = {"simulated_pairs": args.n}
    dataset = dataset_from_values(values, args.q, n)
    report = _report_envelope("edmd")
    report.update(
        {
            "p": params.p,
            "m": params.m,
            "q": args.q,
            "n": dataset.n,
            "rank_z": dataset.rank_z,
            "source": source,
        }
    )
    try:
        report["assumption_holds"] = check_assumption(dataset, params.p)
    except RankLawViolation as exc:
        # an orbit cannot break the rank law, but external data can
        if not args.data:
            raise
        report["assumption_holds"] = False
        report["note"] = f"{exc}; the data is not an orbit of x -> {params.m}x mod {params.p}"
    if args.q < q_tilde:
        under = underparameterized_from_values(values, args.q, dataset.n, under_horizon)
        report.update(
            {
                "under_parameterized": True,
                "operator": operator_to_json(under.operator),
                "residual_is_zero": under.operator.residual_sq == 0,
                "max_state_error": frac_json(under.max_state_error),
            }
        )
    else:
        fitted = edmd_fit(dataset)
        analytic = CompanionSystem(q=args.q, alpha=canonical_alpha(params.p, args.q))
        comparison = compare_on_values(fitted, analytic, values, compare_horizon)
        report.update(
            {
                "under_parameterized": False,
                "operator": operator_to_json(fitted),
                "residual_is_zero": fitted.residual_sq == 0,
                "entrywise_equal": comparison.entrywise_equal,
                "prediction_equivalent": comparison.prediction_equivalent,
            }
        )
    _emit(report, args.out)
    return EXIT_OK


def cmd_complexity(args) -> int:
    report = _report_envelope("complexity")
    if (args.sequence is None) == (args.p is None):
        raise ValueError("provide either --p/--m or --sequence FILE")
    if args.sequence:
        terms = read_integer_series(args.sequence)
        rational = berlekamp_massey(SequenceSample(terms=tuple(terms), field=RATIONAL))
        report.update(
            {
                "sequence_file": args.sequence,
                "length": len(terms),
                "complexity_rational": rational.length,
                "connection_rational": [frac_json(c) for c in rational.connection],
            }
        )
        if args.field_prime:
            modular = berlekamp_massey(SequenceSample(terms=tuple(terms), field=args.field_prime))
            report["complexity_prime_field"] = {
                "p": args.field_prime,
                "length": modular.length,
                "connection": list(modular.connection),
            }
        if args.expected is not None:
            matches = rational.length == args.expected
            report["expected_length"] = args.expected
            report["matches_expected"] = matches
            if not matches:
                report["note"] = (
                    f"computed minimal register length over the rationals is "
                    f"{rational.length}, not the supplied {args.expected}; the "
                    f"expected value is not reproducible from these terms"
                )
    else:
        if args.m is None:
            raise ValueError("--p requires --m")
        comparison = compare_koopman_vs_lfsr(DhParams(args.p, args.m))
        report.update(
            {
                "p": args.p,
                "m": args.m,
                "lfsr_length": comparison.lfsr_length,
                "koopman_dimension": comparison.koopman_dimension,
                "equal": comparison.equal,
                "connection": [frac_json(c) for c in comparison.connection],
                "companion_last_row": [
                    frac_json(c) for c in reversed(comparison.connection)
                ],
            }
        )
    _emit(report, args.out)
    return EXIT_OK


# --- config-driven sweep ---------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep: which primes, which generators, which exponents."""

    primes: tuple[int, ...]
    generators: object = "smallest"  # "smallest" | "all" | explicit list
    q_policy: object = "q_tilde"  # "q_tilde" | "p_minus_2" | explicit int
    exponent_sweep: object = "all"  # "all" | {"sample": k} | explicit list
    output_path: str = "report.json"
    output_format: str = "json"
    seed: int = 0

    def __post_init__(self):
        for p in self.primes:
            if not is_prime(p) or p <= 3 or p % 2 == 0:
                raise ValueError(f"config primes must be odd primes > 3, got {p}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"output format must be json or csv, got {self.output_format}")
        if isinstance(self.q_policy, int):
            for p in self.primes:
                if not 0 <= self.q_policy <= p - 2:
                    raise ValueError(f"q={self.q_policy} outside [0, p-2] for p={p}")


def load_config(path: str) -> ExperimentConfig:
    import json as _json

    try:
        with open(path) as fh:
            raw = _json.load(fh)
    except (OSError, _json.JSONDecodeError) as exc:
        raise MalformedDataError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedDataError(f"config {path} must be a JSON object")
    primes = raw.get("primes")
    if isinstance(primes, str):
        primes = _parse_primes(primes)
    if not isinstance(primes, list) or not primes:
        raise MalformedDataError("config needs a nonempty 'primes' list or range string")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise MalformedDataError(f"config {path}: 'output' must be an object")
    generators = raw.get("generators", "smallest")
    if generators not in ("smallest", "all") and not isinstance(generators, list):
        raise MalformedDataError(
            f"config {path}: 'generators' must be \"smallest\", \"all\" or a list"
        )
    exponent_sweep = raw.get("exponent_sweep", "all")
    if not (
        exponent_sweep == "all"
        or isinstance(exponent_sweep, list)
        or (isinstance(exponent_sweep, dict) and "sample" in exponent_sweep)
    ):
        raise MalformedDataError(
            f"config {path}: 'exponent_sweep' must be \"all\", {{\"sample\": k}} or a list"
        )
    try:
        return ExperimentConfig(
            primes=tuple(int(p) for p in primes),
            generators=generators,
            q_policy=raw.get("q_policy", "q_tilde"),
            exponent_sweep=exponent_sweep,
            output_path=output.get("path", "report.json"),
            output_format=output.get("format", "json"),
            seed=int(raw.get("seed", 0)),
        )
    except (TypeError, KeyError) as exc:
        raise MalformedDataError(f"config {path} malformed: {exc}") from exc


def _case_generators(cfg: ExperimentConfig, p: int) -> list[int]:
    if cfg.generators == "smallest":
        return [DhParams.with_smallest_root(p).m]
    if cfg.generators == "all":
        return all_primitive_roots(p)
    return [int(m) for m in cfg.generators]


def _case_exponents(cfg: ExperimentConfig, p: int, rng: random.Random) -> list[int]:
    if cfg.exponent_sweep == "all":
        return list(range(1, p))
    if isinstance(cfg.exponent_sweep, dict) and "sample" in cfg.exponent_sweep:
        k = min(int(cfg.exponent_sweep["sample"]), p - 1)
        return sorted(rng.sample(range(1, p), k))
    return sorted(int(e) for e in cfg.exponent_sweep)


def _case_q(cfg: ExperimentConfig, p: int) -> int:
    if cfg.q_policy == "q_tilde":
        return (p - 1) // 2
    if cfg.q_policy == "p_minus_2":
        return p - 2
    return int(cfg.q_policy)


def run_sweep(cfg: ExperimentConfig) -> dict:
    """Run every configured case; records are ordered by (p, m, e)."""
    started = time.time()
    rng = random.Random(cfg.seed)
    records = []
    for p in sorted(set(cfg.primes)):
        for m in _case_generators(cfg, p):
            params = DhParams(p, m)
            q = _case_q(cfg, p)
            q_tilde = params.q_tilde
            traj = full_period_trajectory(params)
            dim = minimal_lifting_dimension(params)
            record: dict = {
                "p": p,
                "m": m,
                "q": q,
                "minimal_dimension": dim,
                "expected_dimension": q_tilde + 1,
                "dimension_match": dim == q_tilde + 1,
            }
            if q >= q_tilde:
                alpha = canonical_alpha(p, q)
                record["alpha"] = [frac_json(a) for a in alpha]
                recoveries = []
                if q == q_tilde:
                    # the analytic spectrum matches the dynamics exactly at
                    # the threshold order; recover through it
                    dec = eigen_canonical(p, q)
                    record["eigenvalue_turns"] = [frac_json(t) for t in dec.turns]
                    z0 = lift_shift(traj, q, 0)
                    for e in _case_exponents(cfg, p, rng):
                        c = mod_pow(m, e, p)
                        estimate = recover_exponent(lift_ciphertext(c, params, q), z0, dec, p)
                        expected_parity = (
                            "unavailable" if q % 2 == 0 else ("even" if e % 2 == 0 else "odd")
                        )
                        recoveries.append(
                            {
                                "e": e,
                                "method": "spectral",
                                "recovered": estimate.e,
                                "oracle_match": estimate.e
                                == discrete_log_bruteforce(c, params),
                                "parity": estimate.parity,
                                "parity_match": estimate.parity == expected_parity,
                            }
                        )
                elif q == p - 2:
                    # at full length the initial lift lists the whole orbit,
                    # so recovery is a table lookup
                    for e in _case_exponents(cfg, p, rng):
                        c = mod_pow(m, e, p)
                        got = index_lookup_attack(c, params)
                        recoveries.append(
                            {
                                "e": e,
                                "method": "index-lookup",
                                "recovered": got,
                                "oracle_match": got == discrete_log_bruteforce(c, params),
                                "parity": "even" if got % 2 == 0 else "odd",
                                "parity_match": got % 2 == e % 2,
                            }
                        )
                if recoveries:
                    record["recovery"] = recoveries
                    record["recovery_all_match"] = all(
                        r["oracle_match"] and r["parity_match"] for r in recoveries
                    )
                dataset = build_dataset(traj, q, q_tilde + 1)
                fitted = edmd_fit(dataset)
                analytic = CompanionSystem(q=q, alpha=alpha)
                comparison = compare_operators(fitted, analytic, traj, horizon=2 * params.period)
                record["edmd"] = {
                    "rank_z": dataset.rank_z,
                    "assumption_holds": check_assumption(dataset, p),
                    "fit_kind": fitted.fit_kind,
                    "residual_is_zero": fitted.residual_sq == 0,
                    "entrywise_equal": comparison.entrywise_equal,
                    "prediction_equivalent": comparison.prediction_equivalent,
                }
            else:
                under = edmd_underparameterized(traj, q, 2 * params.period - q - 1)
                record["edmd"] = {
                    "under_parameterized": True,
                    "residual_is_zero": under.operator.residual_sq == 0,
                    "max_state_error": frac_json(under.max_state_error),
                }
            lfsr = compare_koopman_vs_lfsr(params)
            record["complexity"] = {
                "lfsr_length": lfsr.lfsr_length,
                "koopman_dimension": lfsr.koopman_dimension,
                "equal": lfsr.equal,
            }
            records.append(record)
    report = _report_envelope("sweep")
    report.update(
        {
            "manifest": {
                "config": {
                    "primes": list(cfg.primes),
                    "generators": cfg.generators,
                    "q_policy": cfg.q_policy,
                    "exponent_sweep": cfg.exponent_sweep,
                    "output": {"path": cfg.output_path, "format": cfg.output_format},
                    "seed": cfg.seed,
                },
                "wall_clock_s": float15(time.time() - started),
            },
            "records": records,
        }
    )
    return report


def _sweep_csv(report: dict) -> str:
    import csv
    import io

    fields = [
        "p",
        "m",
        "q",
        "minimal_dimension",
        "expected_dimension",
        "dimension_match",
        "recovery_all_match",
        "lfsr_length",
        "koopman_dimension",
        "complexity_equal",
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    for rec in report["records"]:
        writer.writerow(
            [
                rec["p"],
                rec["m"],
                rec["q"],
                rec["minimal_dimension"],
                rec["expected_dimension"],
                rec["dimension_match"],
                rec.get("recovery_all_match", ""),
                rec["complexity"]["lfsr_length"],
                rec["complexity"]["koopman_dimension"],
                rec["complexity"]["equal"],
            ]
        )
    return buf.getvalue()


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    report = run_sweep(cfg)
    out_path = cfg.output_path
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir:
        out_path = os.path.join(out_dir, os.path.basename(out_path))
    if cfg.output_format == "csv":
        with open(out_path, "w") as fh:
            fh.write(_sweep_csv(report))
    else:
        with open(out_path, "w") as fh:
            fh.write(dumps_report(report))
    sys.stdout.write(f"wrote {out_path} with {len(report['records'])} records\n")
    bad = [r for r in report["records"] if not r["dimension_match"]]
    if bad:
        raise InternalConsistencyError(f"{len(bad)} cases deviated from the dimension law")
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopman-dh",
        description="Lifted linear analysis of modular multiplication dynamics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="run the modular orbit, one state per line")
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--x0", type=int, default=1)
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify-theorem", help="sweep the minimal dimension law")
    ver.add_argument("--primes", required=True, help="range '5..61', list '5,7', or single")
    ver.add_argument("--generators", choices=["smallest", "all"], default="smallest")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify_theorem)

    rec = sub.add_parser("recover", help="spectral exponent recovery with oracle cross-check")
    rec.add_argument("--p", type=int, required=True)
    rec.add_argument("--m", type=int, required=True)
    rec.add_argument("--c", type=int)
    rec.add_argument("--e", type=int, help="self-test: derive c = m^e, then recover e")
    rec.add_argument("--parity-only", action="store_true")
    rec.add_argument("--out")
    rec.set_defaults(func=cmd_recover)

    sh = sub.add_parser("shared-secret", help="brute-force trajectory intersection")
    sh.add_argument("--p", type=int, required=True)
    sh.add_argument("--m", type=int, required=True)
    sh.add_argument("--c-e", dest="c_e", type=int, required=True)
    sh.add_argument("--c-d", dest="c_d", type=int, required=True)
    sh.add_argument("--out")
    sh.set_defaults(func=cmd_shared_secret)

    ed = sub.add_parser("edmd", help="fit the lifted operator from snapshots")
    ed.add_argument("--p", type=int, required=True)
    ed.add_argument("--m", type=int, required=True)
    ed.add_argument("--q", type=int, required=True)
    ed.add_argument("--n", type=int)
    ed.add_argument("--data", help="trajectory CSV, one integer state per line")
    ed.add_argument("--out")
    ed.set_defaults(func=cmd_edmd)

    cx = sub.add_parser("complexity", help="Berlekamp-Massey vs lifted dimension")
    cx.add_argument("--p", type=int)
    cx.add_argument("--m", type=int)
    cx.add_argument("--sequence", help="sequence file: CSV (one integer per line) or JSON array")
    cx.add_argument("--field-prime", type=int, help="additionally analyze over GF(p)")
    cx.add_argument("--expected", type=int, help="flag a mismatch against this length")
    cx.add_argument("--out")
    cx.set_defaults(func=cmd_complexity)

    sw = sub.add_parser("sweep", help="run a config-driven experiment sweep")
    sw.add_argument("--config", required=True)
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except (InternalConsistencyError, RecoveryError, RuntimeError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
