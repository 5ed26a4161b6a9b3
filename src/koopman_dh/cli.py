"""Command-line front end: simulation, theorem sweeps, recovery, EDMD fits,
complexity reports, and config-driven experiment runs.

All reports are JSON with a schema_version field, deterministic key order,
exact rationals as num/den string pairs, and floats at 15 significant
digits. Exit codes: 0 success, 2 invalid parameters, 3 malformed input
data, 4 internal consistency failure: a false all_match (verify-theorem),
oracle_match (recover), verified (shared-secret) or equal (complexity
--p/--m), a sweep record's false dimension_match, complexity.equal or
recovery_all_match, or a library RuntimeError. Flags about user data never
exit 4.

Each cmd_* returns (report, failure): a dict for a JSON report or the text
itself, and None or the reason for exit 4. main alone writes the report,
to --out or stdout, and only then turns a failure into exit 4.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import os
import random
import sys
import time

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
    shared_secret_intersection,
    simulate,
)
from .edmd import (
    FittedOperator,
    RankLawViolation,
    check_assumption,
    compare_on_values,
    dataset_from_values,
    edmd_fit,
    max_state_error,
    operator_to_json,
)
from .lifting import (
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
from .spectral import eigen_canonical, parity, recover_exponent

SCHEMA_VERSION = 1
ENVELOPE = {"schema_version": SCHEMA_VERSION, "tool": "koopman-dh", "tool_version": __version__}
OUTPUT_DIR_ENV = "KOOPMAN_DH_OUT_DIR"

EXIT_OK = 0
EXIT_INVALID_PARAMS = 2
EXIT_MALFORMED_DATA = 3
EXIT_INTERNAL = 4

SWEEP_CSV_FIELDS = (
    "p m q minimal_dimension expected_dimension dimension_match recovery_all_match "
    "lfsr_length koopman_dimension complexity_equal"
).split()


def _parse_primes(text: str) -> list[int] | None:
    """Accept '5..61', a comma list '5,7,11', or a single prime '23'; None otherwise."""
    text = text.strip()
    try:
        if ".." not in text:
            return [int(tok) for tok in text.split(",") if tok.strip()]
        lo, hi = (int(tok) for tok in text.split("..", 1))
    except ValueError:
        return None
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def _generators(p: int, which) -> list[int]:
    """The smallest primitive root of p, all of them, or an explicit list; ascending, once each."""
    if which == "smallest":
        return [DhParams.with_smallest_root(p).m]
    return all_primitive_roots(p) if which == "all" else sorted(set(which))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_report_dir(path: str | None) -> None:
    """Refuse a report path that names no file or a missing directory; create nothing."""
    if path is not None and (not os.path.basename(path) or os.path.isdir(path)):
        raise ValueError(f"cannot write report {path!r}: the path names no file")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        raise ValueError(f"cannot write report {path}: {missing}")


def _parity_name(n: int) -> str:
    return "even" if n % 2 == 0 else "odd"


def _dimension_head(params: DhParams, dim: int) -> dict:
    """The dimension-law fields of a verify-theorem row and of a sweep record."""
    expected = params.q_tilde + 1
    return {"p": params.p, "m": params.m, "minimal_dimension": dim, "expected_dimension": expected}


def _register_block(comparison) -> dict:
    """Register length against lifted dimension, for complexity --p/--m and a sweep record."""
    return {k: getattr(comparison, k) for k in ("lfsr_length", "koopman_dimension", "equal")}


def _spectral_start(params: DhParams):
    """The canonical decomposition at q = (p-1)/2 and the orbit's lifted start state."""
    q = params.q_tilde
    return eigen_canonical(params.p, q), lift_shift(full_period_trajectory(params), q, 0)


def _edmd_block(params: DhParams, q: int, n: int, values=None) -> tuple[dict, FittedOperator]:
    """EDMD on n snapshot pairs at order q, of the orbit or of the given values.

    The rank law is checked first: data that breaks it is reported with a
    note, an orbit that breaks it is an internal error. Below (p-1)/2 the
    fit is the under-parameterized one with its prediction error; from
    there on it is compared with the canonical closing row. Returns
    the report fields and the fitted operator.
    """
    external = values is not None
    if external:
        # predictions run as far as the data reaches
        under_horizon, compare_horizon = len(values) - 1, len(values) - q - 1
    else:
        # one period of windows is every window of the orbit
        under_horizon = compare_horizon = params.period
        traj = full_period_trajectory(params)
        values = [traj.value_at(i) for i in range(max(n, compare_horizon) + q + 1)]
    dataset = dataset_from_values(values, q, n)
    block = {"rank_z": dataset.rank_z, "under_parameterized": q < params.q_tilde}
    try:
        block["assumption_holds"] = check_assumption(dataset, params.p)
    except RankLawViolation as exc:
        # an orbit cannot break the rank law, but external data can
        if not external:
            raise
        block["assumption_holds"] = False
        block["note"] = f"{exc}; the data is not an orbit of x -> {params.m}x mod {params.p}"
    fitted = edmd_fit(dataset)
    if q < params.q_tilde:
        block["max_state_error"] = frac_json(max_state_error(fitted, values, under_horizon))
    else:
        alpha = canonical_alpha(params.p, q)
        comparison = compare_on_values(fitted, alpha, values, compare_horizon)
        block["entrywise_equal"] = comparison.entrywise_equal
        block["prediction_equivalent"] = comparison.prediction_equivalent
    block["residual_is_zero"] = fitted.residual_sq == 0
    return block, fitted


# --- subcommands -----------------------------------------------------------


def cmd_simulate(args):
    traj = simulate(args.m, DhParams(args.p, args.m), args.x0, args.steps)
    return "".join(f"{v}\n" for v in traj.values), None


def cmd_verify_theorem(args):
    primes = _parse_primes(args.primes)
    if primes is None:
        raise ValueError(f"--primes {args.primes!r} is not a range, a list or one number")
    primes = sorted(set(primes))
    if not primes:
        raise ValueError(f"--primes {args.primes!r} selects no number")
    rows, skipped = [], []
    for p in primes:
        if not is_prime(p) or p <= 3:
            skipped.append({"p": p, "reason": "requires p > 3" if is_prime(p) else "not prime"})
            continue
        for m in _generators(p, args.generators):
            params = DhParams(p, m)
            row = _dimension_head(params, minimal_lifting_dimension(params))
            rows.append({**row, "match": row["minimal_dimension"] == row["expected_dimension"]})
    if not rows:
        raise ValueError(f"--primes {args.primes!r} selects no prime above 3")
    all_match = all(r["match"] for r in rows)
    failure = None if all_match else "a minimal dimension deviated from (p-1)/2 + 1"
    return {"rows": rows, "skipped": skipped, "all_match": all_match}, failure


def cmd_recover(args):
    params = DhParams(args.p, args.m)
    if (args.c is None) == (args.e is None):
        raise ValueError("provide exactly one of --c (ciphertext) or --e (self-test exponent)")
    if args.e is not None and not 1 <= args.e <= params.p - 1:
        raise ValueError(f"--e must lie in [1, p-1] = [1, {params.p - 1}], got {args.e}")
    c = args.c if args.c is not None else pow(params.m, args.e, params.p)
    q = params.q_tilde
    ze = lift_ciphertext(c, params, q)  # checks c before the decomposition is built
    dec, z0 = _spectral_start(params)
    report = {"p": params.p, "m": params.m, "c": c, "q": q}
    if args.parity_only:
        report["parity"] = parity(ze, z0, dec)
        return report, None
    estimate = recover_exponent(ze, z0, dec, params.p)
    oracle = discrete_log_bruteforce(c, params)
    report.update(
        {
            "e_recovered": estimate.e,
            "e_oracle": oracle,
            "oracle_match": estimate.e == oracle,
            "parity": estimate.parity,
            "per_eigenvalue": [
                {"eigenvalue_index": j, "matched_power": t}
                for j, t in estimate.per_eigenvalue_residues
            ],
        }
    )
    if estimate.e != oracle:
        return report, f"spectral recovery returned {estimate.e}, oracle says {oracle}"
    return report, None


def cmd_shared_secret(args):
    params = DhParams(args.p, args.m)
    result = shared_secret_intersection(args.c_e, args.c_d, params)
    verified = result.secret == pow(params.m, result.e * result.d, params.p)
    report = {
        "p": params.p,
        "m": params.m,
        "c_e": args.c_e,
        "c_d": args.c_d,
        "secret": result.secret,
        "e": result.e,
        "d": result.d,
        "verified": verified,
    }
    return report, None if verified else "intersection secret fails the power cross-check"


def cmd_edmd(args):
    params = DhParams(args.p, args.m)
    values = None
    if args.data:
        values = read_integer_csv(args.data)
        pairs = max(args.n or 0, 1)  # a non-positive --n is refused below, as a parameter
        if len(values) < pairs + args.q + 1:
            raise MalformedDataError(
                f"{args.data}: {len(values)} values cannot form {pairs} snapshot pair(s) at "
                f"order {args.q}; need at least {pairs + args.q + 1}"
            )
        source = {"data_file": args.data}
    elif args.n is None:
        raise ValueError("provide --n (snapshot pairs) or --data (trajectory CSV)")
    else:
        source = {"simulated_pairs": args.n}
    n = args.n if args.n is not None else len(values) - args.q - 1
    report = {"p": params.p, "m": params.m, "q": args.q, "n": n, "source": source}
    block, fitted = _edmd_block(params, args.q, n, values)
    report.update(block, operator=operator_to_json(fitted))
    return report, None


def cmd_complexity(args):
    if (args.sequence is None) == (args.p is None):
        raise ValueError("provide either --p/--m or --sequence FILE")
    if args.p is not None:
        if args.m is None:
            raise ValueError("--p requires --m")
        for flag, value in (("--field-prime", args.field_prime), ("--expected", args.expected)):
            if value is not None:
                raise ValueError(f"{flag} applies only with --sequence")
        comparison = compare_koopman_vs_lfsr(DhParams(args.p, args.m))
        connection = [frac_json(c) for c in comparison.connection]
        report = {"p": args.p, "m": args.m, **_register_block(comparison)}
        report.update(connection=connection, companion_last_row=connection[::-1])
        failure = None if comparison.equal else "register length differs from lifted dimension"
        return report, failure
    if args.m is not None:
        raise ValueError("--m applies only with --p")
    if args.expected is not None and args.expected < 0:
        raise ValueError(f"--expected must be nonnegative, got {args.expected}")
    terms = read_integer_series(args.sequence)
    rational = berlekamp_massey(SequenceSample(terms=tuple(terms), field=RATIONAL))
    report = {
        "sequence_file": args.sequence,
        "length": len(terms),
        "complexity_rational": rational.length,
        "connection_rational": [frac_json(c) for c in rational.connection],
    }
    if args.field_prime is not None:
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
    return report, None


# --- config-driven sweep ---------------------------------------------------


def load_config(path: str) -> dict:
    """The sweep config as one validated dict, echoed verbatim as manifest.config.

    A wrong shape or type exits 3 (malformed data); a value out of range
    exits 2. Explicit exponents must lie in [1, p-1], and explicit generators
    must be primitive roots, for every prime, so no case runs on a bad config.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedDataError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedDataError(f"config {path} must be a JSON object")
    output = raw.get("output", {})
    given = output if isinstance(output, dict) else {}  # a non-object fails 'output'
    cfg = {
        "primes": raw.get("primes"),
        "generators": raw.get("generators", "smallest"),
        "q_policy": raw.get("q_policy", "q_tilde"),
        "exponent_sweep": raw.get("exponent_sweep", "all"),
        "output": {"path": given.get("path", "report.json"), "format": given.get("format", "json")},
        "seed": raw.get("seed", 0),
    }
    if isinstance(cfg["primes"], str):
        cfg["primes"] = _parse_primes(cfg["primes"])
        if cfg["primes"] == []:
            raise ValueError(f"config primes {raw['primes']!r} selects no prime")
    primes, generators, exponents = cfg["primes"], cfg["generators"], cfg["exponent_sweep"]
    for key, ok, shape in (
        (
            "primes",
            isinstance(primes, list) and primes and all(map(_is_int, primes)),
            "a nonempty list of integers or a range string",
        ),
        ("seed", _is_int(cfg["seed"]), "an integer"),
        ("output", isinstance(output, dict), "an object"),
        ("output.path", isinstance(cfg["output"]["path"], str), "a string"),
        ("output.format", isinstance(cfg["output"]["format"], str), "a string"),
        (
            "generators",
            generators in ("smallest", "all")
            or (isinstance(generators, list) and generators and all(map(_is_int, generators))),
            '"smallest", "all" or a nonempty list of integers',
        ),
        (
            "exponent_sweep",
            exponents == "all"
            or (isinstance(exponents, list) and all(map(_is_int, exponents)))
            or (isinstance(exponents, dict) and _is_int(exponents.get("sample"))),
            '"all", {"sample": k} or a list of integers',
        ),
        (
            "q_policy",
            cfg["q_policy"] in ("q_tilde", "p_minus_2") or _is_int(cfg["q_policy"]),
            '"q_tilde", "p_minus_2" or an integer',
        ),
    ):
        if not ok:
            raise MalformedDataError(f"config {path}: '{key}' must be {shape}")
    if isinstance(exponents, dict) and exponents["sample"] < 0:
        raise ValueError(f"config exponent_sweep sample {exponents['sample']} is negative")
    for p in primes:
        if not is_prime(p) or p <= 3 or p % 2 == 0:
            raise ValueError(f"config primes must be odd primes > 3, got {p}")
        if _is_int(cfg["q_policy"]) and not 0 <= cfg["q_policy"] <= p - 2:
            raise ValueError(f"q={cfg['q_policy']} outside [0, p-2] for p={p}")
        for e in exponents if isinstance(exponents, list) else []:
            if not 1 <= e <= p - 1:
                raise ValueError(f"exponent {e} outside [1, p-1] for p={p}")
        for m in generators if isinstance(generators, list) else []:
            DhParams(p, m)  # raises unless m generates the group mod p
    if cfg["output"]["format"] not in ("json", "csv"):
        raise ValueError(f"output format must be json or csv, got {cfg['output']['format']}")
    return cfg


def _sweep_case(params: DhParams, q: int, exponents: list[int]) -> dict:
    """One sweep record; its minimal dimension is the complexity comparison's.

    exponents is empty unless q is one of the recovering orders, (p-1)/2 or p-2.
    """
    p, m, q_tilde = params.p, params.m, params.q_tilde
    lfsr = compare_koopman_vs_lfsr(params)
    dim = lfsr.koopman_dimension
    record = {**_dimension_head(params, dim), "q": q, "dimension_match": dim == q_tilde + 1}
    record["complexity"] = _register_block(lfsr)
    under = q < q_tilde
    edmd, fitted = _edmd_block(params, q, 2 * params.period - q - 1 if under else q_tilde + 1)
    # an under-parameterized record reports the prediction error, not the rank law
    drop = ("rank_z", "assumption_holds") if under else ("under_parameterized",)
    record["edmd"] = {k: v for k, v in edmd.items() if k not in drop}
    if under:
        return record
    record["edmd"]["fit_kind"] = fitted.fit_kind
    record["alpha"] = [frac_json(a) for a in canonical_alpha(p, q)]
    if q == q_tilde:
        # the analytic spectrum matches the dynamics exactly at the threshold
        # order; recover through it
        dec, z0 = _spectral_start(params)
        record["eigenvalue_turns"] = [frac_json(t) for t in dec.turns]
    recoveries = []
    for e in exponents:
        c = pow(m, e, p)
        if q == q_tilde:
            estimate = recover_exponent(lift_ciphertext(c, params, q), z0, dec, p)
            method, got, got_parity = "spectral", estimate.e, estimate.parity
        else:
            # at full length the initial lift lists the whole orbit, so
            # recovery is a table lookup
            got = index_lookup_attack(c, params)
            method, got_parity = "index-lookup", _parity_name(got)
        recoveries.append(
            {
                "e": e,
                "method": method,
                "recovered": got,
                "oracle_match": got == discrete_log_bruteforce(c, params),
                "parity": got_parity,
                # only an even q lacks the eigenvalue -1, and p - 2 is odd
                "parity_match": got_parity == ("unavailable" if q % 2 == 0 else _parity_name(e)),
            }
        )
    if recoveries:
        record["recovery"] = recoveries
        record["recovery_all_match"] = all(
            r["oracle_match"] and r["parity_match"] for r in recoveries
        )
    return record


def run_sweep(cfg: dict) -> dict:
    """Run every configured case; records are ordered by (p, m, e)."""
    started = time.time()
    rng = random.Random(cfg["seed"])
    q_policy, exponent_sweep = cfg["q_policy"], cfg["exponent_sweep"]
    records = []
    for p in sorted(set(cfg["primes"])):
        q = {"q_tilde": (p - 1) // 2, "p_minus_2": p - 2}.get(q_policy, q_policy)
        for m in _generators(p, cfg["generators"]):
            exponents = []
            if q in ((p - 1) // 2, p - 2):  # only the recovering orders draw exponents
                if exponent_sweep == "all":
                    exponents = list(range(1, p))
                elif isinstance(exponent_sweep, dict):
                    k = min(exponent_sweep["sample"], p - 1)
                    exponents = sorted(rng.sample(range(1, p), k))
                else:
                    exponents = sorted(set(exponent_sweep))
            records.append(_sweep_case(DhParams(p, m), q, exponents))
    manifest = {"config": cfg, "wall_clock_s": float15(time.time() - started)}
    return {"manifest": manifest, "records": records}


def _sweep_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, SWEEP_CSV_FIELDS, restval="", extrasaction="ignore")
    writer.writeheader()
    for rec in records:
        complexity = rec["complexity"]
        writer.writerow({**rec, **complexity, "complexity_equal": complexity["equal"]})
    return buf.getvalue()


def cmd_sweep(args):
    """Run a config's sweep; stdout gets one summary line.

    The report goes to the config's output path, or to that file name under
    $KOOPMAN_DH_OUT_DIR when it is set.
    """
    cfg = load_config(args.config)
    args.out = cfg["output"]["path"]
    if os.environ.get(OUTPUT_DIR_ENV):
        args.out = os.path.join(os.environ[OUTPUT_DIR_ENV], os.path.basename(args.out))
    _check_report_dir(args.out)
    report = run_sweep(cfg)
    records = report["records"]
    args.summary = f"wrote {args.out} with {len(records)} records\n"
    bad = sum(
        not (r["dimension_match"] and r["complexity"]["equal"])
        or r.get("recovery_all_match") is False
        for r in records
    )
    failure = f"{bad} cases broke the dimension law, register length or recovery" if bad else None
    return (_sweep_csv(records) if cfg["output"]["format"] == "csv" else report), failure


# --- parser and entry point -------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once; parsing leaves the parser unchanged."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    orbit = argparse.ArgumentParser(add_help=False)
    orbit.add_argument("--p", type=int, required=True)
    orbit.add_argument("--m", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="koopman-dh",
        description="Lifted linear analysis of modular multiplication dynamics",
    )
    parser.set_defaults(out=None, summary="")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser(
        "simulate", parents=[orbit, out], help="run the modular orbit, one state per line"
    )
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--x0", type=int, default=1)

    ver = sub.add_parser("verify-theorem", parents=[out], help="sweep the minimal dimension law")
    ver.add_argument("--primes", required=True, help="range '5..61', list '5,7', or single")
    ver.add_argument("--generators", choices=["smallest", "all"], default="smallest")

    rec = sub.add_parser(
        "recover", parents=[orbit, out], help="spectral exponent recovery with oracle cross-check"
    )
    rec.add_argument("--c", type=int)
    rec.add_argument("--e", type=int, help="self-test: derive c = m^e, then recover e")
    rec.add_argument("--parity-only", action="store_true")

    sh = sub.add_parser(
        "shared-secret", parents=[orbit, out], help="brute-force trajectory intersection"
    )
    sh.add_argument("--c-e", dest="c_e", type=int, required=True)
    sh.add_argument("--c-d", dest="c_d", type=int, required=True)

    ed = sub.add_parser("edmd", parents=[orbit, out], help="fit the lifted operator from snapshots")
    ed.add_argument("--q", type=int, required=True)
    ed.add_argument("--n", type=int)
    ed.add_argument("--data", help="trajectory CSV, one integer state per line")

    cx = sub.add_parser("complexity", parents=[out], help="Berlekamp-Massey vs lifted dimension")
    cx.add_argument("--p", type=int)
    cx.add_argument("--m", type=int)
    cx.add_argument("--sequence", help="sequence file: CSV (one integer per line) or JSON array")
    cx.add_argument("--field-prime", type=int, help="additionally analyze over GF(p)")
    cx.add_argument("--expected", type=int, help="flag a mismatch against this length")

    sw = sub.add_parser("sweep", help="run a config-driven experiment sweep")
    sw.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    # Data files and reports may hold integers past CPython's 4300-digit
    # int-string limit, so it is lifted for this call and restored after it
    # (sweeps and tests call main in-process); builds without the limit skip this.
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebound cmd_* (a test double, a tracer) is the one that runs
    command = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        _check_report_dir(args.out)
        report, failure = command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_DATA if isinstance(exc, MalformedDataError) else EXIT_INVALID_PARAMS
    except RuntimeError as exc:
        report, failure = None, exc
    if report is not None:
        if isinstance(report, dict):
            report = dumps_report({**ENVELOPE, "command": args.subcommand, **report})
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(report)
            except OSError as exc:
                print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
                return EXIT_INVALID_PARAMS
            report = args.summary
        sys.stdout.write(report)
    if failure:
        print(f"internal consistency failure: {failure}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
